(* Join-point path merging in the worklist explorer: diamond-chain
   detection on the CFG, linear state cost on 2^k synthetic chains,
   budget determinism under merging, byte-identity of models for NFs
   below the profitability threshold, and corpus-wide differential
   equality of merged vs unmerged models. *)

open Nfactor
open Symexec
module Smap = Explore.Smap

let parse_main src = (Nfl.Parser.program src).Nfl.Ast.main

let env_with bindings =
  List.fold_left (fun m (k, v) -> Smap.add k v m) Smap.empty bindings

let sym_pkt_env extra = env_with (("pkt", Explore.sym_pkt "pkt") :: extra)

(* k independent bit tests, each a one-sided diamond rejoining at the
   next test: 2^k feasible paths unmerged, O(k) states merged. *)
let chain_block k =
  let conds =
    String.concat " "
      (List.init k (fun i ->
           Printf.sprintf "if ((pkt.ip_len & %d) != 0) { x = x + %d; }" (1 lsl i) (1 lsl i)))
  in
  parse_main ("main { x = 0; " ^ conds ^ " send(pkt); }")

let merge_all =
  { Explore.mergeable_if = (fun _ -> true); Explore.admit_guard = (fun _ -> true) }

let rec if_sids (b : Nfl.Ast.block) =
  List.concat_map
    (fun (s : Nfl.Ast.stmt) ->
      match s.Nfl.Ast.kind with
      | Nfl.Ast.If (_, bt, bf) -> (s.Nfl.Ast.sid :: if_sids bt) @ if_sids bf
      | Nfl.Ast.While (_, body) | Nfl.Ast.For_in (_, _, body) -> if_sids body
      | _ -> [])
    b

(* ----------------------------------------------------------------- *)
(* Join-point and diamond-chain detection                             *)
(* ----------------------------------------------------------------- *)

let test_chain_detection () =
  let b = chain_block 5 in
  let joins = Joins.of_block b in
  let sids = if_sids b in
  Alcotest.(check int) "five diamonds" 5 (List.length sids);
  List.iter
    (fun sid ->
      Alcotest.(check bool) "mergeable" true (Joins.mergeable joins sid);
      Alcotest.(check bool) "not in loop" false (Joins.in_loop joins sid);
      Alcotest.(check int) "on the full chain" 5 (Joins.chain_len joins sid))
    sids

let test_elif_ladder_short_chains () =
  (* Nested branches share the trailing statement as their join: each
     sits on its own length-1 chain, matching the ladder's linear path
     count. *)
  let b =
    parse_main
      "main { x = 0; if (pkt.dport == 80) { x = 1; } else { if (pkt.dport == 81) { x = 2; } \
       else { x = 3; } } send(pkt); }"
  in
  let joins = Joins.of_block b in
  List.iter
    (fun sid ->
      Alcotest.(check bool) "ladder branch mergeable" true (Joins.mergeable joins sid);
      Alcotest.(check int) "ladder chain is short" 1 (Joins.chain_len joins sid))
    (if_sids b)

let test_loop_body_not_mergeable () =
  let b =
    parse_main
      "main { i = 0; while (i < 3) { if (pkt.dport == 80) { i = i + 2; } i = i + 1; } \
       send(pkt); }"
  in
  let joins = Joins.of_block b in
  List.iter
    (fun sid ->
      Alcotest.(check bool) "in loop" true (Joins.in_loop joins sid);
      Alcotest.(check bool) "not mergeable" false (Joins.mergeable joins sid);
      Alcotest.(check int) "no chain" 0 (Joins.chain_len joins sid))
    (if_sids b)

let test_exit_join_not_mergeable () =
  (* The branch is the last statement: its arms never rejoin inside the
     block, so there is no join point to merge at. *)
  let b = parse_main "main { if (pkt.dport == 80) { send(pkt); } else { drop(); } }" in
  let joins = Joins.of_block b in
  List.iter
    (fun sid ->
      Alcotest.(check bool) "no join point" false (Joins.mergeable joins sid);
      Alcotest.(check int) "no chain" 0 (Joins.chain_len joins sid))
    (if_sids b)

(* ----------------------------------------------------------------- *)
(* Linear cost on 2^k chains                                          *)
(* ----------------------------------------------------------------- *)

let test_merge_linear_on_exponential_chain () =
  (* Unmerged, 12 diamonds need 2^12 paths and overflow a budget of
     64; merged, every join folds the pair back into one state and the
     whole block is a single path. *)
  let b = chain_block 12 in
  let config = { Explore.default_config with Explore.max_paths = 64 } in
  let _, unmerged = Explore.block ~config ~env:(sym_pkt_env []) b in
  Alcotest.(check bool) "unmerged overflows" true unmerged.Explore.overflowed;
  let paths, merged = Explore.block ~config ~merge:merge_all ~env:(sym_pkt_env []) b in
  Alcotest.(check bool) "merged fits" false merged.Explore.overflowed;
  Alcotest.(check int) "single merged path" 1 (List.length paths);
  Alcotest.(check int) "merged state charged once" 1 merged.Explore.paths;
  Alcotest.(check int) "one merge per diamond" 12 merged.Explore.merges;
  Alcotest.(check int) "still one decision per diamond" 12 merged.Explore.forks;
  (* A complete join folds the tautological guard away: the merged
     path condition is empty and the store carries the ite summary. *)
  let p = List.hd paths in
  Alcotest.(check int) "empty path condition" 0 (List.length p.Explore.pc);
  match Smap.find "x" p.Explore.env with
  | Explore.Scalar e ->
      Alcotest.(check bool) "summary mentions the packet" true
        (Sexpr.Sset.mem "pkt.ip_len" (Sexpr.syms e))
  | _ -> Alcotest.fail "scalar summary expected"

let test_rejecting_policy_is_unmerged () =
  (* A policy whose guard filter rejects everything must behave exactly
     like the unmerged explorer: merge regions open but every join
     falls back to separate states. *)
  let b = chain_block 5 in
  let reject = { merge_all with Explore.admit_guard = (fun _ -> false) } in
  let paths_off, off = Explore.block ~env:(sym_pkt_env []) b in
  let paths_on, on = Explore.block ~merge:reject ~env:(sym_pkt_env []) b in
  Alcotest.(check int) "same path count" (List.length paths_off) (List.length paths_on);
  Alcotest.(check int) "2^5 paths" 32 (List.length paths_on);
  Alcotest.(check int) "no merges" 0 on.Explore.merges;
  Alcotest.(check int) "same forks" off.Explore.forks on.Explore.forks;
  (* Same paths in the same order, literal for literal. *)
  List.iter2
    (fun (a : Explore.path) (b : Explore.path) ->
      Alcotest.(check int) "same pc depth" (List.length a.Explore.pc)
        (List.length b.Explore.pc);
      List.iter2
        (fun (la : Solver.literal) (lb : Solver.literal) ->
          Alcotest.(check bool) "same literal" true
            (Sexpr.equal la.Solver.atom lb.Solver.atom
            && la.Solver.positive = lb.Solver.positive))
        a.Explore.pc b.Explore.pc)
    paths_off paths_on

(* ----------------------------------------------------------------- *)
(* Budgets and determinism under merging                              *)
(* ----------------------------------------------------------------- *)

let run_twice ~config ?merge b =
  let r1 = Explore.block ~config ?merge ~env:(sym_pkt_env []) b in
  let r2 = Explore.block ~config ?merge ~env:(sym_pkt_env []) b in
  (r1, r2)

let check_same_outcome (paths1, (s1 : Explore.stats)) (paths2, (s2 : Explore.stats)) =
  Alcotest.(check int) "same paths" (List.length paths1) (List.length paths2);
  Alcotest.(check int) "same paths stat" s1.Explore.paths s2.Explore.paths;
  Alcotest.(check int) "same truncated" s1.Explore.truncated_paths s2.Explore.truncated_paths;
  Alcotest.(check bool) "same overflow" s1.Explore.overflowed s2.Explore.overflowed;
  Alcotest.(check int) "same merges" s1.Explore.merges s2.Explore.merges;
  Alcotest.(check int) "same prunes" s1.Explore.prunes s2.Explore.prunes;
  Alcotest.(check int) "same forks" s1.Explore.forks s2.Explore.forks;
  Alcotest.(check bool) "same fork histogram" true
    (Explore.Imap.equal ( = ) s1.Explore.fork_depths s2.Explore.fork_depths)

let test_overflow_deterministic_under_merging () =
  (* Overflow while merge regions are in flight: re-running must
     reproduce the same truncation point, histogram and counters. *)
  let b = chain_block 12 in
  let tight = { Explore.default_config with Explore.max_paths = 1 } in
  let r1, r2 = run_twice ~config:tight ~merge:merge_all b in
  check_same_outcome r1 r2;
  let _, s = r1 in
  Alcotest.(check bool) "overflowed" true s.Explore.overflowed;
  Alcotest.(check bool) "hard cap respected" true (s.Explore.paths <= 1)

let test_merged_run_deterministic () =
  let b = chain_block 10 in
  let config = { Explore.default_config with Explore.max_paths = 64 } in
  let r1, r2 = run_twice ~config ~merge:merge_all b in
  check_same_outcome r1 r2

let test_fork_histogram_flat_under_merging () =
  (* Complete joins return the pc to its pre-fork depth, so every
     diamond on the chain forks at depth 0. *)
  let b = chain_block 8 in
  let _, stats = Explore.block ~merge:merge_all ~env:(sym_pkt_env []) b in
  Alcotest.(check int) "all forks at depth 0" 8
    (Option.value ~default:0 (Explore.Imap.find_opt 0 stats.Explore.fork_depths));
  Alcotest.(check int) "max depth 0" 0 stats.Explore.max_fork_depth

(* ----------------------------------------------------------------- *)
(* Corpus guarantees                                                  *)
(* ----------------------------------------------------------------- *)

let stress_names = [ Nfs.Dpi.name; Nfs.Rangefw.name ]

(* Unmerged DPI needs room for its 2^13 paths. *)
let unmerged_config name =
  if name = Nfs.Dpi.name then
    { Explore.default_config with Explore.max_paths = 20_000 }
  else Explore.default_config

let extract_pair =
  let tbl = Hashtbl.create 16 in
  fun (e : Nfs.Corpus.entry) ->
    match Hashtbl.find_opt tbl e.Nfs.Corpus.name with
    | Some pair -> pair
    | None ->
        let name = e.Nfs.Corpus.name in
        let on =
          Pipeline.Manager.extract (Pipeline.Manager.create ())
            ~merge:true ~name (e.Nfs.Corpus.program ())
        in
        let off =
          Pipeline.Manager.extract (Pipeline.Manager.create ())
            ~config:(unmerged_config name) ~merge:false ~name
            (e.Nfs.Corpus.program ())
        in
        Hashtbl.replace tbl name (on, off);
        (on, off)

(* (paths, solver calls) per legacy NF, as recorded from the recursive
   forker the worklist explorer replaced. Counters are machine-
   independent: the worklist engine must reproduce the path census
   exactly and make no more solver calls. *)
let forker_census =
  [
    ("lb", (5, 8));
    ("balance", (11, 20));
    ("snort", (6, 10));
    ("nat", (5, 8));
    ("firewall", (6, 10));
    ("firewall_redundant", (8, 14));
    ("ratelimiter", (5, 8));
    ("ips", (10, 18));
    ("synguard", (10, 18));
    ("acl", (5, 8));
    ("mirror", (3, 4));
    ("portknock", (11, 20));
  ]

let test_legacy_models_byte_identical () =
  (* Below the profitability threshold the merge policy must not fire:
     the refactored explorer with merging on produces byte-for-byte the
     models of the unmerged enumeration, on the forker's census. *)
  let legacy =
    List.filter (fun (e : Nfs.Corpus.entry) -> not (List.mem e.Nfs.Corpus.name stress_names))
      Nfs.Corpus.all
  in
  Alcotest.(check (list string)) "census covers the legacy NFs"
    (List.sort compare (List.map fst forker_census))
    (List.sort compare (List.map (fun (e : Nfs.Corpus.entry) -> e.Nfs.Corpus.name) legacy));
  List.iter
    (fun (e : Nfs.Corpus.entry) ->
      let name = e.Nfs.Corpus.name in
      let on, off = extract_pair e in
      let paths, calls = List.assoc name forker_census in
      let stats = on.Extract.stats in
      Alcotest.(check int) (name ^ ": census paths") paths stats.Explore.paths;
      Alcotest.(check bool)
        (Printf.sprintf "%s: solver calls %d <= census %d" name stats.Explore.solver_calls calls)
        true
        (stats.Explore.solver_calls <= calls);
      Alcotest.(check int) (name ^ ": no merges") 0 stats.Explore.merges;
      Alcotest.(check string)
        (name ^ ": model byte-identical")
        (Model_io.to_string off.Extract.model)
        (Model_io.to_string on.Extract.model))
    legacy

let test_dpi_exponential_vs_merged () =
  let e = Option.get (Nfs.Corpus.find Nfs.Dpi.name) in
  let on, off = extract_pair e in
  Alcotest.(check bool) "naive enumeration is exponential" true
    (off.Extract.stats.Explore.paths >= 4096);
  Alcotest.(check bool) "unmerged still complete under the raised budget" false
    off.Extract.stats.Explore.overflowed;
  let branches = on.Extract.stats.Explore.forks in
  Alcotest.(check bool) "merged paths within 4x branch count" true
    (on.Extract.stats.Explore.paths <= 4 * branches);
  Alcotest.(check bool) "merges recorded" true (on.Extract.stats.Explore.merges >= 10);
  (* The default budget cannot hold the naive enumeration: merging is
     what makes this NF synthesizable at all. *)
  let t =
    Pipeline.Manager.extract (Pipeline.Manager.create ())
      ~merge:false ~name:Nfs.Dpi.name (e.Nfs.Corpus.program ())
  in
  Alcotest.(check bool) "unmerged overflows the default budget" true
    t.Extract.stats.Explore.overflowed

(* Seed-varied traffic for the property; the (large, fixed) palette is
   replayed once by the deterministic corpus test below rather than on
   every property trial. *)
let seeded_pkts seed =
  let ch = Packet.Traffic.churn_gen ~concurrent:24 ~seed () in
  Packet.Traffic.random_stream ~seed:(seed + 1) ~n:120 ()
  @ List.init 60 (fun _ -> Packet.Traffic.churn_next ch)

let diff_pkts seed = Verify.Testgen.base_palette @ seeded_pkts seed

let test_corpus_merged_differentially_equal () =
  List.iter
    (fun (e : Nfs.Corpus.entry) ->
      let name = e.Nfs.Corpus.name in
      let on, off = extract_pair e in
      let store = Model_interp.initial_store on in
      let v, stores_equal =
        Equiv.model_differential ~store ~pkts:(diff_pkts 42) off.Extract.model
          on.Extract.model
      in
      Alcotest.(check int) (name ^ ": no mismatches") 0 (List.length v.Equiv.mismatches);
      Alcotest.(check bool) (name ^ ": stores equal") true stores_equal)
    Nfs.Corpus.all

(* Property: on any packet sequence, the merged and unmerged models are
   observationally equivalent, per corpus member. *)
let prop_merged_model_equals_unmerged =
  QCheck.Test.make ~name:"property: merged model == unmerged model" ~count:5
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun (e : Nfs.Corpus.entry) ->
          let on, off = extract_pair e in
          let store = Model_interp.initial_store on in
          let v, stores_equal =
            Equiv.model_differential ~store ~pkts:(seeded_pkts seed) off.Extract.model
              on.Extract.model
          in
          v.Equiv.mismatches = [] && stores_equal)
        Nfs.Corpus.all)

let suite =
  [
    Alcotest.test_case "chain detection" `Quick test_chain_detection;
    Alcotest.test_case "elif ladder: short chains" `Quick test_elif_ladder_short_chains;
    Alcotest.test_case "loop body not mergeable" `Quick test_loop_body_not_mergeable;
    Alcotest.test_case "exit join not mergeable" `Quick test_exit_join_not_mergeable;
    Alcotest.test_case "2^12 chain merges linear" `Quick test_merge_linear_on_exponential_chain;
    Alcotest.test_case "rejecting policy == unmerged" `Quick test_rejecting_policy_is_unmerged;
    Alcotest.test_case "overflow deterministic under merging" `Quick
      test_overflow_deterministic_under_merging;
    Alcotest.test_case "merged run deterministic" `Quick test_merged_run_deterministic;
    Alcotest.test_case "fork histogram flat under merging" `Quick
      test_fork_histogram_flat_under_merging;
    Alcotest.test_case "legacy models byte-identical" `Quick test_legacy_models_byte_identical;
    Alcotest.test_case "dpi: exponential naive, linear merged" `Quick
      test_dpi_exponential_vs_merged;
    Alcotest.test_case "corpus: merged differentially equal" `Quick
      test_corpus_merged_differentially_equal;
    QCheck_alcotest.to_alcotest prop_merged_model_equals_unmerged;
  ]
