(* The static model analyzer: the Imply lattice, the lint layer's
   evidence discipline (proofs, witnesses, the residual-match Info
   downgrade), the Equiv-gated minimizer, and the pipeline's analyze
   pass (caching + artifact round-trip). *)

open Nfactor
open Symexec

let dport = Sexpr.sym "pkt.dport"
let sport = Sexpr.sym "pkt.sport"
let cmp op a b = Sexpr.mk_bin op a b
let i n = Sexpr.int n
let pos a = Solver.lit a true
let neg a = Solver.lit a false

(* --------------------------------------------------------------- *)
(* Imply: the implication lattice                                   *)
(* --------------------------------------------------------------- *)

let test_imply_band_subset () =
  (* (dp & 15) == 2 forces (dp & 7) == 2: mask 7 is a submask of 15. *)
  let l15 = pos (cmp Nfl.Ast.Eq (cmp Nfl.Ast.Band dport (i 15)) (i 2)) in
  let l7 = neg (cmp Nfl.Ast.Eq (cmp Nfl.Ast.Band dport (i 7)) (i 2)) in
  Alcotest.(check bool) "band subset contradiction" true (Analysis.Imply.unsat [ l15; l7 ]);
  (* ... and the solver alone cannot see it (opaque & atoms). *)
  Alcotest.(check bool) "solver alone says Sat" true (Solver.check [ l15; l7 ] = Solver.Sat)

let test_imply_band_out_of_mask () =
  (* (dp & 3) == 5 is absurd: 5 has bits outside the mask. *)
  let l = pos (cmp Nfl.Ast.Eq (cmp Nfl.Ast.Band dport (i 3)) (i 5)) in
  Alcotest.(check bool) "result outside mask" true (Analysis.Imply.unsat [ l ])

let test_imply_intervals () =
  let ge5 = pos (cmp Nfl.Ast.Ge dport (i 5)) in
  let le3 = pos (cmp Nfl.Ast.Le dport (i 3)) in
  Alcotest.(check bool) "empty interval" true (Analysis.Imply.unsat [ ge5; le3 ]);
  (* width-2 interval fully covered by disequalities *)
  let in01 = [ pos (cmp Nfl.Ast.Ge dport (i 0)); pos (cmp Nfl.Ast.Le dport (i 1)) ] in
  let ne0 = neg (cmp Nfl.Ast.Eq dport (i 0)) in
  let ne1 = neg (cmp Nfl.Ast.Eq dport (i 1)) in
  Alcotest.(check bool) "ne-covered interval" true
    (Analysis.Imply.unsat (in01 @ [ ne0; ne1 ]));
  Alcotest.(check bool) "partially covered is sat" false
    (Analysis.Imply.unsat (in01 @ [ ne0 ]))

let test_imply_implication () =
  let eq80 = pos (cmp Nfl.Ast.Eq dport (i 80)) in
  let ge80 = pos (cmp Nfl.Ast.Ge dport (i 80)) in
  Alcotest.(check bool) "eq implies ge" true (Analysis.Imply.implies [ eq80 ] ge80);
  Alcotest.(check bool) "ge does not imply eq" false (Analysis.Imply.implies [ ge80 ] eq80);
  Alcotest.(check bool) "subsumes" true (Analysis.Imply.subsumes [ eq80 ] [ ge80 ]);
  Alcotest.(check bool) "no reverse subsumption" false
    (Analysis.Imply.subsumes [ ge80 ] [ eq80 ])

let test_imply_disjunction_split () =
  (* (dp == 1 || dp == 2) && dp == 3 is unsat via the bounded case split. *)
  let disj =
    pos (cmp Nfl.Ast.Or (cmp Nfl.Ast.Eq dport (i 1)) (cmp Nfl.Ast.Eq dport (i 2)))
  in
  let eq3 = pos (cmp Nfl.Ast.Eq dport (i 3)) in
  Alcotest.(check bool) "disjunction split" true (Analysis.Imply.unsat [ disj; eq3 ]);
  let eq2 = pos (cmp Nfl.Ast.Eq dport (i 2)) in
  Alcotest.(check bool) "consistent disjunct stays sat" false
    (Analysis.Imply.unsat [ disj; eq2 ])

let test_imply_sound_on_unknowns () =
  (* Opaque atoms: consistent polarities must never be reported unsat. *)
  let mem = Sexpr.mk_mem (Sexpr.dict_base "tbl") dport in
  Alcotest.(check bool) "opaque atom alone" false (Analysis.Imply.unsat [ pos mem ]);
  Alcotest.(check bool) "opposite polarities" true
    (Analysis.Imply.unsat [ pos mem; neg mem ])

(* --------------------------------------------------------------- *)
(* Lint on hand-built tables                                        *)
(* --------------------------------------------------------------- *)

let entry ?(config = []) ?(flow = []) ?(state = []) ?(residual = [])
    ?(action = Model.Drop) ?(update = []) () =
  {
    Model.config;
    flow_match = flow;
    state_match = state;
    residual_match = residual;
    pkt_action = action;
    state_update = update;
    path_sids = [];
    truncated = false;
  }

let model ?(ois = []) entries =
  { Model.nf_name = "hand"; pkt_var = "pkt"; cfg_vars = []; ois_vars = ois; entries }

let send = Model.Forward [ [] ]
let store0 = Model_interp.Smap.empty

let find_kind report k =
  List.filter (fun (f : Analysis.Lint.finding) -> k f.Analysis.Lint.f_kind)
    report.Analysis.Lint.r_findings

let test_lint_dead_entry () =
  let m =
    model
      [
        entry ~flow:[ pos (cmp Nfl.Ast.Eq dport (i 80)); neg (cmp Nfl.Ast.Eq dport (i 80)) ]
          ~action:send ();
        entry ~action:send ();
      ]
  in
  let r = Analysis.Lint.model_lint ~store:store0 m in
  match find_kind r (function Analysis.Lint.Dead -> true | _ -> false) with
  | [ f ] ->
      Alcotest.(check bool) "error severity" true (f.Analysis.Lint.f_severity = Analysis.Lint.Error);
      Alcotest.(check bool) "proven" true f.Analysis.Lint.f_proven;
      Alcotest.(check (option int)) "entry 0" (Some 0) f.Analysis.Lint.f_entry
  | fs -> Alcotest.failf "expected exactly one dead finding, got %d" (List.length fs)

let test_lint_shadowed_with_witness () =
  (* Entry 0 matches dport >= 0 (everything); entry 1 matches dport == 80:
     fully shadowed, and the witness must replay. *)
  let m =
    model
      [
        entry ~flow:[ pos (cmp Nfl.Ast.Ge dport (i 0)) ] ~action:send ();
        entry ~flow:[ pos (cmp Nfl.Ast.Eq dport (i 80)) ] ();
      ]
  in
  let r = Analysis.Lint.model_lint ~store:store0 m in
  match find_kind r (function Analysis.Lint.Shadowed _ -> true | _ -> false) with
  | [ f ] ->
      Alcotest.(check bool) "warning" true (f.Analysis.Lint.f_severity = Analysis.Lint.Warning);
      Alcotest.(check bool) "proven" true f.Analysis.Lint.f_proven;
      Alcotest.(check bool) "witness attached" true (f.Analysis.Lint.f_witness <> None);
      Alcotest.(check bool) "witness replays" true (Analysis.Lint.witness_replays m store0 f)
  | fs -> Alcotest.failf "expected one shadowed finding, got %d" (List.length fs)

(* Satellite regression: when the shadowing proof has to lean on an
   earlier entry's residual_match (solver-opaque atoms the lattice
   cannot decide), the finding degrades to Info — never a false
   Warning. *)
let test_lint_residual_downgrades_to_info () =
  let opaque = Sexpr.mk_ufun "hash" [ sport ] in
  let m =
    model
      [
        entry ~flow:[ pos (cmp Nfl.Ast.Ge dport (i 0)) ]
          ~residual:[ pos (cmp Nfl.Ast.Eq opaque (i 1)) ]
          ~action:send ();
        entry ~flow:[ pos (cmp Nfl.Ast.Eq dport (i 80)) ] ();
      ]
  in
  let r = Analysis.Lint.model_lint ~store:store0 m in
  match find_kind r (function Analysis.Lint.Shadowed _ -> true | _ -> false) with
  | [ f ] ->
      Alcotest.(check bool) "downgraded to info" true
        (f.Analysis.Lint.f_severity = Analysis.Lint.Info);
      Alcotest.(check bool) "not claimed proven" false f.Analysis.Lint.f_proven
  | [] -> ()  (* also acceptable: no claim at all rather than a false one *)
  | fs -> Alcotest.failf "expected at most one finding, got %d" (List.length fs)

let test_lint_overlap_ordered_downgrade () =
  (* Partial overlap with different actions: Warning on a table that
     claims disjointness, Info when declared priority-resolved. *)
  let m =
    model
      [
        entry ~flow:[ pos (cmp Nfl.Ast.Le dport (i 100)) ] ~action:send ();
        entry ~flow:[ pos (cmp Nfl.Ast.Ge dport (i 80)) ] ();
      ]
  in
  let sev ordered =
    let r = Analysis.Lint.model_lint ~ordered ~store:store0 m in
    match find_kind r (function Analysis.Lint.Overlap _ -> true | _ -> false) with
    | f :: _ -> Some f.Analysis.Lint.f_severity
    | [] -> None
  in
  Alcotest.(check bool) "unordered overlap is warning" true (sev false = Some Analysis.Lint.Warning);
  Alcotest.(check bool) "ordered overlap is info" true (sev true = Some Analysis.Lint.Info)

let test_lint_dead_write () =
  (* A state var written by some entry but read by none. *)
  let m =
    model ~ois:[ "audit" ]
      [
        entry ~flow:[ pos (cmp Nfl.Ast.Eq dport (i 80)) ] ~action:send
          ~update:[ ("audit", Model.Set_scalar (i 1)) ] ();
        entry ~action:send ();
      ]
  in
  let r = Analysis.Lint.model_lint ~store:store0 m in
  match find_kind r (function Analysis.Lint.Dead_write _ -> true | _ -> false) with
  | [ f ] ->
      Alcotest.(check bool) "dead write flagged" true
        (match f.Analysis.Lint.f_kind with
        | Analysis.Lint.Dead_write v -> v = "audit"
        | _ -> false)
  | fs -> Alcotest.failf "expected one dead-write finding, got %d" (List.length fs)

let test_lint_unwritable_state () =
  (* Guard requires gate == 2, but every transition stores 1 and the
     initial store holds 0. *)
  let gate = Sexpr.sym "gate" in
  let m =
    model ~ois:[ "gate" ]
      [
        entry ~state:[ pos (cmp Nfl.Ast.Eq gate (i 2)) ] ~action:send ();
        entry ~action:send ~update:[ ("gate", Model.Set_scalar (i 1)) ] ();
      ]
  in
  let store = Model_interp.Smap.add "gate" (Value.Int 0) store0 in
  let r = Analysis.Lint.model_lint ~store m in
  Alcotest.(check bool) "unwritable guard flagged" true
    (find_kind r (function Analysis.Lint.Unwritable_state _ -> true | _ -> false) <> [])

let test_chain_dead_write () =
  (* Hop a rewrites ip_ttl; hop b drops everything — the write is dead
     across the chain. *)
  let a =
    {
      (model [ entry ~action:(Model.Forward [ [ ("ip_ttl", i 9) ] ]) () ]) with
      Model.nf_name = "a";
    }
  in
  let b = { (model [ entry ~action:Model.Drop () ]) with Model.nf_name = "b" } in
  let fs = Analysis.Lint.chain_dead_writes [ ("a", a); ("b", b) ] in
  Alcotest.(check bool) "ttl write masked by next hop" true
    (List.exists
       (fun (f : Analysis.Lint.finding) ->
         match f.Analysis.Lint.f_kind with
         | Analysis.Lint.Chain_dead_write (hop, field) -> hop = "b" && field = "ip_ttl"
         | _ -> false)
       fs);
  (* ... but not when the next hop reads the field. *)
  let b_reads =
    {
      (model [ entry ~flow:[ pos (cmp Nfl.Ast.Gt (Sexpr.sym "pkt.ip_ttl") (i 0)) ] ~action:send () ])
      with Model.nf_name = "b";
    }
  in
  Alcotest.(check (list string)) "live across hop" []
    (List.filter_map
       (fun (f : Analysis.Lint.finding) ->
         match f.Analysis.Lint.f_kind with
         | Analysis.Lint.Chain_dead_write (_, field) -> Some field
         | _ -> None)
       (Analysis.Lint.chain_dead_writes [ ("a", a); ("b", b_reads) ]))

let test_report_roundtrip () =
  let e = Option.get (Nfs.Corpus.find "firewall_redundant") in
  let ex =
    Pipeline.Manager.extract (Pipeline.Manager.create ())
      ~name:"firewall_redundant" (e.Nfs.Corpus.program ())
  in
  let r = Analysis.Lint.run ex in
  let r' = Analysis.Lint.report_of_string (Analysis.Lint.report_to_string r) in
  Alcotest.(check string) "nf survives" r.Analysis.Lint.r_nf r'.Analysis.Lint.r_nf;
  Alcotest.(check int) "findings survive"
    (List.length r.Analysis.Lint.r_findings)
    (List.length r'.Analysis.Lint.r_findings);
  List.iter2
    (fun (a : Analysis.Lint.finding) (b : Analysis.Lint.finding) ->
      Alcotest.(check bool) "kind+severity survive" true
        (a.Analysis.Lint.f_kind = b.Analysis.Lint.f_kind
        && a.Analysis.Lint.f_severity = b.Analysis.Lint.f_severity
        && a.Analysis.Lint.f_entry = b.Analysis.Lint.f_entry))
    r.Analysis.Lint.r_findings r'.Analysis.Lint.r_findings

(* --------------------------------------------------------------- *)
(* The redundant firewall end to end                                *)
(* --------------------------------------------------------------- *)

let redundant_ex =
  lazy
    (let e = Option.get (Nfs.Corpus.find "firewall_redundant") in
     Pipeline.Manager.extract (Pipeline.Manager.create ())
       ~name:"firewall_redundant" (e.Nfs.Corpus.program ()))

let test_redundant_is_dirty () =
  let r = Analysis.Lint.run (Lazy.force redundant_ex) in
  let errors, _, _ = Analysis.Lint.counts r in
  Alcotest.(check bool) "dead audit branch found" true (errors >= 2);
  Alcotest.(check bool) "dirty" false (Analysis.Lint.is_clean r)

let test_redundant_minimizes () =
  let ex = Lazy.force redundant_ex in
  let store = Model_interp.initial_store ex in
  let o = Analysis.Minimize.run ~store ex.Extract.model in
  Alcotest.(check bool) "verified" true o.Analysis.Minimize.verified;
  Alcotest.(check bool) "at least 20% reduction" true (Analysis.Minimize.reduction o >= 0.2);
  Alcotest.(check int) "dead entries deleted" 2 o.Analysis.Minimize.deleted_dead;
  Alcotest.(check bool) "merges applied" true (o.Analysis.Minimize.merged >= 1);
  (* the minimized table lints clean as an ordered table *)
  let post = Analysis.Lint.model_lint ~ordered:true ~store o.Analysis.Minimize.minimized in
  Alcotest.(check bool) "post-minimization clean" true (Analysis.Lint.is_clean post)

let test_redundant_differential_10k () =
  let ex = Lazy.force redundant_ex in
  let store = Model_interp.initial_store ex in
  let o = Analysis.Minimize.run ~store ex.Extract.model in
  let ch = Packet.Traffic.churn_gen ~concurrent:32 ~seed:77 () in
  let pkts =
    Packet.Traffic.random_stream ~seed:76 ~n:10_000 ()
    @ List.init 1_000 (fun _ -> Packet.Traffic.churn_next ch)
  in
  let v, stores_equal =
    Equiv.model_differential ~store ~pkts ex.Extract.model o.Analysis.Minimize.minimized
  in
  Alcotest.(check int) "no output mismatches" 0 (List.length v.Equiv.mismatches);
  Alcotest.(check bool) "final stores equal" true stores_equal

(* --------------------------------------------------------------- *)
(* Corpus-wide guarantees                                           *)
(* --------------------------------------------------------------- *)

let test_corpus_minimize_exact () =
  List.iter
    (fun (e : Nfs.Corpus.entry) ->
      let name = e.Nfs.Corpus.name in
      let ex =
        Pipeline.Manager.extract (Pipeline.Manager.create ())
          ~name (e.Nfs.Corpus.program ())
      in
      let store = Model_interp.initial_store ex in
      let o = Analysis.Minimize.run ~store ex.Extract.model in
      Alcotest.(check bool) (name ^ " verified") true o.Analysis.Minimize.verified;
      Alcotest.(check bool) (name ^ " never larger") true
        (Model.entry_count o.Analysis.Minimize.minimized
        <= Model.entry_count o.Analysis.Minimize.original);
      Alcotest.(check bool) (name ^ " post-min clean") true
        (Analysis.Lint.is_clean
           (Analysis.Lint.model_lint ~ordered:true ~store o.Analysis.Minimize.minimized)))
    Nfs.Corpus.all

(* --------------------------------------------------------------- *)
(* qcheck: random first-match tables                                 *)
(* --------------------------------------------------------------- *)

(* Small random tables over dport/sport predicates with Drop/send
   actions — adversarial shapes for the rewriter: random tables are
   full of genuine shadows, overlaps and mergeable neighbours. *)
let random_model seed =
  let rng = Packet.Rng.create seed in
  let rand n = Packet.Rng.int rng n in
  let lit () =
    let fld = if rand 2 = 0 then dport else sport in
    let c = i (rand 4) in
    let atom =
      match rand 4 with
      | 0 -> cmp Nfl.Ast.Eq fld c
      | 1 -> cmp Nfl.Ast.Le fld c
      | 2 -> cmp Nfl.Ast.Ge fld c
      | _ -> cmp Nfl.Ast.Eq (cmp Nfl.Ast.Band fld (i 3)) c
    in
    Solver.lit atom (rand 2 = 0)
  in
  let entries =
    List.init
      (2 + rand 6)
      (fun _ ->
        entry
          ~flow:(List.init (1 + rand 2) (fun _ -> lit ()))
          ~action:(if rand 2 = 0 then send else Model.Drop)
          ())
  in
  model entries

let prop_minimize_exact_and_never_larger =
  QCheck.Test.make ~name:"property: minimize is Equiv-exact and never larger" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let m = random_model seed in
      let pkts = Packet.Traffic.random_stream ~seed:(seed + 1) ~n:300 () in
      let o = Analysis.Minimize.run ~pkts:(Verify.Testgen.base_palette @ pkts) ~store:store0 m in
      o.Analysis.Minimize.verified
      && Model.entry_count o.Analysis.Minimize.minimized <= Model.entry_count m
      &&
      (* independent replay on fresh traffic, not the gate's packets *)
      let fresh = Packet.Traffic.random_stream ~seed:(seed + 2) ~n:300 () in
      let v, eq =
        Equiv.model_differential ~store:store0 ~pkts:fresh m o.Analysis.Minimize.minimized
      in
      v.Equiv.mismatches = [] && eq)

(* --------------------------------------------------------------- *)
(* The pipeline pass                                                 *)
(* --------------------------------------------------------------- *)

let analyze_traces m =
  List.filter (fun t -> t.Pipeline.Trace.pass = "analyze") (Pipeline.Manager.traces m)

let test_pipeline_analyze_caches () =
  let e = Option.get (Nfs.Corpus.find "firewall_redundant") in
  let m = Pipeline.Manager.create () in
  let ex = Pipeline.Manager.extract_source m ~name:"firewall_redundant" (e.Nfs.Corpus.source ()) in
  let pre1, o1, _ = Pipeline.Manager.analyze m ex in
  let pre2, o2, _ = Pipeline.Manager.analyze m ex in
  (match analyze_traces m with
  | [ first; second ] ->
      Alcotest.(check bool) "first is a miss" false (Pipeline.Trace.is_hit first);
      Alcotest.(check bool) "second is a mem hit" true
        (second.Pipeline.Trace.status = Pipeline.Trace.Mem_hit)
  | ts -> Alcotest.failf "expected two analyze traces, got %d" (List.length ts));
  Alcotest.(check int) "same findings" (List.length pre1.Analysis.Lint.r_findings)
    (List.length pre2.Analysis.Lint.r_findings);
  Alcotest.(check int) "same table" (Model.entry_count o1.Analysis.Minimize.minimized)
    (Model.entry_count o2.Analysis.Minimize.minimized)

let test_pipeline_analyze_disk_roundtrip () =
  let dir = Filename.temp_file "nfactor_an" "" in
  Sys.remove dir;
  let e = Option.get (Nfs.Corpus.find "firewall_redundant") in
  let run () =
    let m = Pipeline.Manager.create ~cache_dir:dir () in
    let ex =
      Pipeline.Manager.extract_source m ~name:"firewall_redundant" (e.Nfs.Corpus.source ())
    in
    let r = Pipeline.Manager.analyze m ex in
    (r, analyze_traces m, ex)
  in
  let (pre1, o1, post1), t1, _ = run () in
  let (pre2, o2, post2), t2, ex2 = run () in
  Alcotest.(check bool) "cold run computes" true
    (List.exists (fun t -> t.Pipeline.Trace.status = Pipeline.Trace.Miss) t1);
  Alcotest.(check bool) "warm run replays from disk" true
    (List.for_all (fun t -> t.Pipeline.Trace.status = Pipeline.Trace.Disk_hit) t2);
  Alcotest.(check int) "pre findings survive the store"
    (List.length pre1.Analysis.Lint.r_findings)
    (List.length pre2.Analysis.Lint.r_findings);
  Alcotest.(check int) "post findings survive the store"
    (List.length post1.Analysis.Lint.r_findings)
    (List.length post2.Analysis.Lint.r_findings);
  Alcotest.(check string) "minimized model survives the store"
    (Model_io.to_string o1.Analysis.Minimize.minimized)
    (Model_io.to_string o2.Analysis.Minimize.minimized);
  Alcotest.(check bool) "counters survive" true
    (o1.Analysis.Minimize.deleted_dead = o2.Analysis.Minimize.deleted_dead
    && o1.Analysis.Minimize.merged = o2.Analysis.Minimize.merged
    && o1.Analysis.Minimize.widened_literals = o2.Analysis.Minimize.widened_literals
    && o1.Analysis.Minimize.verified = o2.Analysis.Minimize.verified);
  (* The input model is the refine artifact's: the analyze artifact
     does not store it again, and the decoder takes the extraction's. *)
  let artifacts =
    List.filter
      (fun f -> String.starts_with ~prefix:"analyze-" f)
      (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check int) "one analyze artifact" 1 (List.length artifacts);
  let text =
    In_channel.with_open_bin (Filename.concat dir (List.hd artifacts)) In_channel.input_all
  in
  Alcotest.(check bool) "artifact stores no original model" false
    (try
       ignore (Str.search_forward (Str.regexp_string "(original") text 0);
       true
     with Not_found -> false);
  Alcotest.(check string) "decoded original is the extraction's model"
    (Model_io.to_string ex2.Extract.model)
    (Model_io.to_string o2.Analysis.Minimize.original)

let suite =
  [
    Alcotest.test_case "imply: band subset propagation" `Quick test_imply_band_subset;
    Alcotest.test_case "imply: band out of mask" `Quick test_imply_band_out_of_mask;
    Alcotest.test_case "imply: intervals + ne coverage" `Quick test_imply_intervals;
    Alcotest.test_case "imply: implication + subsumption" `Quick test_imply_implication;
    Alcotest.test_case "imply: disjunction split" `Quick test_imply_disjunction_split;
    Alcotest.test_case "imply: sound on opaque atoms" `Quick test_imply_sound_on_unknowns;
    Alcotest.test_case "lint: dead entry is a proven error" `Quick test_lint_dead_entry;
    Alcotest.test_case "lint: shadowed entry ships a replaying witness" `Quick
      test_lint_shadowed_with_witness;
    Alcotest.test_case "lint: residual match downgrades to info" `Quick
      test_lint_residual_downgrades_to_info;
    Alcotest.test_case "lint: overlap severity respects ordering" `Quick
      test_lint_overlap_ordered_downgrade;
    Alcotest.test_case "lint: dead state write" `Quick test_lint_dead_write;
    Alcotest.test_case "lint: unwritable state guard" `Quick test_lint_unwritable_state;
    Alcotest.test_case "lint: chain-hop dead write" `Quick test_chain_dead_write;
    Alcotest.test_case "lint: report serialization round-trips" `Quick test_report_roundtrip;
    Alcotest.test_case "redundant firewall lints dirty" `Quick test_redundant_is_dirty;
    Alcotest.test_case "redundant firewall minimizes >= 20%, post-clean" `Quick
      test_redundant_minimizes;
    Alcotest.test_case "redundant firewall: 10k differential + churn" `Slow
      test_redundant_differential_10k;
    Alcotest.test_case "corpus-wide: minimize exact, never larger, post-clean" `Slow
      test_corpus_minimize_exact;
    QCheck_alcotest.to_alcotest prop_minimize_exact_and_never_larger;
    Alcotest.test_case "pipeline: analyze pass memoizes" `Quick test_pipeline_analyze_caches;
    Alcotest.test_case "pipeline: analyze artifact survives the disk store" `Quick
      test_pipeline_analyze_disk_roundtrip;
  ]
