open Nfactor
open Symexec

let extract_nf name =
  let entry = Option.get (Nfs.Corpus.find name) in
  Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name (entry.Nfs.Corpus.program ())

let test_lb_model_shape () =
  let ex = extract_nf "lb" in
  let m = ex.Extract.model in
  Alcotest.(check (slist string compare)) "cfg vars"
    [ "ROUND_ROBIN"; "lb_ip"; "lb_port"; "mode"; "servers" ]
    m.Model.cfg_vars;
  Alcotest.(check (slist string compare)) "ois vars"
    [ "b2f_nat"; "cur_port"; "f2b_nat"; "rr_idx" ]
    m.Model.ois_vars;
  (* Five paths: new-flow RR, new-flow hash, existing flow, reverse
     known, reverse unknown. *)
  Alcotest.(check int) "five entries" 5 (Model.entry_count m)

let test_lb_slice_excludes_logs () =
  let ex = extract_nf "lb" in
  (* The union slice keeps state updates but drops the counters. *)
  Nfl.Ast.iter_program
    (fun s ->
      match s.Nfl.Ast.kind with
      | Nfl.Ast.Assign (Nfl.Ast.L_var v, _) when v = "pass_stat" || v = "drop_stat" ->
          Alcotest.(check bool) "log update not in union slice" false
            (List.mem s.Nfl.Ast.sid ex.Extract.union_slice)
      | _ -> ())
    ex.Extract.program;
  (* The state slice is non-empty and includes rr_idx updates. *)
  Alcotest.(check bool) "state slice nonempty" true (ex.Extract.state_slice <> [])

let test_lb_config_split () =
  (* Figure 6: the model splits into mode=RR and mode=HASH tables. *)
  let ex = extract_nf "lb" in
  let groups = Model.config_groups ex.Extract.model in
  let keys = List.map fst groups in
  Alcotest.(check bool) "at least two config groups" true (List.length keys >= 2);
  let flat = List.concat keys in
  Alcotest.(check bool) "mode appears in config conditions" true
    (List.exists (fun k -> Value.str_contains ~sub:"mode" k) flat)

let test_lb_rr_entry_updates_index () =
  let ex = extract_nf "lb" in
  (* Find the RR new-flow entry: state update on rr_idx. *)
  let rr_entries =
    List.filter
      (fun (e : Model.entry) ->
        List.exists (fun (v, _) -> v = "rr_idx") e.Model.state_update)
      ex.Extract.model.Model.entries
  in
  Alcotest.(check int) "one RR entry" 1 (List.length rr_entries);
  let e = List.hd rr_entries in
  (* Figure 6 row 1: state update is (idx+1) % N. *)
  (match List.assoc "rr_idx" e.Model.state_update with
  | Model.Set_scalar
      {
        Sexpr.node =
          Sexpr.Bin
            ( Nfl.Ast.Mod,
              { Sexpr.node = Sexpr.Bin (Nfl.Ast.Add, { Sexpr.node = Sexpr.Sym "rr_idx"; _ }, _); _ },
              _ );
        _;
      } -> ()
  | u -> Alcotest.failf "unexpected rr_idx update: %s" (Fmt.str "%a" Model.pp_state_update ("rr_idx", u)));
  (* It also installs both NAT mappings. *)
  Alcotest.(check bool) "f2b updated" true (List.mem_assoc "f2b_nat" e.Model.state_update);
  Alcotest.(check bool) "b2f updated" true (List.mem_assoc "b2f_nat" e.Model.state_update);
  (* And it forwards. *)
  (match e.Model.pkt_action with
  | Model.Forward [ _ ] -> ()
  | _ -> Alcotest.fail "RR entry must forward one packet")

let test_lb_drop_entry () =
  let ex = extract_nf "lb" in
  let drops =
    List.filter (fun (e : Model.entry) -> e.Model.pkt_action = Model.Drop) ex.Extract.model.Model.entries
  in
  (* Exactly one drop path: unknown reverse flow. *)
  Alcotest.(check int) "one drop entry" 1 (List.length drops);
  let e = List.hd drops in
  Alcotest.(check bool) "drop has negative state match" true
    (List.exists (fun (l : Solver.literal) -> not l.Solver.positive) e.Model.state_match);
  Alcotest.(check bool) "drop updates no state" true (e.Model.state_update = [])

let test_nat_model () =
  let ex = extract_nf "nat" in
  let m = ex.Extract.model in
  (* outbound-new, outbound-existing, inbound-known, inbound-unknown,
     not-for-nat = 5 *)
  Alcotest.(check int) "five entries" 5 (Model.entry_count m);
  Alcotest.(check (slist string compare)) "ois" [ "fwd_map"; "next_port"; "rev_map" ] m.Model.ois_vars;
  let forwards =
    List.filter (fun (e : Model.entry) -> e.Model.pkt_action <> Model.Drop) m.Model.entries
  in
  Alcotest.(check int) "three forwarding entries" 3 (List.length forwards)

let test_firewall_model () =
  let ex = extract_nf "firewall" in
  let m = ex.Extract.model in
  Alcotest.(check (slist string compare)) "ois" [ "conn_table" ] m.Model.ois_vars;
  Alcotest.(check bool) "stateful" true (Model.is_stateful m);
  (* Outbound entry installs a pinhole. *)
  let installs =
    List.filter (fun (e : Model.entry) -> e.Model.state_update <> []) m.Model.entries
  in
  Alcotest.(check bool) "pinhole installer exists" true (List.length installs >= 1)

let test_snort_model_stateless () =
  let ex = extract_nf "snort" in
  let m = ex.Extract.model in
  Alcotest.(check (list string)) "no ois vars" [] m.Model.ois_vars;
  (* A handful of decode paths, not hundreds. *)
  Alcotest.(check bool) "few entries" true (Model.entry_count m <= 8);
  Alcotest.(check bool) "no truncation" true (ex.Extract.stats.Explore.truncated_paths = 0);
  (* Slice is a small fraction of the program. *)
  let orig_stmts = Nfl.Ast.stmt_count ex.Extract.program in
  Alcotest.(check bool) "slice <= 15% of statements" true
    (List.length ex.Extract.union_slice * 100 <= 15 * orig_stmts)

let test_balance_model () =
  let ex = extract_nf "balance" in
  let m = ex.Extract.model in
  (* TCP state and backend tables are ois. *)
  List.iter
    (fun v -> Alcotest.(check bool) (v ^ " ois") true (List.mem v m.Model.ois_vars))
    [ "_tcp"; "_backend"; "idx" ];
  (* Entries exist for: SYN new conn (RR + hash configs), established
     data relay, teardown, drops. *)
  Alcotest.(check bool) "rich entry set" true (Model.entry_count m >= 6);
  (* Some entry forwards with a payload-carrying relay to a backend. *)
  let relays =
    List.filter
      (fun (e : Model.entry) ->
        match e.Model.pkt_action with
        | Model.Forward snaps ->
            List.exists (List.exists (fun (f, v) -> f = "ip_dst" && not (Sexpr.equal v (Sexpr.sym "pkt.ip_dst")))) snaps
        | Model.Drop -> false)
      m.Model.entries
  in
  Alcotest.(check bool) "backend relay entry" true (relays <> [])

let test_ratelimiter_model () =
  let ex = extract_nf "ratelimiter" in
  let m = ex.Extract.model in
  Alcotest.(check (list string)) "counts is the state" [ "counts" ] m.Model.ois_vars;
  (* exempt, under-limit-new, under-limit-existing, over-limit. *)
  Alcotest.(check bool) "at least 4 entries" true (Model.entry_count m >= 4)

let test_classify_derives_pkt_prefix () =
  (* The flow-atom test derives its field prefix from the classified
     packet variable rather than assuming the literal name "pkt". *)
  let cl = Extract.classify_literal ~pkt_var:"p" ~cfg_vars:[ "limit" ] ~ois_vars:[ "tbl" ] in
  let lit atom = Solver.lit atom true in
  Alcotest.(check bool) "p.dport is a flow atom" true
    (cl (lit (Sexpr.mk_bin Nfl.Ast.Eq (Sexpr.sym "p.dport") (Sexpr.int 80))) = Extract.L_flow);
  (* "pkt.*" is just another unknown symbol when the packet variable is p. *)
  Alcotest.(check bool) "pkt.dport is residual under pkt_var=p" true
    (cl (lit (Sexpr.mk_bin Nfl.Ast.Eq (Sexpr.sym "pkt.dport") (Sexpr.int 80))) = Extract.L_other);
  Alcotest.(check bool) "pure-config atom" true
    (cl (lit (Sexpr.mk_bin Nfl.Ast.Lt (Sexpr.sym "limit") (Sexpr.int 10))) = Extract.L_config);
  (* State beats flow even when the atom mentions packet fields. *)
  Alcotest.(check bool) "state priority" true
    (cl (lit (Sexpr.mk_mem (Sexpr.dict_base "tbl") (Sexpr.sym "p.ip_src"))) = Extract.L_state)

let test_memo_shared_slice_original () =
  (* Regression: the extraction's verdict cache keys on hash-consed
     term ids, so re-exploring the slice is answered entirely from the
     memo, and the unsliced original — which re-decides the slice's
     branch conditions — keeps hitting the same entries. *)
  let ex = extract_nf "lb" in
  let memo = ex.Extract.solver_memo in
  let _, slice_stats = Report.explore_slice ~memo ex in
  Alcotest.(check int) "slice re-exploration fully cached" 0
    slice_stats.Explore.solver_calls;
  Alcotest.(check bool) "slice re-exploration hits" true
    (slice_stats.Explore.solver_cache_hits > 0);
  let _, orig_stats = Report.explore_original ~memo ex in
  Alcotest.(check bool) "original exploration reuses slice verdicts" true
    (orig_stats.Explore.solver_cache_hits > 0)

let test_extraction_deterministic () =
  let a = extract_nf "lb" and b = extract_nf "lb" in
  Alcotest.(check string) "same rendered model"
    (Model.to_string a.Extract.model)
    (Model.to_string b.Extract.model)

let suite =
  [
    Alcotest.test_case "LB model shape" `Quick test_lb_model_shape;
    Alcotest.test_case "LB slice excludes logs" `Quick test_lb_slice_excludes_logs;
    Alcotest.test_case "LB config split (Fig 6)" `Quick test_lb_config_split;
    Alcotest.test_case "LB RR entry" `Quick test_lb_rr_entry_updates_index;
    Alcotest.test_case "LB drop entry" `Quick test_lb_drop_entry;
    Alcotest.test_case "NAT model" `Quick test_nat_model;
    Alcotest.test_case "firewall model" `Quick test_firewall_model;
    Alcotest.test_case "snort model stateless" `Quick test_snort_model_stateless;
    Alcotest.test_case "balance model" `Quick test_balance_model;
    Alcotest.test_case "ratelimiter model" `Quick test_ratelimiter_model;
    Alcotest.test_case "classify derives pkt prefix" `Quick test_classify_derives_pkt_prefix;
    Alcotest.test_case "memo shared slice/original" `Quick test_memo_shared_slice_original;
    Alcotest.test_case "extraction deterministic" `Quick test_extraction_deterministic;
  ]
