(* Unit tests for the Model module's query/rendering functions, the
   Check static checker, and structural invariants of extraction noted
   in DESIGN.md. *)

open Nfactor
open Symexec

let extract_nf name =
  let entry = Option.get (Nfs.Corpus.find name) in
  Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name (entry.Nfs.Corpus.program ())

(* --------------------------------------------------------------- *)
(* Model queries                                                    *)
(* --------------------------------------------------------------- *)

let test_config_groups_partition_entries () =
  let m = (extract_nf "lb").Extract.model in
  let groups = Model.config_groups m in
  let total =
    List.fold_left (fun acc (key, _) -> acc + List.length (Model.entries_for_config m key)) 0 groups
  in
  Alcotest.(check int) "groups partition entries" (Model.entry_count m) total

let test_matched_fields_lb () =
  let m = (extract_nf "lb").Extract.model in
  let matched = Model.matched_fields m in
  List.iter
    (fun f -> Alcotest.(check bool) (f ^ " matched") true (List.mem f matched))
    [ "ip_src"; "ip_dst"; "sport"; "dport" ];
  Alcotest.(check bool) "payload not matched" false (List.mem "payload" matched)

let test_modified_fields_snort_empty () =
  let m = (extract_nf "snort").Extract.model in
  Alcotest.(check (list string)) "tap modifies nothing" [] (Model.modified_fields m)

let test_is_stateful () =
  Alcotest.(check bool) "lb stateful" true (Model.is_stateful (extract_nf "lb").Extract.model);
  Alcotest.(check bool) "snort stateless" false
    (Model.is_stateful (extract_nf "snort").Extract.model)

let test_rendering_mentions_key_parts () =
  let s = Model.to_string (extract_nf "lb").Extract.model in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (Value.str_contains ~sub:needle s))
    [ "NFactor model for lb"; "config"; "match flow"; "match state"; "action pkt"; "rr_idx" ]

let test_entries_have_consistent_literals () =
  (* Flow literals only mention pkt/cfg symbols; state literals mention
     at least one ois symbol. *)
  List.iter
    (fun name ->
      let m = (extract_nf name).Extract.model in
      List.iter
        (fun (e : Model.entry) ->
          List.iter
            (fun (l : Solver.literal) ->
              let syms = Sexpr.syms l.Solver.atom in
              Alcotest.(check bool) "state literal mentions ois" true
                (List.exists (fun v -> Sexpr.Sset.mem v syms) m.Model.ois_vars))
            e.Model.state_match;
          List.iter
            (fun (l : Solver.literal) ->
              let syms = Sexpr.syms l.Solver.atom in
              Alcotest.(check bool) "flow literal avoids ois" false
                (List.exists (fun v -> Sexpr.Sset.mem v syms) m.Model.ois_vars))
            e.Model.flow_match)
        m.Model.entries)
    [ "lb"; "nat"; "firewall"; "portknock" ]

(* --------------------------------------------------------------- *)
(* DESIGN.md invariant: state slice ⊆ packet slice                  *)
(* --------------------------------------------------------------- *)

let test_state_slice_contained () =
  List.iter
    (fun name ->
      let ex = extract_nf name in
      Alcotest.(check bool)
        (name ^ ": state slice ⊆ pkt slice")
        true
        (List.for_all (fun sid -> List.mem sid ex.Extract.pkt_slice) ex.Extract.state_slice);
      Alcotest.(check (list int)) (name ^ ": union = pkt slice") ex.Extract.pkt_slice
        ex.Extract.union_slice)
    Nfs.Corpus.names

(* --------------------------------------------------------------- *)
(* Check (static checker)                                           *)
(* --------------------------------------------------------------- *)

let test_check_clean_corpus () =
  List.iter
    (fun (e : Nfs.Corpus.entry) ->
      Alcotest.(check (list string)) (e.Nfs.Corpus.name ^ " clean") []
        (List.map (fun i -> Fmt.str "%a" Nfl.Check.pp_issue i)
           (Nfl.Check.program (e.Nfs.Corpus.program ()))))
    Nfs.Corpus.all

let test_check_unbound_variable () =
  let p = Nfl.Parser.program "main { x = undefined_var + 1; }" in
  let issues = Nfl.Check.program p in
  Alcotest.(check bool) "reports unbound" true
    (List.exists
       (fun (i : Nfl.Check.issue) -> Value.str_contains ~sub:"undefined_var" i.Nfl.Check.msg)
       issues)

let test_check_unknown_function () =
  let p = Nfl.Parser.program "main { frobnicate(1); }" in
  Alcotest.(check bool) "reports unknown function" true
    (List.exists
       (fun (i : Nfl.Check.issue) -> Value.str_contains ~sub:"frobnicate" i.Nfl.Check.msg)
       (Nfl.Check.program p))

let test_check_bad_field () =
  let p = Nfl.Parser.program "pkt0 = 0; main { pkt0.bogus_field = 1; }" in
  Alcotest.(check bool) "reports unknown packet field" true
    (List.exists
       (fun (i : Nfl.Check.issue) -> Value.str_contains ~sub:"bogus_field" i.Nfl.Check.msg)
       (Nfl.Check.program p))

let test_check_arity () =
  let p = Nfl.Parser.program "def f(a, b) { return a; } main { x = f(1); }" in
  Alcotest.(check bool) "reports arity" true
    (List.exists
       (fun (i : Nfl.Check.issue) -> Value.str_contains ~sub:"2 argument" i.Nfl.Check.msg)
       (Nfl.Check.program p));
  Alcotest.check_raises "assert_ok raises" (Failure "dummy") (fun () ->
      try Nfl.Check.assert_ok p with Failure _ -> raise (Failure "dummy"))

(* --------------------------------------------------------------- *)
(* Report                                                           *)
(* --------------------------------------------------------------- *)

let test_report_measure_sanity () =
  let e = Option.get (Nfs.Corpus.find "firewall") in
  let ex =
    Pipeline.Manager.extract (Pipeline.Manager.create ())
      ~name:"firewall" (e.Nfs.Corpus.program ())
  in
  let row =
    Report.measure ~ex ~name:"firewall" ~source:(e.Nfs.Corpus.source ())
      (e.Nfs.Corpus.program ())
  in
  Alcotest.(check bool) "slice <= stmts" true (row.Report.loc_slice <= row.Report.stmts_orig);
  Alcotest.(check bool) "path <= slice" true (row.Report.loc_path_max <= row.Report.loc_slice);
  Alcotest.(check bool) "positive loc" true (row.Report.loc_orig > 0);
  (match (row.Report.ep_orig, row.Report.ep_slice) with
  | Report.Exact o, Report.Exact s -> Alcotest.(check bool) "ep slice <= orig" true (s <= o)
  | _ -> ());
  (* row renders without exceptions and aligns with the header. *)
  Alcotest.(check bool) "renders" true (String.length (Report.row_to_string row) > 40)

let test_bound_int_pp () =
  Alcotest.(check string) "exact" "42" (Fmt.str "%a" Report.pp_bound_int (Report.Exact 42));
  Alcotest.(check string) "more" ">1000" (Fmt.str "%a" Report.pp_bound_int (Report.More_than 1000))

(* --------------------------------------------------------------- *)
(* Model_interp symbol reads                                         *)
(* --------------------------------------------------------------- *)

(* Under a non-default packet variable (["in"], as the verifier's
   symbolic classes use), only names strictly under ["in."] read the
   packet: a store variable sharing the prefix's leading letters, the
   bare prefix and another packet variable's names read the store. An
   unknown field under the prefix is unresolved, so a literal over it
   is false whatever its polarity. *)
let test_interp_reads_under_pkt_var () =
  let pkt =
    Packet.Pkt.make ~ip_src:(Packet.Addr.ip 10 0 0 1) ~ip_dst:(Packet.Addr.ip 3 3 3 3) ~sport:1234
      ~dport:80 ~seq:5 ~payload:"GET /" ()
  in
  let store =
    Model_interp.Smap.(
      empty
      |> add "inbound" (Value.Int 7)
      |> add "in" (Value.Int 9)
      |> add "in." (Value.Int 3)
      |> add "pkt.dport" (Value.Int 443))
  in
  let v = Alcotest.testable Value.pp Value.equal in
  let ev name = Model_interp.eval ~pkt_var:"in" store pkt (Sexpr.sym name) in
  List.iter
    (fun f -> Alcotest.check v ("in." ^ f) (Value.Int (Packet.Pkt.get_int pkt f)) (ev ("in." ^ f)))
    Packet.Headers.int_fields;
  Alcotest.check v "in.payload" (Value.Str "GET /") (ev "in.payload");
  Alcotest.check v "inbound reads the store" (Value.Int 7) (ev "inbound");
  Alcotest.check v "in reads the store" (Value.Int 9) (ev "in");
  Alcotest.check v "the bare prefix reads the store" (Value.Int 3) (ev "in.");
  Alcotest.check v "pkt.dport reads the store" (Value.Int 443) (ev "pkt.dport");
  Alcotest.check v "default pkt_var reads the packet" (Value.Int 80)
    (Model_interp.eval store pkt (Sexpr.sym "pkt.dport"));
  Alcotest.check_raises "unknown field" (Model_interp.Unresolved "in.bogus") (fun () ->
      ignore (ev "in.bogus"));
  let holds name n positive =
    Model_interp.literal_holds ~pkt_var:"in" store pkt
      (Solver.lit (Sexpr.mk_bin Nfl.Ast.Eq (Sexpr.sym name) (Sexpr.int n)) positive)
  in
  Alcotest.(check bool) "in.dport = 80" true (holds "in.dport" 80 true);
  Alcotest.(check bool) "not (in.dport = 80)" false (holds "in.dport" 80 false);
  Alcotest.(check bool) "inbound = 7" true (holds "inbound" 7 true);
  Alcotest.(check bool) "in.bogus = 1" false (holds "in.bogus" 1 true);
  Alcotest.(check bool) "not (in.bogus = 1)" false (holds "in.bogus" 1 false)

let suite =
  [
    Alcotest.test_case "config groups partition" `Quick test_config_groups_partition_entries;
    Alcotest.test_case "matched fields (lb)" `Quick test_matched_fields_lb;
    Alcotest.test_case "modified fields (snort)" `Quick test_modified_fields_snort_empty;
    Alcotest.test_case "is_stateful" `Quick test_is_stateful;
    Alcotest.test_case "rendering" `Quick test_rendering_mentions_key_parts;
    Alcotest.test_case "literal classification invariants" `Quick test_entries_have_consistent_literals;
    Alcotest.test_case "state slice ⊆ pkt slice" `Quick test_state_slice_contained;
    Alcotest.test_case "check: corpus clean" `Quick test_check_clean_corpus;
    Alcotest.test_case "check: unbound variable" `Quick test_check_unbound_variable;
    Alcotest.test_case "check: unknown function" `Quick test_check_unknown_function;
    Alcotest.test_case "check: bad packet field" `Quick test_check_bad_field;
    Alcotest.test_case "check: arity" `Quick test_check_arity;
    Alcotest.test_case "report: measure sanity" `Quick test_report_measure_sanity;
    Alcotest.test_case "report: bound pp" `Quick test_bound_int_pp;
    Alcotest.test_case "interp: reads under a non-default pkt_var" `Quick
      test_interp_reads_under_pkt_var;
  ]
