open Nfactor

let extract_nf name =
  let entry = Option.get (Nfs.Corpus.find name) in
  Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name (entry.Nfs.Corpus.program ())

let test_firewall_fsm () =
  let ex = extract_nf "firewall" in
  let fsm = Fsm.of_extraction ex in
  (* Distinct per-flow situations: no-state, pinhole-present,
     no-pinhole variants. *)
  Alcotest.(check bool) "at least 2 states" true (Fsm.state_count fsm >= 2);
  Alcotest.(check bool) "has transitions" true (Fsm.transition_count fsm >= 2);
  Alcotest.(check bool) "initial state identified" true (fsm.Fsm.initial <> None);
  (* The outbound entry installs the pinhole: some transition changes
     state (from != to). *)
  let changing =
    List.filter
      (fun (tr : Fsm.transition) ->
        match tr.Fsm.to_state with Some t -> t <> tr.Fsm.from_state | None -> false)
      fsm.Fsm.transitions
  in
  Alcotest.(check bool) "state-changing transition" true (changing <> [])

let test_lb_fsm_two_states () =
  let ex = extract_nf "lb" in
  let fsm = Fsm.of_extraction ex in
  (* A flow is either unmapped or mapped: the signatures partition into
     a handful of abstract states, all reachable. *)
  let reach = Fsm.reachable_states fsm in
  Alcotest.(check bool) "multiple reachable states" true (List.length reach >= 2)

let test_balance_fsm_connection_lifecycle () =
  let ex = extract_nf "balance" in
  let fsm = Fsm.of_extraction ex in
  (* The unfolded TCP machine: unknown -> SYN_RCVD -> ESTABLISHED ->
     CLOSE_WAIT -> gone; at least 4 abstract states. *)
  Alcotest.(check bool) "TCP lifecycle states" true (Fsm.state_count fsm >= 4);
  (* Teardown transitions forget the flow (to_state resolves to the
     no-state abstract state or None). *)
  Alcotest.(check bool) "has transitions" true (Fsm.transition_count fsm >= 6)

let test_dot_rendering () =
  let ex = extract_nf "firewall" in
  let fsm = Fsm.of_extraction ex in
  let dot = Fsm.to_dot ~name:"firewall" fsm in
  Alcotest.(check bool) "digraph header" true
    (Symexec.Value.str_contains ~sub:"digraph firewall" dot);
  Alcotest.(check bool) "edges rendered" true (Symexec.Value.str_contains ~sub:"->" dot);
  (* Every state appears. *)
  List.iter
    (fun (s : Fsm.state) ->
      Alcotest.(check bool)
        (Printf.sprintf "S%d in dot" s.Fsm.id)
        true
        (Symexec.Value.str_contains ~sub:(Printf.sprintf "S%d" s.Fsm.id) dot))
    fsm.Fsm.states

let test_fsm_deterministic () =
  let ex = extract_nf "nat" in
  let a = Fsm.of_extraction ex and b = Fsm.of_extraction ex in
  Alcotest.(check string) "stable rendering" (Fmt.str "%a" Fsm.pp a) (Fmt.str "%a" Fsm.pp b)

let suite =
  [
    Alcotest.test_case "firewall FSM" `Quick test_firewall_fsm;
    Alcotest.test_case "LB FSM states" `Quick test_lb_fsm_two_states;
    Alcotest.test_case "balance TCP lifecycle" `Quick test_balance_fsm_connection_lifecycle;
    Alcotest.test_case "DOT rendering" `Quick test_dot_rendering;
    Alcotest.test_case "deterministic" `Quick test_fsm_deterministic;
  ]
