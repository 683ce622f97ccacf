open Nfactor
open Symexec

let program () =
  Nfl.Transform.canonicalize ((Option.get (Nfs.Corpus.find "portknock")).Nfs.Corpus.program ())

let extract () =
  Pipeline.Manager.extract (Pipeline.Manager.create ())
    ~name:"portknock" ((Option.get (Nfs.Corpus.find "portknock")).Nfs.Corpus.program ())

let pkt ~src ~dport =
  Packet.Pkt.make ~ip_src:(Packet.Addr.of_string src) ~ip_dst:(Packet.Addr.of_string "3.3.3.3")
    ~sport:4242 ~dport ()

let per_input inputs =
  let r = Interp.run (program ()) ~inputs in
  List.map List.length r.Interp.per_input

let test_correct_sequence_unlocks () =
  Alcotest.(check (list int)) "knocks absorbed, ssh passes"
    [ 0; 0; 0; 1 ]
    (per_input [ pkt ~src:"1.1.1.1" ~dport:7000; pkt ~src:"1.1.1.1" ~dport:8000;
                 pkt ~src:"1.1.1.1" ~dport:9000; pkt ~src:"1.1.1.1" ~dport:22 ])

let test_wrong_order_resets () =
  Alcotest.(check (list int)) "out-of-order knock resets"
    [ 0; 0; 0; 0 ]
    (per_input [ pkt ~src:"1.1.1.1" ~dport:7000; pkt ~src:"1.1.1.1" ~dport:9000;
                 pkt ~src:"1.1.1.1" ~dport:9000; pkt ~src:"1.1.1.1" ~dport:22 ])

let test_no_knock_denied () =
  Alcotest.(check (list int)) "protected denied" [ 0 ] (per_input [ pkt ~src:"1.1.1.1" ~dport:22 ]);
  Alcotest.(check (list int)) "other traffic passes" [ 1 ] (per_input [ pkt ~src:"1.1.1.1" ~dport:80 ])

let test_per_source_isolation () =
  (* One source knocking does not unlock another. *)
  Alcotest.(check (list int)) "isolation"
    [ 0; 0; 0; 0 ]
    (per_input [ pkt ~src:"1.1.1.1" ~dport:7000; pkt ~src:"1.1.1.1" ~dport:8000;
                 pkt ~src:"1.1.1.1" ~dport:9000; pkt ~src:"2.2.2.2" ~dport:22 ])

let test_model_and_differential () =
  let ex = extract () in
  Alcotest.(check (list string)) "stage is the state" [ "stage" ]
    ex.Extract.model.Model.ois_vars;
  let v = Equiv.random_testing ~seed:5150 ~trials:1000 ex in
  Alcotest.(check int) "no mismatches" 0 (List.length v.Equiv.mismatches);
  Alcotest.(check bool) "path sets match" true (Equiv.paths_match ex)

let test_knock_protocol_via_model () =
  (* Drive the model interpreter through the protocol. *)
  let ex = extract () in
  let m = ex.Extract.model in
  let store = ref (Model_interp.initial_store ex) in
  let step p =
    let r = Model_interp.step m !store p in
    store := r.Model_interp.store;
    List.length r.Model_interp.outputs
  in
  Alcotest.(check (list int)) "model follows protocol"
    [ 0; 0; 0; 1 ]
    (List.map step
       [ pkt ~src:"5.5.5.5" ~dport:7000; pkt ~src:"5.5.5.5" ~dport:8000;
         pkt ~src:"5.5.5.5" ~dport:9000; pkt ~src:"5.5.5.5" ~dport:22 ])

let test_fsm_recovers_stages () =
  let ex = extract () in
  let fsm = Fsm.of_extraction ex in
  (* unknown, stage1, stage2, unlocked (and negative variants) — the
     machine must expose at least 4 abstract states with transitions
     between distinct states. *)
  Alcotest.(check bool) "at least 4 states" true (Fsm.state_count fsm >= 4);
  let changing =
    List.filter
      (fun (tr : Fsm.transition) ->
        match tr.Fsm.to_state with Some t -> t <> tr.Fsm.from_state | None -> true)
      fsm.Fsm.transitions
  in
  Alcotest.(check bool) "protocol transitions present" true (List.length changing >= 2)

let suite =
  [
    Alcotest.test_case "correct sequence unlocks" `Quick test_correct_sequence_unlocks;
    Alcotest.test_case "wrong order resets" `Quick test_wrong_order_resets;
    Alcotest.test_case "no knock denied / others pass" `Quick test_no_knock_denied;
    Alcotest.test_case "per-source isolation" `Quick test_per_source_isolation;
    Alcotest.test_case "model + differential" `Quick test_model_and_differential;
    Alcotest.test_case "knock protocol via model" `Quick test_knock_protocol_via_model;
    Alcotest.test_case "FSM recovers stages" `Quick test_fsm_recovers_stages;
  ]
