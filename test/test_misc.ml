(* Coverage for remaining corners: Network chain helpers, exploration
   error/truncation reporting, interpreter loop semantics, and the
   transform pattern-matcher's diagnostics. *)

open Nfactor
open Symexec

let extract_nf name =
  let entry = Option.get (Nfs.Corpus.find name) in
  Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name (entry.Nfs.Corpus.program ())

let pkt ~src ~sport ~dst ~dport =
  Packet.Pkt.make ~ip_src:(Packet.Addr.of_string src) ~ip_dst:(Packet.Addr.of_string dst) ~sport
    ~dport ()

(* --------------------------------------------------------------- *)
(* Network                                                          *)
(* --------------------------------------------------------------- *)

let test_network_run_and_reset () =
  let ex = extract_nf "firewall" in
  let node = Verify.Network.node_of_extraction "fw" ex in
  let c = Verify.Network.chain [ node ] in
  let initial = node.Verify.Network.store in
  let opener = pkt ~src:"192.168.1.10" ~sport:1 ~dst:"8.8.8.8" ~dport:2 in
  let probe = pkt ~src:"8.8.8.8" ~sport:2 ~dst:"192.168.1.10" ~dport:1 in
  let results = Verify.Network.run c [ opener; probe ] in
  Alcotest.(check (list int)) "stateful run" [ 1; 1 ]
    (List.map (fun (outs, _) -> List.length outs) results);
  (* Reset wipes the pinhole. *)
  Verify.Network.reset_chain c ~stores:[ initial ];
  let outs, _ = Verify.Network.push c probe in
  Alcotest.(check int) "after reset the pinhole is gone" 0 (List.length outs)

let test_network_two_hop_rewrite () =
  (* mirror then snort: the mirrored copy and the original both pass
     the tap, so one input yields two chain outputs. *)
  let c =
    Verify.Network.chain
      [
        Verify.Network.node_of_extraction "mirror" (extract_nf "mirror");
        Verify.Network.node_of_extraction "snort" (extract_nf "snort");
      ]
  in
  let outs, trace = Verify.Network.push c (pkt ~src:"10.0.0.1" ~sport:5 ~dst:"3.3.3.3" ~dport:80) in
  Alcotest.(check int) "two packets delivered" 2 (List.length outs);
  Alcotest.(check int) "two hops recorded" 2 (List.length trace);
  Alcotest.(check string) "hop order" "mirror"
    (List.hd trace).Verify.Network.node_id

(* --------------------------------------------------------------- *)
(* Exploration corner cases                                         *)
(* --------------------------------------------------------------- *)

let parse_main src = (Nfl.Parser.program src).Nfl.Ast.main

let sym_env = Explore.Smap.singleton "pkt" (Explore.sym_pkt "pkt")

let test_unsupported_constructs_raise () =
  let cases =
    [
      (* write through a symbolic list index *)
      ( "main { xs = [1, 2]; xs[pkt.dport] = 3; send(pkt); }",
        "symbolic list write" );
      (* user call that survived (no inlining applied here) *)
      ("main { frob(pkt); send(pkt); }", "call");
    ]
  in
  List.iter
    (fun (src, label) ->
      match Explore.block ~env:sym_env (parse_main src) with
      | exception Explore.Unsupported _ -> ()
      | _ -> Alcotest.failf "expected Unsupported for %s" label)
    cases

let test_step_budget_truncates () =
  let b = parse_main "main { i = 0; while (i < 1000000) { i = i + 1; } send(pkt); }" in
  let paths, stats =
    Explore.block
      ~config:{ Explore.default_config with Explore.max_steps = 100; Explore.loop_bound = 1000 }
      ~env:sym_env b
  in
  Alcotest.(check bool) "truncated recorded" true (stats.Explore.truncated_paths >= 1);
  Alcotest.(check bool) "truncated paths flagged" true
    (List.exists (fun (p : Explore.path) -> p.Explore.truncated) paths)

let test_nested_dict_forks_consistent () =
  (* The same membership atom appearing twice cannot fork into four
     paths: the second test is decided by the path condition. *)
  let b =
    parse_main
      {|main { k = pkt.ip_src;
              a = 0; b = 0;
              if (k in tbl) { a = 1; }
              if (k in tbl) { b = 1; }
              send(pkt); }|}
  in
  let env = Explore.Smap.add "tbl" (Explore.Dictv (Sexpr.dict_base "tbl")) sym_env in
  let paths, _ = Explore.block ~env b in
  Alcotest.(check int) "two consistent paths" 2 (List.length paths);
  List.iter
    (fun (p : Explore.path) ->
      let a = Explore.Smap.find "a" p.Explore.env and b = Explore.Smap.find "b" p.Explore.env in
      match (a, b) with
      | Explore.Scalar ea, Explore.Scalar eb ->
          Alcotest.(check bool) "a = b on every path" true (Sexpr.equal ea eb)
      | _ -> Alcotest.fail "scalars expected")
    paths

(* --------------------------------------------------------------- *)
(* Interpreter loop semantics                                       *)
(* --------------------------------------------------------------- *)

let test_while_loop_iterates () =
  let p =
    Nfl.Parser.program
      "acc = 0; main { i = 0; while (i < 5) { acc = acc + i; i = i + 1; } pkt = recv(); send(pkt); }"
  in
  let r = Interp.run p ~inputs:[] in
  Alcotest.(check bool) "acc = 0+1+2+3+4" true
    (Value.equal (Interp.Smap.find "acc" r.Interp.state) (Value.Int 10))

let test_for_in_over_tuple_and_list () =
  let p =
    Nfl.Parser.program
      "acc = 0; main { for x in [10, 20] { acc = acc + x; } for y in (1, 2) { acc = acc + y; } pkt = recv(); }"
  in
  let r = Interp.run p ~inputs:[] in
  Alcotest.(check bool) "sum" true (Value.equal (Interp.Smap.find "acc" r.Interp.state) (Value.Int 33))

let test_interp_del_semantics () =
  let p =
    Nfl.Parser.program
      {|d = {};
        main { d[1] = 10; del d[1]; hit = 1 in d; pkt = recv(); }|}
  in
  let r = Interp.run p ~inputs:[] in
  Alcotest.(check bool) "deleted" true
    (Value.equal (Interp.Smap.find "hit" r.Interp.state) (Value.Bool false))

(* --------------------------------------------------------------- *)
(* Transform diagnostics                                            *)
(* --------------------------------------------------------------- *)

let test_accept_fork_diagnostics () =
  let cases =
    [
      ("main { while (true) { c = accept(ls); child = fork(); } }", "no listen()");
      ("main { ls = listen(80); c = accept(ls); }", "no outer loop");
      ("main { ls = listen(80); while (true) { x = 1; } }", "no accept()");
    ]
  in
  List.iter
    (fun (src, fragment) ->
      match Nfl.Transform.match_accept_fork (Nfl.Parser.program src) with
      | exception Nfl.Transform.Not_applicable msg ->
          Alcotest.(check bool)
            (Printf.sprintf "mentions %S" fragment)
            true
            (Value.str_contains ~sub:fragment msg)
      | _ -> Alcotest.failf "pattern should not match: %s" src)
    cases

let test_fsm_reachability_portknock () =
  let fsm = Fsm.of_extraction (extract_nf "portknock") in
  let reach = Fsm.reachable_states fsm in
  Alcotest.(check bool) "multiple stages reachable" true (List.length reach >= 2)

let suite =
  [
    Alcotest.test_case "network run/reset" `Quick test_network_run_and_reset;
    Alcotest.test_case "network two-hop" `Quick test_network_two_hop_rewrite;
    Alcotest.test_case "explore: unsupported constructs" `Quick test_unsupported_constructs_raise;
    Alcotest.test_case "explore: step budget truncates" `Quick test_step_budget_truncates;
    Alcotest.test_case "explore: repeated atoms consistent" `Quick test_nested_dict_forks_consistent;
    Alcotest.test_case "interp: while iterates" `Quick test_while_loop_iterates;
    Alcotest.test_case "interp: for-in over containers" `Quick test_for_in_over_tuple_and_list;
    Alcotest.test_case "interp: del semantics" `Quick test_interp_del_semantics;
    Alcotest.test_case "transform diagnostics" `Quick test_accept_fork_diagnostics;
    Alcotest.test_case "fsm reachability (portknock)" `Quick test_fsm_reachability_portknock;
  ]
