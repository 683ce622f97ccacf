(* Extended-corpus NFs (ips, synguard) and cross-cutting integration
   properties: dynamic slicing against real traces, and semantic
   slice correctness (the residual program behaves like the original). *)

open Nfactor
open Symexec

let extract_nf name =
  let entry = Option.get (Nfs.Corpus.find name) in
  Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name (entry.Nfs.Corpus.program ())

let pkt ?(flags = Packet.Headers.ack) ?(payload = "") ~src ~sport ~dst ~dport () =
  Packet.Pkt.make ~ip_src:(Packet.Addr.of_string src) ~ip_dst:(Packet.Addr.of_string dst) ~sport
    ~dport ~tcp_flags:flags ~payload ()

(* --------------------------------------------------------------- *)
(* IPS                                                              *)
(* --------------------------------------------------------------- *)

let test_ips_semantics () =
  let p = Nfl.Transform.canonicalize ((Option.get (Nfs.Corpus.find "ips")).Nfs.Corpus.program ()) in
  let benign = pkt ~src:"10.0.0.1" ~sport:1 ~dst:"3.3.3.3" ~dport:80 ~payload:"hello" () in
  let attack = pkt ~src:"10.0.0.2" ~sport:2 ~dst:"3.3.3.3" ~dport:80 ~payload:"x /bin/sh y" () in
  let from_attacker_later = pkt ~src:"10.0.0.2" ~sport:3 ~dst:"3.3.3.3" ~dport:443 () in
  let r = Interp.run p ~inputs:[ benign; attack; from_attacker_later; benign ] in
  (* benign passes twice; attack dropped; post-attack traffic from the
     blocklisted source dropped even off the guarded port. *)
  Alcotest.(check int) "two passed" 2 (List.length r.Interp.outputs);
  Alcotest.(check (list int)) "per-input" [ 1; 0; 0; 1 ] (List.map List.length r.Interp.per_input)

let test_ips_off_port_not_inspected () =
  let p = Nfl.Transform.canonicalize ((Option.get (Nfs.Corpus.find "ips")).Nfs.Corpus.program ()) in
  (* Attack payload to a non-guarded port flows through. *)
  let attack_443 = pkt ~src:"10.0.0.9" ~sport:2 ~dst:"3.3.3.3" ~dport:443 ~payload:"/bin/sh" () in
  let r = Interp.run p ~inputs:[ attack_443 ] in
  Alcotest.(check int) "not inspected" 1 (List.length r.Interp.outputs)

let test_ips_model () =
  let ex = extract_nf "ips" in
  let m = ex.Extract.model in
  (* The blocklist is output-impacting state... *)
  Alcotest.(check (list string)) "blocked is ois" [ "blocked" ] m.Model.ois_vars;
  (* ...and unlike the IDS, signature predicates survive into the
     model's matches. *)
  let mentions_sig =
    List.exists
      (fun (e : Model.entry) ->
        List.exists
          (fun (l : Solver.literal) ->
            Sexpr.Sset.mem "pkt.payload" (Sexpr.syms l.Solver.atom))
          e.Model.flow_match)
      m.Model.entries
  in
  Alcotest.(check bool) "payload predicates in model" true mentions_sig;
  (* Some drop entry installs blocklist state. *)
  let blocking =
    List.filter
      (fun (e : Model.entry) ->
        e.Model.pkt_action = Model.Drop && e.Model.state_update <> [])
      m.Model.entries
  in
  Alcotest.(check bool) "drop+blocklist entries exist" true (blocking <> [])

let test_ips_differential () =
  let ex = extract_nf "ips" in
  let v = Equiv.random_testing ~seed:77 ~trials:1000 ex in
  Alcotest.(check int) "no mismatches" 0 (List.length v.Equiv.mismatches)

(* --------------------------------------------------------------- *)
(* Synguard                                                         *)
(* --------------------------------------------------------------- *)

let test_synguard_budget () =
  let p =
    Nfl.Transform.canonicalize ((Option.get (Nfs.Corpus.find "synguard")).Nfs.Corpus.program ())
  in
  let syn i = pkt ~flags:Packet.Headers.syn ~src:"10.0.0.1" ~sport:(1000 + i) ~dst:"3.3.3.3" ~dport:80 () in
  let r = Interp.run p ~inputs:(List.init 6 syn) in
  (* Budget 3: first three admitted, rest rejected. *)
  Alcotest.(check (list int)) "admission pattern" [ 1; 1; 1; 0; 0; 0 ]
    (List.map List.length r.Interp.per_input)

let test_synguard_completion_releases () =
  let p =
    Nfl.Transform.canonicalize ((Option.get (Nfs.Corpus.find "synguard")).Nfs.Corpus.program ())
  in
  let syn i = pkt ~flags:Packet.Headers.syn ~src:"10.0.0.1" ~sport:(1000 + i) ~dst:"3.3.3.3" ~dport:80 () in
  let ack = pkt ~flags:Packet.Headers.ack ~src:"10.0.0.1" ~sport:1000 ~dst:"3.3.3.3" ~dport:80 () in
  (* 3 SYNs fill the budget; an ACK releases one slot; a 4th SYN is
     admitted again. *)
  let r = Interp.run p ~inputs:[ syn 0; syn 1; syn 2; ack; syn 3 ] in
  Alcotest.(check (list int)) "release pattern" [ 1; 1; 1; 1; 1 ]
    (List.map List.length r.Interp.per_input)

let test_synguard_model () =
  let ex = extract_nf "synguard" in
  let m = ex.Extract.model in
  Alcotest.(check (list string)) "half_open is ois" [ "half_open" ] m.Model.ois_vars;
  (* A state update performs a decrement somewhere (slot release). *)
  let has_decrement =
    List.exists
      (fun (e : Model.entry) ->
        List.exists
          (fun (_, u) ->
            match u with
            | Model.Dict_ops ops ->
                List.exists
                  (fun (_, v) ->
                    match Option.map Sexpr.view v with
                    | Some (Sexpr.Bin (Nfl.Ast.Sub, _, _)) -> true
                    | _ -> false)
                  ops
            | Model.Set_scalar _ -> false)
          e.Model.state_update)
      m.Model.entries
  in
  Alcotest.(check bool) "decrement transition in model" true has_decrement

let test_synguard_differential () =
  let ex = extract_nf "synguard" in
  let v = Equiv.random_testing ~seed:99 ~trials:1000 ex in
  Alcotest.(check int) "random: no mismatches" 0 (List.length v.Equiv.mismatches);
  let v2 = Equiv.flow_testing ~seed:3 ~flows:30 ~data_pkts:2 ex in
  Alcotest.(check int) "flows: no mismatches" 0 (List.length v2.Equiv.mismatches)

(* --------------------------------------------------------------- *)
(* Dynamic slicing against a real trace (the paper's Figure-1
   highlighted slice is a dynamic slice of "relay the first packet
   of a flow")                                                      *)
(* --------------------------------------------------------------- *)

let test_dynamic_slice_of_lb_first_packet () =
  let p = Nfl.Transform.canonicalize (Nfs.Lb.program ()) in
  let client = pkt ~src:"10.0.0.9" ~sport:4000 ~dst:"3.3.3.3" ~dport:80 () in
  let r = Interp.run p ~inputs:[ client ] in
  let send_sid =
    Option.get
      (List.find_map
         (fun s -> if Nfl.Builtins.is_pkt_output_stmt s then Some s.Nfl.Ast.sid else None)
         (Nfl.Ast.all_stmts p))
  in
  let ctx = Slicing.Dynamic.ctx_of_block p.Nfl.Ast.main in
  let dyn = Slicing.Dynamic.slice ctx r.Interp.trace ~criterion:send_sid in
  (* The dynamic slice must include the RR selection (executed branch)
     but not the hash selection (unexecuted branch). *)
  let sid_of pred =
    List.filter_map
      (fun (s : Nfl.Ast.stmt) -> if pred s then Some s.Nfl.Ast.sid else None)
      (Nfl.Ast.all_stmts p)
  in
  let rr_update =
    sid_of (fun s ->
        match s.Nfl.Ast.kind with
        | Nfl.Ast.Assign (Nfl.Ast.L_var "rr_idx", _) -> true
        | _ -> false)
  in
  let hash_select =
    sid_of (fun s ->
        match s.Nfl.Ast.kind with
        | Nfl.Ast.Assign (_, e) -> List.mem "hash" (Nfl.Ast.expr_calls e)
        | _ -> false)
  in
  (* The first packet's forwarding depends on server selection: the
     executed RR update's sid appears in the trace and the slice keeps
     the selection chain. *)
  Alcotest.(check bool) "rr path executed" true
    (List.exists (fun sid -> List.mem sid r.Interp.trace) rr_update);
  Alcotest.(check bool) "hash path not in dynamic slice" true
    (List.for_all (fun sid -> not (Slicing.Dynamic.Iset.mem sid dyn)) hash_select);
  (* Log counters never make it into the dynamic slice either. *)
  let log_updates =
    sid_of (fun s ->
        match s.Nfl.Ast.kind with
        | Nfl.Ast.Assign (Nfl.Ast.L_var v, _) -> v = "pass_stat" || v = "drop_stat"
        | _ -> false)
  in
  Alcotest.(check bool) "log updates pruned" true
    (List.for_all (fun sid -> not (Slicing.Dynamic.Iset.mem sid dyn)) log_updates);
  (* And the dynamic slice is a subset of the static union slice. *)
  let ex = extract_nf "lb" in
  Alcotest.(check bool) "dynamic ⊆ static union" true
    (Slicing.Dynamic.Iset.for_all
       (fun sid -> List.mem sid ex.Extract.union_slice)
       dyn)

(* --------------------------------------------------------------- *)
(* Semantic slice correctness: the residual program (slice union)
   emits the same packets as the original.                           *)
(* --------------------------------------------------------------- *)

let test_residual_program_equivalent () =
  List.iter
    (fun name ->
      let ex = extract_nf name in
      let p = ex.Extract.program in
      let residual = { p with Nfl.Ast.main = Slicing.Slice.restrict_block ex.Extract.union_slice p.Nfl.Ast.main } in
      let pkts = Packet.Traffic.random_stream ~seed:1234 ~n:300 () in
      let orig = Interp.run ~max_steps:10_000_000 p ~inputs:pkts in
      let slim = Interp.run ~max_steps:10_000_000 residual ~inputs:pkts in
      Alcotest.(check int)
        (name ^ ": same output count")
        (List.length orig.Interp.outputs)
        (List.length slim.Interp.outputs);
      Alcotest.(check bool) (name ^ ": same outputs") true
        (List.for_all2 Packet.Pkt.equal orig.Interp.outputs slim.Interp.outputs))
    [ "lb"; "nat"; "firewall"; "snort"; "ratelimiter"; "ips"; "synguard" ]

let suite =
  [
    Alcotest.test_case "ips semantics" `Quick test_ips_semantics;
    Alcotest.test_case "ips off-port not inspected" `Quick test_ips_off_port_not_inspected;
    Alcotest.test_case "ips model" `Quick test_ips_model;
    Alcotest.test_case "ips differential 1000" `Quick test_ips_differential;
    Alcotest.test_case "synguard budget" `Quick test_synguard_budget;
    Alcotest.test_case "synguard completion releases" `Quick test_synguard_completion_releases;
    Alcotest.test_case "synguard model has decrement" `Quick test_synguard_model;
    Alcotest.test_case "synguard differential" `Quick test_synguard_differential;
    Alcotest.test_case "dynamic slice of LB first packet" `Quick test_dynamic_slice_of_lb_first_packet;
    Alcotest.test_case "residual slice program equivalent" `Quick test_residual_program_equivalent;
  ]
