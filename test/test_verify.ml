open Nfactor
open Verify
open Symexec

let extract_nf name =
  let entry = Option.get (Nfs.Corpus.find name) in
  Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name (entry.Nfs.Corpus.program ())

let pkt ?(flags = Packet.Headers.ack) ?(payload = "") ~src ~sport ~dst ~dport () =
  Packet.Pkt.make ~ip_src:(Packet.Addr.of_string src) ~ip_dst:(Packet.Addr.of_string dst) ~sport
    ~dport ~tcp_flags:flags ~payload ()

(* --------------------------------------------------------------- *)
(* Network / reachability                                           *)
(* --------------------------------------------------------------- *)

let test_single_node_chain () =
  let ex = extract_nf "firewall" in
  let c = Network.chain [ Network.node_of_extraction "fw" ex ] in
  (* Unsolicited inbound to a closed port: dropped. *)
  let bad = pkt ~src:"8.8.8.8" ~sport:1 ~dst:"192.168.1.10" ~dport:2222 () in
  let outs, trace = Network.push c bad in
  Alcotest.(check int) "blocked" 0 (List.length outs);
  Alcotest.(check int) "one hop" 1 (List.length trace);
  (* Outbound opens the pinhole; now the reverse passes. *)
  let out_p = pkt ~src:"192.168.1.10" ~sport:2222 ~dst:"8.8.8.8" ~dport:1 () in
  let _ = Network.push c out_p in
  let outs2, _ = Network.push c (pkt ~src:"8.8.8.8" ~sport:1 ~dst:"192.168.1.10" ~dport:2222 ()) in
  Alcotest.(check int) "pinhole now open" 1 (List.length outs2)

let test_nat_firewall_chain () =
  (* inside -> FW -> NAT -> outside, with stateful return path. *)
  let fw = Network.node_of_extraction "fw" (extract_nf "firewall") in
  let nat = Network.node_of_extraction "nat" (extract_nf "nat") in
  (* NAT's inside net is 10/8, firewall's 192.168/16 — use an
     inside host in both nets? They differ; chain them anyway and use
     the NAT-inside host: firewall treats 10.x as outside, so for this
     chain put NAT first. *)
  let c = Network.chain [ nat ] in
  let egress = pkt ~src:"10.1.1.1" ~sport:7777 ~dst:"8.8.8.8" ~dport:53 () in
  let outs, _ = Network.push c egress in
  Alcotest.(check int) "translated out" 1 (List.length outs);
  let o = List.hd outs in
  Alcotest.(check string) "src is NAT" "5.5.5.5" (Packet.Addr.to_string o.Packet.Pkt.ip_src);
  ignore fw

let test_reaches () =
  let ex = extract_nf "lb" in
  let c = Network.chain [ Network.node_of_extraction "lb" ex ] in
  let client = pkt ~src:"10.0.0.7" ~sport:1234 ~dst:"3.3.3.3" ~dport:80 () in
  let r = Network.reaches c client ~dst:(Packet.Addr.of_string "1.1.1.1") in
  Alcotest.(check int) "delivered to backend 1" 1 (List.length r.Network.delivered)

let test_survey_invariant () =
  (* Invariant: no unsolicited external packet may emerge with an
     internal destination through the firewall. *)
  let ex = extract_nf "firewall" in
  let c = Network.chain [ Network.node_of_extraction "fw" ex ] in
  let inside_net = Packet.Addr.of_string "192.168.0.0" in
  let probes =
    List.concat_map
      (fun dport ->
        [ pkt ~src:"8.8.8.8" ~sport:999 ~dst:"192.168.1.1" ~dport ();
          pkt ~src:"9.9.9.9" ~sport:998 ~dst:"192.168.44.2" ~dport () ])
      [ 22; 23; 2222; 8443 ]
  in
  let violations =
    Network.survey c ~pkts:probes ~violates:(fun ~input:_ ~output ->
        Packet.Addr.in_prefix output.Packet.Pkt.ip_dst ~network:inside_net ~prefix:16
        && output.Packet.Pkt.ip_proto <> 0)
  in
  Alcotest.(check int) "no leaks on closed ports" 0 (List.length violations);
  (* Port 80 is deliberately open: the survey must catch it as a
     "violation" of the strict invariant. *)
  let open_probe = [ pkt ~src:"8.8.8.8" ~sport:999 ~dst:"192.168.1.1" ~dport:80 () ] in
  let v2 =
    Network.survey c ~pkts:open_probe ~violates:(fun ~input:_ ~output ->
        Packet.Addr.in_prefix output.Packet.Pkt.ip_dst ~network:inside_net ~prefix:16)
  in
  Alcotest.(check int) "open port detected" 1 (List.length v2)

(* --------------------------------------------------------------- *)
(* Chain composition                                                 *)
(* --------------------------------------------------------------- *)

let test_lb_modifies_fw_matches () =
  let lb = (extract_nf "lb").Extract.model in
  let fw = (extract_nf "firewall").Extract.model in
  (* The LB rewrites all four tuple fields; the firewall matches on
     them (pinhole keys and service ports). *)
  let modified = Model.modified_fields lb in
  List.iter
    (fun f -> Alcotest.(check bool) (f ^ " modified by LB") true (List.mem f modified))
    [ "ip_src"; "ip_dst"; "sport"; "dport" ];
  let matched = Model.matched_fields fw in
  Alcotest.(check bool) "fw matches dport" true (List.mem "dport" matched);
  let conflicts = Chain.conflicts_of_order [ ("lb", lb); ("fw", fw) ] in
  Alcotest.(check bool) "LB before FW interferes" true (conflicts <> []);
  let reverse = Chain.conflicts_of_order [ ("fw", fw); ("lb", lb) ] in
  Alcotest.(check int) "FW before LB clean" 0 (List.length reverse);
  (* snort's forwarding model matches only decode fields, so the LB
     does not interfere with it in either order. *)
  let ids = (extract_nf "snort").Extract.model in
  Alcotest.(check int) "LB/IDS independent" 0
    (List.length (Chain.conflicts_of_order [ ("lb", lb); ("ids", ids) ]))

let test_compose_fw_ids_with_lb () =
  (* The paper's example: {FW, IDS} composed with {LB}. The best
     interleavings keep the LB last. *)
  let fw = ("fw", (extract_nf "firewall").Extract.model) in
  let ids = ("ids", (extract_nf "snort").Extract.model) in
  let lb = ("lb", (extract_nf "lb").Extract.model) in
  let rankings = Chain.compose_chains [ fw; ids ] [ lb ] in
  Alcotest.(check int) "three interleavings" 3 (List.length rankings);
  let best = List.hd rankings in
  Alcotest.(check (list string)) "fw, ids, lb wins" [ "fw"; "ids"; "lb" ] best.Chain.order;
  Alcotest.(check int) "winning order conflict-free" 0 (List.length best.Chain.conflicts)

let test_safe_orders () =
  let fw = ("fw", (extract_nf "firewall").Extract.model) in
  let lb = ("lb", (extract_nf "lb").Extract.model) in
  let safe = Chain.safe_orders [ fw; lb ] in
  (* The LB rewrites what the firewall matches, so the only safe order
     keeps the firewall first. *)
  Alcotest.(check int) "exactly one safe order" 1 (List.length safe);
  Alcotest.(check (list string)) "fw before lb" [ "fw"; "lb" ] (List.hd safe).Chain.order

(* --------------------------------------------------------------- *)
(* Test generation                                                   *)
(* --------------------------------------------------------------- *)

(* Entry indices whose config predicates are false under the
   extraction-time configuration: they belong to the other Figure-6
   tables and can never fire. *)
let config_unreachable ex =
  let store = Model_interp.initial_store ex in
  let reachable (e : Model.entry) =
    List.for_all
      (fun l ->
        match Sexpr.view (Testgen.resolve_config store l).Solver.atom with
        | Sexpr.Const (Value.Bool b) -> b = l.Solver.positive
        | _ -> true)
      e.Model.config
  in
  List.concat
    (List.mapi
       (fun i e -> if reachable e then [] else [ i ])
       ex.Extract.model.Model.entries)

let test_cover_firewall () =
  let ex = extract_nf "firewall" in
  let c = Testgen.cover ex in
  (* Every entry reachable under the active configuration is drivable;
     the only uncovered entries belong to the other-config tables. *)
  Alcotest.(check (list int)) "uncovered = config-unreachable" (config_unreachable ex)
    c.Testgen.uncovered;
  (* Stateful sequencing: the pinhole entry fires after the outbound
     packet, so the sequence is non-trivially ordered. *)
  Alcotest.(check bool) "multiple packets" true (List.length c.Testgen.pkts >= 3)

let test_cover_lb () =
  let ex = extract_nf "lb" in
  let c = Testgen.cover ex in
  (* mode=hash entries are unreachable under the concrete mode=1
     config; everything else must be covered. *)
  let m = ex.Extract.model in
  let reachable_under_rr =
    List.filteri
      (fun _i (e : Model.entry) ->
        (* entries whose config is satisfiable with mode=1 *)
        let store = Model_interp.initial_store ex in
        List.for_all
          (fun l ->
            match Sexpr.view (Testgen.resolve_config store l).Solver.atom with
            | Sexpr.Const (Value.Bool b) -> b = l.Solver.positive
            | _ -> true)
          e.Model.config)
      m.Model.entries
  in
  Alcotest.(check bool) "covers at least the RR-reachable entries" true
    (List.length c.Testgen.covered >= List.length reachable_under_rr - 1);
  (* The "existing connection" entry requires a prior packet: check
     some generated packet repeats a flow. *)
  Alcotest.(check bool) "sequence has >= 3 packets" true (List.length c.Testgen.pkts >= 3)

(* The decoded overlay clamps out-of-range values (ports to 16 bits,
   other integer fields to 32) and keeps only "<pkt_var>.<field>"
   symbols that name a header field with a value of its kind, in
   symbol order; the overlay writes exactly those fields. *)
let test_overlay_fields () =
  let asg =
    List.fold_left
      (fun m (k, v) -> Solver.Smap.add k v m)
      Solver.Smap.empty
      [
        ("in.sport", Value.Int 70000);
        ("in.dport", Value.Int (-1));
        ("in.ip_ttl", Value.Int ((1 lsl 33) + 300));
        ("in.payload", Value.Str "GET");
        ("in.flow_id", Value.Int 7);
        ("in.seq", Value.Str "not an int");
        ("out.ack", Value.Int 9);
        ("in", Value.Int 1);
      ]
  in
  let fields = Testgen.overlay_fields ~pkt_var:"in" asg in
  Alcotest.(check (list string))
    "decoded pairs, in symbol order"
    [ "dport=65535"; "ip_ttl=300"; {|payload="GET"|}; "sport=4464" ]
    (List.map (fun (f, v) -> f ^ "=" ^ Value.to_string v) fields);
  let p = Testgen.overlay ~pkt_var:"in" asg Testgen.default_base in
  let expected =
    Packet.Pkt.make ~ip_src:(Packet.Addr.ip 10 0 0 1) ~ip_dst:(Packet.Addr.ip 3 3 3 3)
      ~sport:4464 ~dport:65535 ~ip_ttl:300 ~payload:"GET" ()
  in
  Alcotest.(check string) "overlay on the default base" (Packet.Pkt.to_string expected)
    (Packet.Pkt.to_string p);
  Alcotest.(check bool) "equal packets" true (Packet.Pkt.equal expected p)

let test_compliance_replay () =
  List.iter
    (fun name ->
      let ex = extract_nf name in
      let c = Testgen.cover ex in
      let v = Testgen.compliance ex c in
      Alcotest.(check bool) (name ^ ": replay matches program") true (Equiv.ok v))
    [ "firewall"; "nat"; "lb"; "ratelimiter" ]

let test_reset_chain_mismatch () =
  let fw = Network.node_of_extraction "fw" (extract_nf "firewall") in
  let nat = Network.node_of_extraction "nat" (extract_nf "nat") in
  let c = Network.chain [ fw; nat ] in
  match Network.reset_chain c ~stores:[ fw.Network.store ] with
  | exception Invalid_argument msg ->
      let contains needle =
        let nl = String.length needle and hl = String.length msg in
        let rec at i = i + nl <= hl && (String.sub msg i nl = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "names the chain" true (contains "fw" && contains "nat");
      Alcotest.(check bool) "names both counts" true
        (contains "2 node(s)" && contains "1 store(s)")
  | () -> Alcotest.fail "length mismatch must raise"

let test_push_actives_cache () =
  (* The per-node actives cache must not change behavior, even when
     packets flip config bindings mid-stream (ips blocklists a source,
     which later entries read as config). Reference: the same chain
     with the cache forcibly cleared before every packet. *)
  let names = [ "ips"; "ratelimiter" ] in
  let mk () =
    Network.chain
      (List.map (fun n -> Network.node_of_extraction n (extract_nf n)) names)
  in
  let pkts = Packet.Traffic.random_stream ~seed:13 ~n:1500 () in
  let cached = mk () and uncached = mk () in
  List.iter
    (fun p ->
      let o1, _ = Network.push cached p in
      List.iter (fun (n : Network.node) -> n.Network.actives <- None) uncached.Network.nodes;
      let o2, _ = Network.push uncached p in
      Alcotest.(check bool) "outputs agree" true
        (List.length o1 = List.length o2 && List.for_all2 Packet.Pkt.equal o1 o2))
    pkts;
  List.iter2
    (fun (a : Network.node) (b : Network.node) ->
      Alcotest.(check bool) (a.Network.id ^ " store agrees") true
        (Model_interp.Smap.equal Value.equal a.Network.store b.Network.store))
    cached.Network.nodes uncached.Network.nodes

let suite =
  [
    Alcotest.test_case "single-node chain" `Quick test_single_node_chain;
    Alcotest.test_case "NAT egress chain" `Quick test_nat_firewall_chain;
    Alcotest.test_case "reaches backend" `Quick test_reaches;
    Alcotest.test_case "survey invariant" `Quick test_survey_invariant;
    Alcotest.test_case "LB/FW interference" `Quick test_lb_modifies_fw_matches;
    Alcotest.test_case "compose {FW,IDS} x {LB}" `Quick test_compose_fw_ids_with_lb;
    Alcotest.test_case "safe orders" `Quick test_safe_orders;
    Alcotest.test_case "testgen covers firewall" `Quick test_cover_firewall;
    Alcotest.test_case "testgen covers LB" `Quick test_cover_lb;
    Alcotest.test_case "testgen overlay decodes and clamps" `Quick test_overlay_fields;
    Alcotest.test_case "compliance replay" `Quick test_compliance_replay;
    Alcotest.test_case "reset_chain length mismatch diagnostics" `Quick test_reset_chain_mismatch;
    Alcotest.test_case "push actives cache is transparent" `Quick test_push_actives_cache;
  ]
