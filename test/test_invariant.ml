(* The chain invariant verifier (lib/verify/invariant): property
   parsing, proven/violated/unknown verdicts over corpus chains, and
   the contract that every Violated verdict carries a concrete
   counterexample that reproduces both through the reference
   interpreter chain and through the compiled chain runtime. *)

open Verify

let extractions : (string, Nfactor.Extract.result) Hashtbl.t = Hashtbl.create 16

let node name =
  let ex =
    match Hashtbl.find_opt extractions name with
    | Some ex -> ex
    | None ->
        let e = Option.get (Nfs.Corpus.find name) in
        let ex =
          Pipeline.Manager.extract (Pipeline.Manager.create ())
            ~name (e.Nfs.Corpus.program ())
        in
        Hashtbl.add extractions name ex;
        ex
  in
  (name, ex.Nfactor.Extract.model, Nfactor.Model_interp.initial_store ex)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let prop s =
  match Invariant.parse_prop s with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse_prop %S: %s" s e

let test_parse () =
  (match Invariant.parse_prop "dport=80 & ip_proto=6" with
  | Ok [ a; b ] ->
      Alcotest.(check string) "field a" "dport" a.Invariant.p_field;
      Alcotest.(check string) "field b" "ip_proto" b.Invariant.p_field
  | _ -> Alcotest.fail "conjunction parse");
  (match Invariant.parse_prop "ip_dst=10.0.0.1" with
  | Ok [ p ] ->
      Alcotest.(check bool) "dotted quad" true
        (p.Invariant.p_value = Symexec.Value.Int (Packet.Addr.of_string "10.0.0.1"))
  | _ -> Alcotest.fail "dotted quad parse");
  (match Invariant.parse_prop "ip_ttl<=0" with
  | Ok [ p ] -> Alcotest.(check bool) "le" true (p.Invariant.p_cmp = Invariant.Cle)
  | _ -> Alcotest.fail "le parse");
  (match Invariant.parse_prop "bogus=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown field must not parse");
  match Invariant.parse_prop "dport" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing operator must not parse"

let test_holds_on () =
  let p =
    Packet.Pkt.make ~ip_proto:6
      ~ip_src:(Packet.Addr.of_string "10.0.0.1")
      ~ip_dst:(Packet.Addr.of_string "1.1.1.1")
      ~sport:1234 ~dport:80 ()
  in
  Alcotest.(check bool) "eq" true (Invariant.holds_on (prop "dport=80") p);
  Alcotest.(check bool) "conj" true (Invariant.holds_on (prop "dport=80&ip_proto=6") p);
  Alcotest.(check bool) "ne" false (Invariant.holds_on (prop "dport!=80") p);
  Alcotest.(check bool) "lt" true (Invariant.holds_on (prop "dport<100") p)

let test_never_reaches_proven () =
  (* snort forwards only decodable protocols, all with ttl >= 1. *)
  let o = Invariant.never_reaches [ node "snort"; node "firewall" ] (prop "ip_ttl<=0") in
  Alcotest.(check bool) "proven" true (o.Invariant.status = Invariant.Proven);
  Alcotest.(check bool) "no counterexample" true (o.Invariant.counterexample = None)

let test_never_reaches_violated () =
  let nodes = [ node "snort"; node "firewall" ] in
  let p80 = prop "dport=80" in
  let o = Invariant.never_reaches nodes p80 in
  Alcotest.(check bool) "violated" true (o.Invariant.status = Invariant.Violated);
  match o.Invariant.counterexample with
  | None -> Alcotest.fail "violation must ship a counterexample"
  | Some cex ->
      (* The counterexample replays through the reference chain... *)
      let chain =
        Verify.Network.chain
          (List.map (fun (id, m, s) -> Verify.Network.node id m s) nodes)
      in
      let outs = fst (Verify.Network.push chain cex) in
      Alcotest.(check bool) "interpreter reproduces" true
        (List.exists (Invariant.holds_on p80) outs);
      (* ...and through the compiled chain runtime. *)
      let eng = Nfactor_runtime.Chainengine.create (Nfactor_runtime.Chainplan.link nodes) in
      let compiled = Nfactor_runtime.Chainengine.step eng cex in
      Alcotest.(check bool) "compiled chain reproduces" true
        (List.exists (Invariant.holds_on p80) compiled)

let test_state_implies_drop () =
  (* Outside source to a closed port dies at the firewall under the
     empty-pinhole snapshot. *)
  let nodes = [ node "firewall"; node "nat" ] in
  let o =
    Invariant.state_implies_drop nodes ~from_:"firewall" ~to_:"firewall"
      ~cls:(prop "ip_src=8.8.8.8&dport=9999")
  in
  Alcotest.(check bool) "proven" true (o.Invariant.status = Invariant.Proven);
  (* dport=53 escapes nat untouched: violated, with a live witness. *)
  let nodes2 = [ node "nat"; node "snort" ] in
  let o2 =
    Invariant.state_implies_drop nodes2 ~from_:"nat" ~to_:"snort" ~cls:(prop "dport=53")
  in
  Alcotest.(check bool) "violated" true (o2.Invariant.status = Invariant.Violated);
  (match o2.Invariant.counterexample with
  | None -> Alcotest.fail "violation must ship a counterexample"
  | Some cex ->
      Alcotest.(check bool) "cex in class" true (Invariant.holds_on (prop "dport=53") cex);
      let eng =
        Nfactor_runtime.Chainengine.create (Nfactor_runtime.Chainplan.link nodes2)
      in
      Alcotest.(check bool) "compiled chain forwards it" true
        (Nfactor_runtime.Chainengine.step eng cex <> []));
  (* Unknown ids raise a descriptive error. *)
  match
    Invariant.state_implies_drop nodes ~from_:"nosuch" ~to_:"nat" ~cls:(prop "dport=53")
  with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the missing node" true (contains msg "nosuch")
  | _ -> Alcotest.fail "bad node id must raise"

let test_order_equiv () =
  (* Two pure per-packet filters commute (acl does NOT qualify: it
     decrements ttl, which flips snort's ttl>=1 check). *)
  let o = Invariant.order_equiv [ node "snort"; node "ips" ] [ node "ips"; node "snort" ] in
  Alcotest.(check bool) "commutes" true (o.Invariant.status = Invariant.Proven);
  (* acl decrements ttl, which flips snort's ttl check depending on
     which side of the acl it sits — orders disagree. *)
  let o2 =
    Invariant.order_equiv [ node "acl"; node "snort" ] [ node "snort"; node "acl" ]
  in
  Alcotest.(check bool) "order matters" true (o2.Invariant.status = Invariant.Violated);
  Alcotest.(check bool) "with witness" true (o2.Invariant.counterexample <> None)

let test_json () =
  let o = Invariant.never_reaches [ node "snort" ] (prop "ip_ttl<=0") in
  let j = Invariant.json_of_outcome o in
  Alcotest.(check bool) "status field" true (contains j "\"status\": \"proven\"");
  Alcotest.(check bool) "classes field" true (contains j "\"classes_checked\"")

(* Reference for [Invariant.probes]: every "in.<field>" symbol decoded
   afresh for each base, then [sort_uniq]. *)
let reference_probes lits =
  let packet_of asg base =
    Symexec.Solver.Smap.fold
      (fun name v pkt ->
        if String.length name > 3 && String.sub name 0 3 = "in." then
          let f = String.sub name 3 (String.length name - 3) in
          match v with
          | Symexec.Value.Int n when Packet.Headers.is_int_field f ->
              let n =
                if f = "sport" || f = "dport" then ((n mod 65536) + 65536) mod 65536
                else n land 0xFFFFFFFF
              in
              Packet.Pkt.set_int pkt f n
          | Symexec.Value.Str s when Packet.Headers.is_str_field f -> Packet.Pkt.set_str pkt f s
          | _ -> pkt
        else pkt)
      asg base
  in
  match Symexec.Solver.concretize lits with
  | None -> []
  | Some asg ->
      let raw =
        packet_of asg
          (Packet.Pkt.make ~ip_src:(Packet.Addr.ip 10 0 0 1) ~ip_dst:(Packet.Addr.ip 3 3 3 3)
             ~sport:40000 ~dport:80 ())
      in
      raw :: List.map (packet_of asg) Testgen.base_palette
      |> List.sort_uniq Stdlib.compare

let test_probes_match_reference () =
  List.iter
    (fun names ->
      let nodes = List.map node names in
      let classes = Symreach.classes nodes @ Symreach.classes ~drops:true nodes in
      List.iteri
        (fun i (c : Symreach.cls) ->
          let got = Invariant.probes c.Symreach.constraints in
          Alcotest.(check bool)
            (Printf.sprintf "%s class %d" (String.concat "," names) i)
            true
            (got = reference_probes c.Symreach.constraints))
        classes)
    [
      [ "snort"; "firewall" ];
      [ "acl"; "mirror" ];
      [ "mirror"; "acl" ];
      [ "lb"; "acl" ];
      [ "nat"; "snort" ];
    ]

(* perfbench's six query shapes at fixed ports and addresses. The
   outcomes were recorded from the per-class probe construction with a
   fresh config prefilter per replay; sharing probe lists and
   prefilters must reproduce them byte for byte. *)
let test_pinned_outcomes () =
  let nodes = List.map node in
  let pinned label o expected =
    Alcotest.(check string) label expected (Invariant.json_of_outcome o)
  in
  pinned "never-reaches proven"
    (Invariant.never_reaches (nodes [ "snort"; "firewall" ]) (prop "ip_ttl<=0"))
    {|{"status": "proven", "classes_checked": 4, "counterexample": null, "outputs": [], "detail": "all 4 end-to-end classes refute [ip_ttl<=0]"}|};
  pinned "never-reaches violated"
    (Invariant.never_reaches (nodes [ "snort"; "firewall" ]) (prop "dport=8080"))
    {|{"status": "violated", "classes_checked": 4, "counterexample": "icmp 192.168.1.5:40001 > 1.1.1.1:8080 [SYN] len=20 ttl=1", "outputs": ["icmp 192.168.1.5:40001 > 1.1.1.1:8080 [SYN] len=20 ttl=1"], "detail": "3 of 4 classes can emerge matching [dport=8080]; replayed counterexample emitted 1 packet(s)"}|};
  pinned "state-implies-drop proven"
    (Invariant.state_implies_drop (nodes [ "firewall"; "nat" ]) ~from_:"firewall"
       ~to_:"firewall" ~cls:(prop "ip_src=93.184.216.34&dport=9999"))
    {|{"status": "proven", "classes_checked": 4, "counterexample": null, "outputs": [], "detail": "every class matching [ip_src=1572395042 & dport=9999] at firewall is dropped by firewall (4 classes)"}|};
  pinned "state-implies-drop violated"
    (Invariant.state_implies_drop (nodes [ "nat"; "snort" ]) ~from_:"nat" ~to_:"snort"
       ~cls:(prop "dport=5353"))
    {|{"status": "violated", "classes_checked": 8, "counterexample": "icmp 10.0.0.1:40001 > 1.1.1.1:5353 [SYN] len=20 ttl=1", "outputs": ["icmp 5.5.5.5:20000 > 1.1.1.1:5353 [SYN] len=20 ttl=1"], "detail": "a packet matching [dport=5353] at nat survives to snort (1 packet(s) emitted)"}|};
  pinned "order-equiv proven"
    (Invariant.order_equiv (nodes [ "acl"; "mirror" ]) (nodes [ "mirror"; "acl" ]))
    {|{"status": "proven", "classes_checked": 12, "counterexample": null, "outputs": [], "detail": "1262 witness probes over 12 classes, identical outputs"}|};
  pinned "order-equiv violated"
    (Invariant.order_equiv (nodes [ "lb"; "acl" ]) (nodes [ "acl"; "lb" ]))
    {|{"status": "violated", "classes_checked": 2, "counterexample": "tcp 8.8.8.8:40001 > 1.1.1.1:80 [SYN] len=60 ttl=64", "outputs": [], "detail": "orders disagree on a witness: 0 vs 1 packet(s) emitted"}|}

(* A replay context hands every fresh push the snapshot's config
   prefilter, but a step that rewrites a config binding must still
   invalidate it within the push. Hand-built chain: a mirror hop emits
   two copies of each packet into a gate whose open entry forwards and
   closes the gate (a config binding), so the second copy must miss. *)
let test_replay_config_rewrite () =
  let open Symexec in
  let model name ~cfg_vars entries =
    { Nfactor.Model.nf_name = name; pkt_var = "pkt"; cfg_vars; ois_vars = []; entries }
  in
  let entry ?(config = []) ?(update = []) action =
    {
      Nfactor.Model.config;
      flow_match = [];
      state_match = [];
      residual_match = [];
      pkt_action = action;
      state_update = update;
      path_sids = [];
      truncated = false;
    }
  in
  let is_open v =
    Solver.lit (Sexpr.mk_bin Nfl.Ast.Eq (Sexpr.sym "open") (Sexpr.const (Value.Int v))) true
  in
  let mirror =
    model "mirror" ~cfg_vars:[]
      [ entry (Nfactor.Model.Forward [ []; [ ("dport", Sexpr.const (Value.Int 9999)) ] ]) ]
  in
  let gate =
    model "gate" ~cfg_vars:[ "open" ]
      [
        entry ~config:[ is_open 1 ]
          ~update:[ ("open", Nfactor.Model.Set_scalar (Sexpr.const (Value.Int 0))) ]
          (Nfactor.Model.Forward [ [] ]);
        entry ~config:[ is_open 0 ] Nfactor.Model.Drop;
      ]
  in
  let nodes =
    [
      ("mirror", mirror, Nfactor.Model_interp.Smap.empty);
      ("gate", gate, Nfactor.Model_interp.Smap.singleton "open" (Value.Int 1));
    ]
  in
  let replay = Network.replay nodes in
  let push p =
    fst (Network.push (Network.chain (List.map (fun (id, m, s) -> Network.node id m s) nodes)) p)
  in
  List.iter
    (fun p ->
      let replayed = replay p in
      Alcotest.(check int) "second copy misses" 1 (List.length replayed);
      Alcotest.(check bool) "the first copy passes" true (Packet.Pkt.equal p (List.hd replayed));
      Alcotest.(check bool) "replay == push on a fresh chain" true
        (List.equal Packet.Pkt.equal (push p) replayed))
    (List.filteri (fun i _ -> i mod 500 = 0) Testgen.base_palette)

let suite =
  [
    Alcotest.test_case "property parsing" `Quick test_parse;
    Alcotest.test_case "concrete property evaluation" `Quick test_holds_on;
    Alcotest.test_case "never_reaches: proven" `Quick test_never_reaches_proven;
    Alcotest.test_case "never_reaches: violated with replaying counterexample" `Quick
      test_never_reaches_violated;
    Alcotest.test_case "state_implies_drop: proven, violated, bad ids" `Quick
      test_state_implies_drop;
    Alcotest.test_case "order_equiv: commuting and non-commuting chains" `Quick
      test_order_equiv;
    Alcotest.test_case "outcome JSON" `Quick test_json;
    Alcotest.test_case "probes equal the per-base sort_uniq construction" `Quick
      test_probes_match_reference;
    Alcotest.test_case "pinned outcomes of the six benchmark query shapes" `Quick
      test_pinned_outcomes;
    Alcotest.test_case "replay context re-decides config after a rewrite" `Quick
      test_replay_config_rewrite;
  ]
