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
  ]
