open Nfactor
open Verify
open Symexec

let extract_nf name =
  let entry = Option.get (Nfs.Corpus.find name) in
  Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name (entry.Nfs.Corpus.program ())

let node name =
  let ex = extract_nf name in
  (name, ex.Extract.model, Model_interp.initial_store ex)

let in_sym f = Sexpr.sym ("in." ^ f)

let test_snort_classes () =
  (* snort as a tap: the forwarding classes are exactly the decodable
     protocols; outputs are unmodified. *)
  let classes = Symreach.classes [ node "snort" ] in
  Alcotest.(check int) "three forwarding classes (tcp/udp/icmp)" 3 (List.length classes);
  List.iter
    (fun (c : Symreach.cls) ->
      List.iter
        (fun (f, e) ->
          Alcotest.(check bool) (f ^ " unmodified") true (Sexpr.equal e (in_sym f)))
        c.Symreach.pkt)
    classes

let test_firewall_empty_state_classes () =
  (* With no pinholes installed, the only way in from outside is an
     open service port. *)
  let classes = Symreach.classes [ node "firewall" ] in
  (* outbound class + inbound-open-port class(es). *)
  Alcotest.(check bool) "at least two classes" true (List.length classes >= 2);
  (* No class may rewrite headers (the firewall only filters). *)
  List.iter
    (fun (c : Symreach.cls) ->
      List.iter
        (fun (f, e) ->
          Alcotest.(check bool) (f ^ " unmodified") true (Sexpr.equal e (in_sym f)))
        c.Symreach.pkt)
    classes

let test_firewall_state_dependent_reachability () =
  (* The paper's stateful-verification pitch: the same question under
     two state snapshots gives different answers. *)
  let ex = extract_nf "firewall" in
  let m = ex.Extract.model in
  let empty_store = Model_interp.initial_store ex in
  (* A store with one installed pinhole (as if 192.168.1.5:7777 had
     contacted 8.8.8.8:9999). *)
  let pinhole =
    Value.Tuple
      [
        Value.Int (Packet.Addr.of_string "192.168.1.5");
        Value.Int 7777;
        Value.Int (Packet.Addr.of_string "8.8.8.8");
        Value.Int 9999;
      ]
  in
  let store_with =
    Model_interp.Smap.add "conn_table" (Value.Dict [ (pinhole, Value.Int 1) ]) empty_store
  in
  (* Property: output headed to the inside host on the pinhole port. *)
  let property (pkt : Symreach.sym_pkt) =
    [
      Solver.lit
        (Sexpr.mk_bin Nfl.Ast.Eq (List.assoc "ip_dst" pkt)
           (Sexpr.int (Packet.Addr.of_string "192.168.1.5")))
        true;
      Solver.lit (Sexpr.mk_bin Nfl.Ast.Eq (List.assoc "dport" pkt) (Sexpr.int 7777)) true;
      (* restrict to external sources so the outbound class does not
         trivially satisfy the property *)
      Solver.lit
        (Sexpr.mk_bin Nfl.Ast.Eq (List.assoc "ip_src" pkt)
           (Sexpr.int (Packet.Addr.of_string "8.8.8.8")))
        true;
      Solver.lit (Sexpr.mk_bin Nfl.Ast.Eq (List.assoc "sport" pkt) (Sexpr.int 9999)) true;
      (* ... and to a non-service port *)
      Solver.lit (Sexpr.mk_bin Nfl.Ast.Ne (List.assoc "dport" pkt) (Sexpr.int 80)) true;
      Solver.lit (Sexpr.mk_bin Nfl.Ast.Ne (List.assoc "dport" pkt) (Sexpr.int 443)) true;
    ]
  in
  let before = Symreach.reachable [ ("fw", m, empty_store) ] ~property in
  let after = Symreach.reachable [ ("fw", m, store_with) ] ~property in
  Alcotest.(check int) "unreachable before pinhole" 0 (List.length before);
  Alcotest.(check bool) "reachable after pinhole" true (after <> [])

let test_lb_rewrites_visible () =
  (* LB classes rewrite the destination to a concrete backend. *)
  let classes = Symreach.classes [ node "lb" ] in
  let rewriting =
    List.filter
      (fun (c : Symreach.cls) ->
        not (Sexpr.equal (List.assoc "ip_dst" c.Symreach.pkt) (in_sym "ip_dst")))
      classes
  in
  Alcotest.(check bool) "rewriting classes exist" true (rewriting <> [])

let test_chain_composition_classes () =
  (* snort in front of the firewall composes transfer functions: the
     classes are the product of decodable-protocol and firewall
     classes, with the snort hop recorded first. *)
  let classes = Symreach.classes [ node "snort"; node "firewall" ] in
  Alcotest.(check bool) "classes exist" true (classes <> []);
  List.iter
    (fun (c : Symreach.cls) ->
      match c.Symreach.fired with
      | ("snort", _) :: ("firewall", _) :: [] -> ()
      | _ -> Alcotest.fail "each class fires exactly one entry per hop")
    classes

let test_classes_are_feasible_and_disjointish () =
  (* Every reported class is solver-feasible. *)
  List.iter
    (fun (c : Symreach.cls) ->
      Alcotest.(check bool) "feasible" true (Solver.check c.Symreach.constraints = Solver.Sat))
    (Symreach.classes [ node "nat" ])

(* Property (paper Section 4): with drop classes tracked, the
   end-to-end classes of a chain partition the unconstrained input
   header space — every concrete probe lands in exactly one class
   (grouping by fired path: multi-packet emits produce one class per
   snapshot over the same constraints). *)
let prop_classes_partition =
  let chains =
    [
      [ "snort"; "firewall" ];
      [ "nat"; "snort" ];
      [ "firewall"; "nat"; "snort" ];
    ]
  in
  let partitions =
    List.map (fun names -> (names, Symreach.classes ~drops:true (List.map node names))) chains
  in
  QCheck.Test.make ~name:"property: chain classes partition the input space" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Packet.Rng.create seed in
      let pkt = Packet.Traffic.random_pkt rng Packet.Traffic.default_profile in
      List.for_all
        (fun (names, classes) ->
          let matching =
            List.filter (fun c -> Symreach.satisfies c pkt) classes
            |> List.map (fun (c : Symreach.cls) -> c.Symreach.fired)
            |> List.sort_uniq compare
          in
          if List.length matching <> 1 then
            QCheck.Test.fail_reportf "packet %s lands in %d classes of [%s]"
              (Packet.Pkt.to_string pkt) (List.length matching)
              (String.concat "," names)
          else true)
        partitions)

let test_drop_classes_partition () =
  (* The drops-tracked classes include the dead ones, and the alive
     subset is exactly what the default (drops:false) view reports. *)
  let nodes = [ node "snort"; node "firewall" ] in
  let all = Symreach.classes ~drops:true nodes in
  let alive = List.filter (fun (c : Symreach.cls) -> c.Symreach.alive) all in
  let default = Symreach.classes nodes in
  Alcotest.(check int) "alive subset = default classes" (List.length default)
    (List.length alive);
  Alcotest.(check bool) "dead classes exist" true
    (List.exists (fun (c : Symreach.cls) -> not c.Symreach.alive) all);
  (* Dead classes keep the fired prefix up to the dropping entry. *)
  List.iter
    (fun (c : Symreach.cls) ->
      if not c.Symreach.alive then
        Alcotest.(check bool) "died somewhere in the chain" true
          (List.length c.Symreach.fired >= 1 && List.length c.Symreach.fired <= 2))
    all

let suite =
  [
    Alcotest.test_case "snort classes" `Quick test_snort_classes;
    Alcotest.test_case "firewall classes (empty state)" `Quick test_firewall_empty_state_classes;
    Alcotest.test_case "state-dependent reachability" `Quick test_firewall_state_dependent_reachability;
    Alcotest.test_case "LB rewrites visible" `Quick test_lb_rewrites_visible;
    Alcotest.test_case "chain composition classes" `Quick test_chain_composition_classes;
    Alcotest.test_case "class feasibility" `Quick test_classes_are_feasible_and_disjointish;
    Alcotest.test_case "drop classes complete the partition" `Quick test_drop_classes_partition;
    QCheck_alcotest.to_alcotest prop_classes_partition;
  ]
