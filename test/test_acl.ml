open Nfactor
open Symexec

let extract () =
  Pipeline.Manager.extract (Pipeline.Manager.create ())
    ~name:"acl" ((Option.get (Nfs.Corpus.find "acl")).Nfs.Corpus.program ())

let pkt ~src =
  Packet.Pkt.make ~ip_src:(Packet.Addr.of_string src) ~ip_dst:(Packet.Addr.of_string "1.2.3.4")
    ~sport:1111 ~dport:80 ()

let test_first_match_semantics () =
  let p = Nfl.Transform.canonicalize ((Option.get (Nfs.Corpus.find "acl")).Nfs.Corpus.program ()) in
  let inputs =
    [ pkt ~src:"10.1.2.3" (* rule 1: allow *);
      pkt ~src:"192.168.9.9" (* rule 2: deny *);
      pkt ~src:"8.8.8.8" (* rule 3: allow *);
      pkt ~src:"44.44.44.44" (* no match: default deny *) ]
  in
  let r = Interp.run p ~inputs in
  Alcotest.(check (list int)) "allow/deny pattern" [ 1; 0; 1; 0 ]
    (List.map List.length r.Interp.per_input);
  (* The forwarded packets had their TTL decremented. *)
  List.iter
    (fun (o : Packet.Pkt.t) -> Alcotest.(check int) "ttl decremented" 63 o.Packet.Pkt.ip_ttl)
    r.Interp.outputs

let test_model_expands_first_match () =
  let ex = extract () in
  let m = ex.Extract.model in
  (* 3 rules + default(x2 configs) = 5 entries, stateless. *)
  Alcotest.(check int) "five entries" 5 (Model.entry_count m);
  Alcotest.(check (list string)) "stateless" [] m.Model.ois_vars;
  (* Later entries carry the negations of earlier prefixes (first-match
     expansion). *)
  let lens = List.map (fun (e : Model.entry) -> List.length e.Model.flow_match) m.Model.entries in
  Alcotest.(check (list int)) "monotone match depth" [ 1; 2; 3; 3; 3 ] (List.sort compare lens)

let test_acl_loop_in_slice () =
  let ex = extract () in
  (* The For_in rule loop must be inside the forwarding slice. *)
  let has_for_in_slice = ref false in
  Nfl.Ast.iter_program
    (fun s ->
      match s.Nfl.Ast.kind with
      | Nfl.Ast.For_in _ when List.mem s.Nfl.Ast.sid ex.Extract.union_slice ->
          has_for_in_slice := true
      | _ -> ())
    ex.Extract.program;
  Alcotest.(check bool) "rule loop kept by slicing" true !has_for_in_slice

let test_acl_differential () =
  let v = Equiv.random_testing ~seed:4242 ~trials:1000 (extract ()) in
  Alcotest.(check int) "no mismatches" 0 (List.length v.Equiv.mismatches)

let suite =
  [
    Alcotest.test_case "first-match semantics" `Quick test_first_match_semantics;
    Alcotest.test_case "model expands first-match" `Quick test_model_expands_first_match;
    Alcotest.test_case "rule loop in slice" `Quick test_acl_loop_in_slice;
    Alcotest.test_case "differential 1000" `Quick test_acl_differential;
  ]
