(* Tests for the mirror NF's multi-send behaviour plus the previously
   untested Flow module. *)

open Nfactor
open Symexec

let mirror_canon () =
  Nfl.Transform.canonicalize ((Option.get (Nfs.Corpus.find "mirror")).Nfs.Corpus.program ())

let extract_mirror () =
  Pipeline.Manager.extract (Pipeline.Manager.create ())
    ~name:"mirror" ((Option.get (Nfs.Corpus.find "mirror")).Nfs.Corpus.program ())

let pkt ~dport =
  Packet.Pkt.make ~ip_src:(Packet.Addr.of_string "10.0.0.1")
    ~ip_dst:(Packet.Addr.of_string "3.3.3.3") ~sport:5555 ~dport ()

(* --------------------------------------------------------------- *)
(* Mirror semantics                                                 *)
(* --------------------------------------------------------------- *)

let test_mirror_duplicates_selected () =
  let r = Interp.run (mirror_canon ()) ~inputs:[ pkt ~dport:80; pkt ~dport:22 ] in
  Alcotest.(check (list int)) "copy+orig for :80, orig only for :22" [ 2; 1 ]
    (List.map List.length r.Interp.per_input);
  match r.Interp.outputs with
  | [ copy; orig; other ] ->
      Alcotest.(check string) "copy to collector" "7.7.7.7"
        (Packet.Addr.to_string copy.Packet.Pkt.ip_dst);
      Alcotest.(check int) "collector port" 9000 copy.Packet.Pkt.dport;
      Alcotest.(check string) "original restored" "3.3.3.3"
        (Packet.Addr.to_string orig.Packet.Pkt.ip_dst);
      Alcotest.(check int) "original port" 80 orig.Packet.Pkt.dport;
      Alcotest.(check int) "unmirrored untouched" 22 other.Packet.Pkt.dport
  | _ -> Alcotest.fail "expected three outputs"

let test_mirror_model_multi_send () =
  let ex = extract_mirror () in
  let multi =
    List.filter
      (fun (e : Model.entry) ->
        match e.Model.pkt_action with Model.Forward snaps -> List.length snaps = 2 | Model.Drop -> false)
      ex.Extract.model.Model.entries
  in
  Alcotest.(check bool) "a two-send entry exists" true (multi <> []);
  (* The first snapshot rewrites the destination to the collector, the
     second leaves it alone. *)
  (match (List.hd multi).Model.pkt_action with
  | Model.Forward [ copy; orig ] ->
      Alcotest.(check bool) "copy rewrites ip_dst" true
        (not (Sexpr.equal (List.assoc "ip_dst" copy) (Sexpr.sym "pkt.ip_dst")));
      Alcotest.(check bool) "orig keeps ip_dst" true
        (Sexpr.equal (List.assoc "ip_dst" orig) (Sexpr.sym "pkt.ip_dst"))
  | _ -> Alcotest.fail "two snapshots expected")

let test_mirror_differential () =
  let v = Equiv.random_testing ~seed:808 ~trials:1000 (extract_mirror ()) in
  Alcotest.(check int) "no mismatches" 0 (List.length v.Equiv.mismatches)

let test_mirror_serialization () =
  let m = (extract_mirror ()).Extract.model in
  let m' = Model_io.of_string (Model_io.to_string m) in
  Alcotest.(check string) "multi-send survives roundtrip" (Model.to_string m) (Model.to_string m')

(* --------------------------------------------------------------- *)
(* Flow module                                                      *)
(* --------------------------------------------------------------- *)

let ft = Alcotest.testable Packet.Flow.pp Packet.Flow.equal

let test_flow_of_pkt () =
  let p = pkt ~dport:80 in
  let f = Packet.Flow.of_pkt p in
  Alcotest.check ft "fields" (Packet.Flow.make ~src:p.Packet.Pkt.ip_src ~sport:5555 ~dst:p.Packet.Pkt.ip_dst ~dport:80) f

let test_flow_reverse_involution () =
  let f = Packet.Flow.of_pkt (pkt ~dport:80) in
  Alcotest.check ft "reverse . reverse = id" f (Packet.Flow.reverse (Packet.Flow.reverse f))

let test_flow_canonical () =
  let f = Packet.Flow.of_pkt (pkt ~dport:80) in
  let r = Packet.Flow.reverse f in
  Alcotest.check ft "same canonical both directions" (Packet.Flow.canonical f) (Packet.Flow.canonical r);
  Alcotest.check ft "canonical idempotent" (Packet.Flow.canonical f)
    (Packet.Flow.canonical (Packet.Flow.canonical f))

let test_flow_map_set () =
  let f = Packet.Flow.of_pkt (pkt ~dport:80) in
  let m = Packet.Flow.Map.singleton f 42 in
  Alcotest.(check (option int)) "map lookup" (Some 42) (Packet.Flow.Map.find_opt f m);
  Alcotest.(check (option int)) "reverse is a different key" None
    (Packet.Flow.Map.find_opt (Packet.Flow.reverse f) m);
  let s = Packet.Flow.Set.of_list [ f; Packet.Flow.reverse f; f ] in
  Alcotest.(check int) "set dedups" 2 (Packet.Flow.Set.cardinal s)

let qcheck_canonical_direction_free =
  QCheck.Test.make ~name:"flow: canonical is direction-free" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = List.hd (Packet.Traffic.random_stream ~seed ~n:1 ()) in
      let f = Packet.Flow.of_pkt p in
      Packet.Flow.equal (Packet.Flow.canonical f) (Packet.Flow.canonical (Packet.Flow.reverse f)))

let suite =
  [
    Alcotest.test_case "mirror duplicates selected" `Quick test_mirror_duplicates_selected;
    Alcotest.test_case "mirror model multi-send" `Quick test_mirror_model_multi_send;
    Alcotest.test_case "mirror differential 1000" `Quick test_mirror_differential;
    Alcotest.test_case "mirror serialization" `Quick test_mirror_serialization;
    Alcotest.test_case "flow of_pkt" `Quick test_flow_of_pkt;
    Alcotest.test_case "flow reverse involution" `Quick test_flow_reverse_involution;
    Alcotest.test_case "flow canonical" `Quick test_flow_canonical;
    Alcotest.test_case "flow map/set" `Quick test_flow_map_set;
    QCheck_alcotest.to_alcotest qcheck_canonical_direction_free;
  ]
