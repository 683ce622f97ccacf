(* The one differential replay check (lib/runtime/differential): an
   observation that differs from its reference in exactly one part
   gets a verdict that flags that part, names the first diverging
   packet or hop, and nothing else; parts one side does not observe
   are not compared. *)

open Nfactor_runtime

(* The assertion every runtime test makes through the shared check:
   [obs] must agree with [reference] in every part both observe, and a
   failure names the first diverging packet or hop. *)
let check_agree label ~reference obs =
  let v = Differential.compare ~reference obs in
  if not (Differential.ok v) then Alcotest.failf "%s: %a" label Differential.pp_verdict v

let pkt dport =
  Packet.Pkt.make ~ip_src:(Packet.Addr.ip 10 0 0 1) ~ip_dst:(Packet.Addr.ip 10 0 0 2)
    ~sport:1000 ~dport ()

let store v = Nfactor.Model_interp.Smap.singleton "x" (Symexec.Value.Int v)

let reference : Differential.t =
  {
    outputs = [| [ pkt 80 ]; []; [ pkt 81; pkt 82 ]; [ pkt 83 ] |];
    fired = Some [| Some 0; None; Some 2; Some 1 |];
    stores = [ ("fw", store 1); ("nat", store 2) ];
    counters = Some "packets 4";
  }

(* A copy: no array is shared with [reference]. *)
let copy (o : Differential.t) =
  { o with outputs = Array.copy o.outputs; fired = Option.map Array.copy o.fired }

let verdict o = Differential.compare ~reference o

let check_verdict label ~output_at ~fired_at ~store_at ~counters_agree o =
  let v = verdict o in
  Alcotest.(check (option int)) (label ^ ": output_at") output_at v.Differential.output_at;
  Alcotest.(check (option int)) (label ^ ": fired_at") fired_at v.Differential.fired_at;
  Alcotest.(check (option (pair int string)))
    (label ^ ": store_at") store_at v.Differential.store_at;
  Alcotest.(check bool) (label ^ ": counters_agree") counters_agree v.Differential.counters_agree;
  Alcotest.(check bool) (label ^ ": ok") false (Differential.ok v)

let test_agree () =
  let v = verdict (copy reference) in
  Alcotest.(check bool) "agreeing pair passes" true (Differential.ok v);
  Alcotest.(check int) "packets" 4 v.Differential.packets;
  Alcotest.(check string) "printed" "agree on 4 packets" (Fmt.str "%a" Differential.pp_verdict v)

let test_one_part_differs () =
  (let o = copy reference in
   o.outputs.(2) <- [ pkt 81 ];
   check_verdict "outputs" ~output_at:(Some 2) ~fired_at:None ~store_at:None ~counters_agree:true o;
   Alcotest.(check string) "outputs printed" "outputs differ at packet 2"
     (Fmt.str "%a" Differential.pp_verdict (verdict o)));
  (let o = copy reference in
   (Option.get o.fired).(3) <- Some 0;
   check_verdict "fired" ~output_at:None ~fired_at:(Some 3) ~store_at:None ~counters_agree:true o);
  (let o = { (copy reference) with stores = [ ("fw", store 1); ("nat", store 3) ] } in
   check_verdict "store" ~output_at:None ~fired_at:None ~store_at:(Some (1, "nat"))
     ~counters_agree:true o;
   Alcotest.(check string) "store printed" "store of hop 1 (nat) differs"
     (Fmt.str "%a" Differential.pp_verdict (verdict o)));
  let o = { (copy reference) with counters = Some "packets 5" } in
  check_verdict "counters" ~output_at:None ~fired_at:None ~store_at:None ~counters_agree:false o

(* A packet or hop present on one side only differs; a part one side
   does not observe is not compared. *)
let test_missing_parts () =
  let short = { (copy reference) with outputs = Array.sub reference.outputs 0 3 } in
  check_verdict "dropped packet" ~output_at:(Some 3) ~fired_at:None ~store_at:None
    ~counters_agree:true short;
  let one_hop = { (copy reference) with stores = [ ("fw", store 1) ] } in
  check_verdict "dropped hop" ~output_at:None ~fired_at:None ~store_at:(Some (1, "nat"))
    ~counters_agree:true one_hop;
  let unobserved = { (copy reference) with fired = None; counters = None } in
  Alcotest.(check bool) "no fired entries or counters" true (Differential.ok (verdict unobserved))

let suite =
  [
    Alcotest.test_case "agreeing observations pass" `Quick test_agree;
    Alcotest.test_case "each differing part is flagged and located" `Quick test_one_part_differs;
    Alcotest.test_case "missing packets and hops differ" `Quick test_missing_parts;
  ]
