open Packet

let sample () =
  Pkt.make
    ~ip_src:(Addr.of_string "10.0.0.1")
    ~ip_dst:(Addr.of_string "3.3.3.3")
    ~sport:12345 ~dport:80 ~tcp_flags:Headers.syn ()

let test_get_int () =
  let p = sample () in
  Alcotest.(check int) "ip_src" (Addr.of_string "10.0.0.1") (Pkt.get_int p "ip_src");
  Alcotest.(check int) "dport" 80 (Pkt.get_int p "dport");
  Alcotest.(check int) "tcp_flags" Headers.syn (Pkt.get_int p "tcp_flags");
  Alcotest.(check int) "default ttl" 64 (Pkt.get_int p "ip_ttl");
  Alcotest.(check int) "default proto is tcp" Headers.proto_tcp (Pkt.get_int p "ip_proto")

let test_set_int () =
  let p = sample () in
  let p = Pkt.set_int p "ip_dst" (Addr.of_string "1.1.1.1") in
  let p = Pkt.set_int p "dport" 8080 in
  Alcotest.(check int) "updated dst" (Addr.of_string "1.1.1.1") (Pkt.get_int p "ip_dst");
  Alcotest.(check int) "updated dport" 8080 (Pkt.get_int p "dport");
  Alcotest.(check int) "src untouched" (Addr.of_string "10.0.0.1") (Pkt.get_int p "ip_src")

let test_payload () =
  let p = Pkt.set_str (sample ()) "payload" "GET /" in
  Alcotest.(check string) "payload" "GET /" (Pkt.get_str p "payload")

let test_bad_field () =
  let p = sample () in
  Alcotest.check_raises "get bad" (Invalid_argument "Pkt.get_int: not an int field: nope")
    (fun () -> ignore (Pkt.get_int p "nope"));
  Alcotest.check_raises "set bad" (Invalid_argument "Pkt.set_int: not an int field: payload")
    (fun () -> ignore (Pkt.set_int p "payload" 1))

let test_all_int_fields_roundtrip () =
  let p = ref (sample ()) in
  List.iteri
    (fun i f ->
      p := Pkt.set_int !p f (i + 1000);
      Alcotest.(check int) f (i + 1000) (Pkt.get_int !p f))
    Headers.int_fields

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_pp () =
  let s = Pkt.to_string (sample ()) in
  Alcotest.(check bool) "mentions src" true (contains ~sub:"10.0.0.1" s);
  Alcotest.(check bool) "mentions SYN" true (contains ~sub:"SYN" s);
  Alcotest.(check bool) "mentions dport" true (contains ~sub:":80" s)

(* The field predicates are matches; they must answer as membership
   in the published field lists does, on fields and non-fields. *)
let test_field_predicates () =
  List.iter
    (fun f ->
      Alcotest.(check bool) ("is_int_field " ^ f) (List.mem f Headers.int_fields) (Headers.is_int_field f);
      Alcotest.(check bool) ("is_str_field " ^ f) (List.mem f Headers.str_fields) (Headers.is_str_field f))
    (Headers.int_fields @ Headers.str_fields
    @ [ ""; "ip_src2"; "pkt"; "ip_sr"; "IP_SRC"; "payload "; "pkt.dport"; "in.payload" ])

let suite =
  [
    Alcotest.test_case "get int fields" `Quick test_get_int;
    Alcotest.test_case "set int fields" `Quick test_set_int;
    Alcotest.test_case "payload" `Quick test_payload;
    Alcotest.test_case "bad fields raise" `Quick test_bad_field;
    Alcotest.test_case "all int fields roundtrip" `Quick test_all_int_fields_roundtrip;
    Alcotest.test_case "pretty-printing" `Quick test_pp;
    Alcotest.test_case "field predicates match the field lists" `Quick test_field_predicates;
  ]
