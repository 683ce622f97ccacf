open Packet

let pkt ?(flags = 0) ?(payload = "") () =
  Pkt.make ~ip_src:(Addr.of_string "10.0.0.1") ~ip_dst:(Addr.of_string "3.3.3.3") ~sport:1234
    ~dport:80 ~tcp_flags:flags ~payload ()

let test_line_roundtrip () =
  let p = pkt ~flags:(Headers.syn lor Headers.ack) ~payload:"GET / HTTP\n\"quoted\"" () in
  let p' = Codec.of_line (Codec.to_line p) in
  Alcotest.(check bool) "roundtrip" true (Pkt.equal p p')

let test_trace_roundtrip () =
  let pkts = Traffic.random_stream ~seed:99 ~n:100 () in
  let pkts' = Codec.of_string (Codec.to_string pkts) in
  Alcotest.(check int) "count" (List.length pkts) (List.length pkts');
  Alcotest.(check bool) "all equal" true (List.for_all2 Pkt.equal pkts pkts')

let test_comments_and_blanks_skipped () =
  let text = "# header\n\n" ^ Codec.to_line (pkt ()) ^ "\n\n# trailing\n" in
  Alcotest.(check int) "one packet" 1 (List.length (Codec.of_string text))

let test_flag_names () =
  let p = Codec.of_line "tcp 1.1.1.1 1 2.2.2.2 2 SYN|ACK 64 60 0 0 \"\"" in
  Alcotest.(check int) "flags" (Headers.syn lor Headers.ack) p.Pkt.tcp_flags;
  let p2 = Codec.of_line "udp 1.1.1.1 1 2.2.2.2 2 - 64 60 0 0 \"\"" in
  Alcotest.(check int) "no flags" 0 p2.Pkt.tcp_flags;
  Alcotest.(check int) "udp proto" Headers.proto_udp p2.Pkt.ip_proto

let test_numeric_proto () =
  let p = Codec.of_line "47 1.1.1.1 1 2.2.2.2 2 - 64 60 0 0 \"\"" in
  Alcotest.(check int) "gre" 47 p.Pkt.ip_proto

let test_malformed () =
  List.iter
    (fun line ->
      match Codec.of_line line with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted %S" line)
    [
      "";
      "tcp 1.1.1.1";
      "tcp 1.1.1.1 1 2.2.2.2 2 - 64 60 0 0";
      "xyz 1.1.1.1 1 2.2.2.2 2 - 64 60 0 0 \"\"";
      "tcp 1.1.1.1 http 2.2.2.2 2 - 64 60 0 0 \"\"";
      "tcp 1.1.1.999 1 2.2.2.2 2 - 64 60 0 0 \"\"";
      "tcp 1.1.1.1 1 2.2.2.2 2 - 64 60 0 0 \"abc";
      "tcp 1.1.1.1 1 2.2.2.2 2 - 64 60 0 0 \"abc\" junk";
    ];
  (* A whole trace names the line of its first malformed packet. *)
  let trace =
    "# header\ntcp 1.1.1.1 1 2.2.2.2 2 - 64 60 0 0 \"\"\ntcp 1.1.1.1 x 2.2.2.2 2 - 64 60 0 0 \"\"\n"
  in
  match Codec.of_string trace with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("names line 3: " ^ msg) true (String.starts_with ~prefix:"line 3:" msg)
  | _ -> Alcotest.fail "accepted a malformed trace"

let qcheck_roundtrip =
  QCheck.Test.make ~name:"codec: line roundtrip on random packets" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = List.hd (Traffic.random_stream ~seed ~n:1 ()) in
      Pkt.equal p (Codec.of_line (Codec.to_line p)))

let suite =
  [
    Alcotest.test_case "line roundtrip" `Quick test_line_roundtrip;
    Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
    Alcotest.test_case "comments skipped" `Quick test_comments_and_blanks_skipped;
    Alcotest.test_case "flag names" `Quick test_flag_names;
    Alcotest.test_case "numeric proto" `Quick test_numeric_proto;
    Alcotest.test_case "malformed rejected" `Quick test_malformed;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
  ]
