open Nfactor

let extract_nf name =
  let entry = Option.get (Nfs.Corpus.find name) in
  Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name (entry.Nfs.Corpus.program ())

let check_verdict name v =
  if not (Equiv.ok v) then
    Alcotest.failf "%s: %d/%d mismatches, first:@.%s" name
      (List.length v.Equiv.mismatches) v.Equiv.trials
      (Fmt.str "%a" Equiv.pp_mismatch (List.hd v.Equiv.mismatches))

(* Path-set equality (paper: "the two sets of paths are the same"). *)
let test_paths_match_all () =
  List.iter
    (fun name ->
      let ex = extract_nf name in
      Alcotest.(check bool) (name ^ ": path sets equal") true (Equiv.paths_match ex))
    Nfs.Corpus.names

(* The paper's 1000-random-packet experiment, per NF. *)
let test_random_1000 name () =
  let ex = extract_nf name in
  let v = Equiv.random_testing ~seed:2016 ~trials:1000 ex in
  Alcotest.(check int) "1000 trials" 1000 v.Equiv.trials;
  check_verdict name v

(* Flow-structured traffic drives the stateful entries (handshakes,
   data on existing connections, teardown). *)
let test_flows name () =
  let ex = extract_nf name in
  let v = Equiv.flow_testing ~seed:7 ~flows:40 ~data_pkts:3 ex in
  check_verdict name v

(* Model and program must also agree on *state*, observable as
   divergence later: interleave random and flow traffic. *)
let test_mixed name () =
  let ex = extract_nf name in
  let flows = Packet.Traffic.flow_stream ~seed:11 ~flows:10 ~data_pkts:2 () in
  let random = Packet.Traffic.random_stream ~seed:12 ~n:200 () in
  let rec interleave a b =
    match (a, b) with
    | [], r -> r
    | r, [] -> r
    | x :: xs, y :: ys -> x :: y :: interleave xs ys
  in
  let v = Equiv.differential ex ~pkts:(interleave flows random) in
  check_verdict name v

let test_lb_hash_config () =
  (* Re-extract with mode = 2 (hash): the other Figure-6 table drives
     forwarding. *)
  let src = Nfs.Lb.source in
  let src = Str.global_replace (Str.regexp_string "mode = 1;") "mode = 2;" src in
  let ex =
    Pipeline.Manager.extract (Pipeline.Manager.create ())
      ~name:"lb-hash" (Nfl.Parser.program src)
  in
  let v = Equiv.random_testing ~seed:5 ~trials:500 ex in
  check_verdict "lb-hash" v

let test_firewall_permissive_config () =
  let src = Nfs.Firewall.source in
  let src = Str.global_replace (Str.regexp_string "strict_mode = 1;") "strict_mode = 0;" src in
  let ex =
    Pipeline.Manager.extract (Pipeline.Manager.create ())
      ~name:"firewall-permissive" (Nfl.Parser.program src)
  in
  let v = Equiv.random_testing ~seed:6 ~trials:500 ex in
  check_verdict "firewall-permissive" v

let suite =
  [
    Alcotest.test_case "path sets: program slice vs model" `Quick test_paths_match_all;
    Alcotest.test_case "random 1000: lb" `Quick (test_random_1000 "lb");
    Alcotest.test_case "random 1000: balance" `Quick (test_random_1000 "balance");
    Alcotest.test_case "random 1000: snort" `Slow (test_random_1000 "snort");
    Alcotest.test_case "random 1000: nat" `Quick (test_random_1000 "nat");
    Alcotest.test_case "random 1000: firewall" `Quick (test_random_1000 "firewall");
    Alcotest.test_case "random 1000: ratelimiter" `Quick (test_random_1000 "ratelimiter");
    Alcotest.test_case "flows: lb" `Quick (test_flows "lb");
    Alcotest.test_case "flows: balance" `Quick (test_flows "balance");
    Alcotest.test_case "flows: nat" `Quick (test_flows "nat");
    Alcotest.test_case "flows: firewall" `Quick (test_flows "firewall");
    Alcotest.test_case "mixed traffic: lb" `Quick (test_mixed "lb");
    Alcotest.test_case "mixed traffic: nat" `Quick (test_mixed "nat");
    Alcotest.test_case "LB hash config" `Quick test_lb_hash_config;
    Alcotest.test_case "firewall permissive config" `Quick test_firewall_permissive_config;
  ]
