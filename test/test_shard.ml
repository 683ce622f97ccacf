(* The sharded dataplane (lib/runtime/shard + shardplan): sharding
   analysis on the corpus, flow-key hash properties, and N-shard
   differential exactness — outputs, merged final store and merged
   counters must equal a single engine fed the same stream — plus the
   RCU plan swap. *)

open Symexec
open Nfactor_runtime

let extractions : (string, Nfactor.Extract.result) Hashtbl.t = Hashtbl.create 16

let extraction name =
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

let spec_of name =
  let ex = extraction name in
  let model = ex.Nfactor.Extract.model in
  let store = Nfactor.Model_interp.initial_store ex in
  let plan = Compile.compile ~shared:true model ~config:store in
  Shardplan.analyze model ~config:store ~live:plan.Compile.live_idx

let check_agree = Test_differential.check_agree

(* A stream that exercises the stateful paths: interleaved
   conversations plus uniform random packets. *)
let mixed_stream ~seed ~n =
  let flows = Packet.Traffic.flow_stream ~seed ~flows:25 ~data_pkts:3 () in
  let random = Packet.Traffic.random_stream ~seed:(seed + 1) ~n () in
  Array.of_list (flows @ random @ flows)

(* ------------------------------------------------------------------ *)
(* Sharding analysis on the corpus                                     *)
(* ------------------------------------------------------------------ *)

let class_of spec name = List.assoc_opt name spec.Shardplan.tables

let test_spec_nat () =
  let spec = spec_of "nat" in
  Alcotest.(check (list string))
    "nat: flow key is the sorted 4-tuple"
    [ "dport"; "ip_dst"; "ip_src"; "sport" ]
    spec.Shardplan.key_fields;
  (match class_of spec "fwd_map" with
  | Some (Shardplan.Sharded s) ->
      Alcotest.(check bool) "fwd_map: tupled signature" true s.Shardplan.tup
  | _ -> Alcotest.fail "nat: fwd_map should be sharded");
  (match class_of spec "rev_map" with
  | Some Shardplan.Global -> ()
  | _ ->
      Alcotest.fail "nat: rev_map should be global (key reads the port counter)");
  (* Entries translating through rev_map or allocating ports write
     shared state and must serialize; the pure forward path must not. *)
  Alcotest.(check int) "nat: serial entries" 3 (Shardplan.n_serial spec)

let test_spec_portknock () =
  let spec = spec_of "portknock" in
  Alcotest.(check (list string))
    "portknock: sharded by source address" [ "ip_src" ]
    spec.Shardplan.key_fields;
  (match class_of spec "stage" with
  | Some (Shardplan.Sharded _) -> ()
  | _ -> Alcotest.fail "portknock: stage should be sharded");
  Alcotest.(check int) "portknock: no serial entries" 0 (Shardplan.n_serial spec)

let test_spec_snort () =
  let spec = spec_of "snort" in
  Alcotest.(check (list string))
    "snort: stateless, no flow key" [] spec.Shardplan.key_fields;
  Alcotest.(check int) "snort: no serial entries" 0 (Shardplan.n_serial spec)

let test_spec_firewall () =
  (* conn_table is probed with both packet directions (mirrored
     signatures), which cannot co-shard — the analysis must fall back
     to global rather than split it unsoundly. *)
  let spec = spec_of "firewall" in
  match class_of spec "conn_table" with
  | Some Shardplan.Global -> ()
  | _ -> Alcotest.fail "firewall: mirrored-key table must be global"

(* ------------------------------------------------------------------ *)
(* Flow-key hash properties                                            *)
(* ------------------------------------------------------------------ *)

let arb_pkt =
  QCheck.make
    (QCheck.Gen.map
       (fun seed ->
         let rng = Packet.Rng.create seed in
         Packet.Traffic.random_pkt rng Packet.Traffic.default_profile)
       QCheck.Gen.int)

let prop_hash_total_deterministic =
  let spec = lazy (spec_of "nat") in
  QCheck.Test.make ~name:"property: flow-key hash total and deterministic"
    ~count:300 arb_pkt (fun p ->
      let spec = Lazy.force spec in
      let h = Shardplan.hash spec p in
      h >= 0 && h = Shardplan.hash spec p)

let prop_hash_key_fields_decide =
  (* Packets agreeing on every flow-key field hash identically, no
     matter what the other fields hold — the property that keeps every
     access to a sharded table on one shard. *)
  let spec = lazy (spec_of "portknock") in
  QCheck.Test.make ~name:"property: equal key fields => equal hash" ~count:300
    QCheck.(pair arb_pkt arb_pkt)
    (fun (a, b) ->
      let spec = Lazy.force spec in
      (* portknock keys on ip_src only *)
      let b = { b with Packet.Pkt.ip_src = a.Packet.Pkt.ip_src } in
      Shardplan.hash spec a = Shardplan.hash spec b)

let test_router_agrees_with_hash () =
  (* The value-side router must place a stored key on the same shard
     the packet-side hash routes the packets that probe it. *)
  let spec = spec_of "nat" in
  let route = Option.get (Shardplan.router spec "fwd_map") in
  let rng = Packet.Rng.create 99 in
  for _ = 1 to 200 do
    let p = Packet.Traffic.random_pkt rng Packet.Traffic.default_profile in
    let key =
      Value.Tuple
        [
          Value.Int p.Packet.Pkt.ip_src;
          Value.Int p.Packet.Pkt.sport;
          Value.Int p.Packet.Pkt.ip_dst;
          Value.Int p.Packet.Pkt.dport;
        ]
    in
    Alcotest.(check int) "router = packet hash" (Shardplan.hash spec p)
      (route key)
  done

(* ------------------------------------------------------------------ *)
(* N-shard differential exactness                                      *)
(* ------------------------------------------------------------------ *)

(* The merged N-shard run must be indistinguishable from one engine
   stepping the same packets in order: per-packet outcome, final
   store, and summed counters. *)
let shard_differential name ~nshards pkts () =
  let ex = extraction name in
  let model = ex.Nfactor.Extract.model in
  let store = Nfactor.Model_interp.initial_store ex in
  let sh = Shard.create ~nshards model ~config:store in
  check_agree
    (Printf.sprintf "%s/%d shards" name nshards)
    ~reference:(Differential.engine (Engine.create (Compile.compile model ~config:store) ~store) pkts)
    (Fun.protect ~finally:(fun () -> Shard.shutdown sh) (fun () -> Differential.shard sh pkts))

let test_corpus_differential () =
  List.iter
    (fun name ->
      shard_differential name ~nshards:2 (mixed_stream ~seed:41 ~n:400) ())
    Nfs.Corpus.names

let test_three_shards () =
  List.iter
    (fun name ->
      shard_differential name ~nshards:3 (mixed_stream ~seed:43 ~n:300) ())
    [ "nat"; "portknock"; "snort"; "firewall"; "lb" ]

let test_churn_differential () =
  List.iter
    (fun name ->
      let churn = Packet.Traffic.churn_gen ~concurrent:250 ~seed:17 () in
      let pkts = Array.init 3000 (fun _ -> Packet.Traffic.churn_next churn) in
      shard_differential name ~nshards:2 pkts ())
    [ "nat"; "portknock"; "synguard" ]

(* ------------------------------------------------------------------ *)
(* The RCU plan swap                                                   *)
(* ------------------------------------------------------------------ *)

let test_rcu_swap_midstream () =
  (* Swap in a freshly compiled plan between batches; behavior must be
     seamless — the run equals a single engine over the whole stream,
     and counters survive the swap. *)
  let ex = extraction "nat" in
  let model = ex.Nfactor.Extract.model in
  let store = Nfactor.Model_interp.initial_store ex in
  let pkts = mixed_stream ~seed:53 ~n:400 in
  let mid = Array.length pkts / 2 in
  let first = Array.sub pkts 0 mid and second = Array.sub pkts mid (Array.length pkts - mid) in
  (* One engine over the whole stream, observed at the same boundary. *)
  let eng = Engine.create (Compile.compile model ~config:store) ~store in
  let sh = Shard.create ~nshards:2 model ~config:store in
  Fun.protect
    ~finally:(fun () -> Shard.shutdown sh)
    (fun () ->
      check_agree "rcu, before the swap"
        ~reference:(Differential.engine eng first) (Differential.shard sh first);
      Shard.swap_plan sh (Compile.compile ~shared:true model ~config:store);
      check_agree "rcu, after the swap"
        ~reference:(Differential.engine eng second) (Differential.shard sh second))

let test_swap_rejects_unshared_plan () =
  let ex = extraction "portknock" in
  let model = ex.Nfactor.Extract.model in
  let store = Nfactor.Model_interp.initial_store ex in
  let sh = Shard.create ~nshards:2 model ~config:store in
  Fun.protect
    ~finally:(fun () -> Shard.shutdown sh)
    (fun () ->
      Alcotest.check_raises "mutable plan rejected"
        (Invalid_argument "Shard.swap_plan: plan must be compiled ~shared:true")
        (fun () -> Shard.swap_plan sh (Compile.compile model ~config:store)))

let suite =
  [
    Alcotest.test_case "spec: nat" `Quick test_spec_nat;
    Alcotest.test_case "spec: portknock" `Quick test_spec_portknock;
    Alcotest.test_case "spec: snort" `Quick test_spec_snort;
    Alcotest.test_case "spec: firewall" `Quick test_spec_firewall;
    QCheck_alcotest.to_alcotest prop_hash_total_deterministic;
    QCheck_alcotest.to_alcotest prop_hash_key_fields_decide;
    Alcotest.test_case "router agrees with packet hash" `Quick
      test_router_agrees_with_hash;
    Alcotest.test_case "corpus differential, 2 shards" `Quick
      test_corpus_differential;
    Alcotest.test_case "stateful differential, 3 shards" `Quick
      test_three_shards;
    Alcotest.test_case "churn differential, 2 shards" `Quick
      test_churn_differential;
    Alcotest.test_case "rcu plan swap mid-stream" `Quick
      test_rcu_swap_midstream;
    Alcotest.test_case "swap rejects mutable plan" `Quick
      test_swap_rejects_unshared_plan;
  ]
