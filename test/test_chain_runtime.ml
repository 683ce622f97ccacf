(* The chain runtime (lib/runtime/chainplan + chainengine): the
   namespacing bijection, link-time hop fusion, differential exactness
   of the linked dataplane against the reference interpreter chain
   (outputs, per-hop traces, per-hop final stores) on random and churn
   traffic, and the sharded chain's admission rules + exactness. *)

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

let node name =
  let ex = extraction name in
  (name, ex.Nfactor.Extract.model, Nfactor.Model_interp.initial_store ex)

let link names = Chainplan.link (List.map node names)

let check_agree = Test_differential.check_agree

(* ------------------------------------------------------------------ *)
(* Linking and renaming                                               *)
(* ------------------------------------------------------------------ *)

let test_rename_bijection () =
  (* Renamed model behaves step-for-step like the original: same
     outputs, same store modulo key prefixes. *)
  let _, m, store = node "firewall" in
  let rm = Chainplan.rename_model ~prefix:"h0:" m in
  let rstore = Chainplan.rename_store ~prefix:"h0:" store in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " prefixed") true (String.starts_with ~prefix:"h0:" name))
    (rm.Nfactor.Model.cfg_vars @ rm.Nfactor.Model.ois_vars);
  let pkts = Array.of_list (Packet.Traffic.random_stream ~seed:7 ~n:500 ()) in
  let orig = Differential.interp m ~store pkts in
  check_agree "renamed model"
    ~reference:
      {
        orig with
        Differential.stores =
          List.map (fun (id, s) -> (id, Chainplan.rename_store ~prefix:"h0:" s)) orig.Differential.stores;
      }
    (Differential.interp rm ~store:rstore pkts)

let test_link_shape () =
  let cp = link [ "firewall"; "nat"; "snort" ] in
  Alcotest.(check int) "hops" 3 (Chainplan.n_hops cp);
  Alcotest.(check (list string)) "ids" [ "firewall"; "nat"; "snort" ] (Chainplan.hop_ids cp);
  (* The merged store covers every hop's bindings under its prefix. *)
  Array.iter
    (fun (h : Chainplan.hop) ->
      Nfactor.Model_interp.Smap.iter
        (fun name _ ->
          Alcotest.(check bool) (name ^ " in store0") true
            (Nfactor.Model_interp.Smap.mem name cp.Chainplan.store0))
        h.Chainplan.h_store)
    cp.Chainplan.hops;
  (* split_store inverts the merge back to original names. *)
  List.iter2
    (fun name (id, s) ->
      Alcotest.(check string) "hop id" name id;
      let _, _, orig = node name in
      Alcotest.(check bool) (name ^ " split store") true
        (Nfactor.Model_interp.Smap.equal Value.equal orig s))
    [ "firewall"; "nat"; "snort" ]
    (Chainplan.split_store cp cp.Chainplan.store0)

let test_duplicate_ids () =
  let cp = Chainplan.link [ node "snort"; node "snort" ] in
  Alcotest.(check (list string)) "uniquified" [ "snort"; "snort#1" ] (Chainplan.hop_ids cp)

let test_fusion_static_rewrites () =
  (* nat pins ip_src to a config constant; the firewall's root
     dispatches on ip_src & inside_mask — the link must pre-decide at
     least one dispatch node for nat's static entries. *)
  let cp = link [ "nat"; "firewall" ] in
  Alcotest.(check bool) "fused entries > 0" true (cp.Chainplan.fused_entries > 0);
  Alcotest.(check bool) "fused nodes > 0" true (cp.Chainplan.fused_nodes > 0);
  (* mirror pins dport := collector_port; lb dispatches on dport. *)
  let cp2 = link [ "mirror"; "lb" ] in
  Alcotest.(check bool) "mirror->lb fuses" true (cp2.Chainplan.fused_entries > 0);
  (* firewall rewrites nothing statically useful for snort's
     ttl/len/proto dispatch: no fusion, handoff fallback. *)
  let cp3 = link [ "firewall"; "snort" ] in
  Alcotest.(check int) "no fusion" 0 cp3.Chainplan.fused_entries

let test_fused_walks_counted () =
  let cp = link [ "nat"; "firewall" ] in
  let eng = Chainengine.create cp in
  List.iter
    (fun p -> ignore (Chainengine.step eng p))
    (Packet.Traffic.random_stream ~seed:11 ~n:2000 ());
  Alcotest.(check bool) "fused walks observed" true (eng.Chainengine.fused_walks > 0)

(* ------------------------------------------------------------------ *)
(* Differential exactness vs Verify.Network                           *)
(* ------------------------------------------------------------------ *)

let ref_chain names =
  Verify.Network.chain
    (List.map (fun n -> let id, m, s = node n in Verify.Network.node id m s) names)

(* The linked chain against the interpreter chain: outputs per packet
   and each hop's final store, hops in the same order. *)
let check_differential names pkts =
  let reference = Differential.network (List.map node names) pkts in
  let got = Differential.chain (Chainengine.create (link names)) pkts in
  Alcotest.(check (list string)) "store hop order"
    (List.map fst reference.Differential.stores) (List.map fst got.Differential.stores);
  check_agree (String.concat "," names) ~reference got

let random_pkts ~n = Array.of_list (Packet.Traffic.random_stream ~seed:2016 ~n ())

let test_differential_3nf () = check_differential [ "firewall"; "nat"; "snort" ] (random_pkts ~n:4000)
let test_differential_fused () = check_differential [ "nat"; "firewall" ] (random_pkts ~n:4000)
let test_differential_mirror_lb () = check_differential [ "mirror"; "lb" ] (random_pkts ~n:4000)

let test_differential_stateful () =
  check_differential [ "portknock"; "synguard" ] (random_pkts ~n:4000);
  check_differential [ "acl"; "ratelimiter" ] (random_pkts ~n:4000)

let test_differential_churn () =
  let ch = Packet.Traffic.churn_gen ~concurrent:48 ~seed:5 () in
  check_differential [ "firewall"; "nat"; "snort" ]
    (Array.init 4000 (fun _ -> Packet.Traffic.churn_next ch))

let test_trace_matches_interp () =
  let names = [ "firewall"; "nat"; "snort" ] in
  let pkts = Packet.Traffic.random_stream ~seed:3 ~n:300 () in
  let chain = ref_chain names in
  let eng = Chainengine.create (link names) in
  List.iter
    (fun p ->
      let ref_out, ref_hops = Verify.Network.push chain p in
      let out, hops = Chainengine.step_trace eng p in
      Alcotest.(check bool) "trace outputs" true (List.equal Packet.Pkt.equal ref_out out);
      List.iter2
        (fun (rh : Verify.Network.hop) (h : Chainengine.hoprec) ->
          Alcotest.(check string) "hop id" rh.Verify.Network.node_id h.Chainengine.hop_id;
          Alcotest.(check bool) "entered" true
            (List.equal Packet.Pkt.equal rh.Verify.Network.entered h.Chainengine.entered);
          Alcotest.(check bool) "left" true
            (List.equal Packet.Pkt.equal rh.Verify.Network.left h.Chainengine.left))
        ref_hops hops)
    pkts

(* ------------------------------------------------------------------ *)
(* Sharded chains                                                     *)
(* ------------------------------------------------------------------ *)

let test_shard_admission () =
  (* Global-table hops block sharding with a named diagnostic. *)
  (match Chainplan.shard_spec (link [ "firewall"; "nat" ]) with
  | Ok _ -> Alcotest.fail "firewall chain must not shard"
  | Error e ->
      Alcotest.(check bool) "names the hop" true
        (String.length e > 0
        && (String.starts_with ~prefix:"hop firewall" e
           || String.starts_with ~prefix:"hop nat" e)));
  (* Pure flow-key chains shard. *)
  (match Chainplan.shard_spec (link [ "snort"; "synguard"; "ips" ]) with
  | Ok spec ->
      Alcotest.(check (list string)) "flow key" [ "ip_src" ] spec.Shardplan.key_fields
  | Error e -> Alcotest.fail ("snort,synguard,ips should shard: " ^ e));
  (* Stateless chains shard trivially. *)
  match Chainplan.shard_spec (link [ "snort"; "mirror" ]) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("stateless chain should shard: " ^ e)

let test_shard_exactness () =
  let names = [ "snort"; "synguard"; "ips" ] in
  let cp = link names in
  let pkts = Array.of_list (Packet.Traffic.random_stream ~seed:2016 ~n:4000 ()) in
  match Chainengine.shard cp ~nshards:3 with
  | Error e -> Alcotest.fail e
  | Ok sh ->
      check_agree "3 shards"
        ~reference:(Differential.chain (Chainengine.create cp) pkts)
        (Differential.sharded_chain sh pkts);
      Alcotest.(check int) "injected" (Array.length pkts) (Chainengine.shard_injected sh)

let suite =
  [
    Alcotest.test_case "rename is a behavior-preserving bijection" `Quick test_rename_bijection;
    Alcotest.test_case "link merges namespaced stores and splits them back" `Quick test_link_shape;
    Alcotest.test_case "duplicate hop ids are uniquified" `Quick test_duplicate_ids;
    Alcotest.test_case "static rewrites fuse the downstream dispatch" `Quick test_fusion_static_rewrites;
    Alcotest.test_case "fused walks are taken at runtime" `Quick test_fused_walks_counted;
    Alcotest.test_case "3-NF chain == interpreter chain" `Quick test_differential_3nf;
    Alcotest.test_case "fused chain == interpreter chain" `Quick test_differential_fused;
    Alcotest.test_case "mirror->lb (multi-emit) == interpreter chain" `Quick test_differential_mirror_lb;
    Alcotest.test_case "stateful chains == interpreter chain" `Quick test_differential_stateful;
    Alcotest.test_case "churn traffic == interpreter chain" `Quick test_differential_churn;
    Alcotest.test_case "per-hop traces match Network.push" `Quick test_trace_matches_interp;
    Alcotest.test_case "shard admission rules" `Quick test_shard_admission;
    Alcotest.test_case "sharded chain == single chain engine" `Quick test_shard_exactness;
  ]
