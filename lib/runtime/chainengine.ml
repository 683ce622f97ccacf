(* Chain execution over a linked plan: per-hop engines sharing one
   namespaced Flowstate, breadth-first traversal matching
   Verify.Network.push, fused entry nodes from the link-time partial
   evaluation, and the domain-parallel sharded runtime. *)

open Symexec
module Smap = Nfactor.Model_interp.Smap

type t = {
  cp : Chainplan.t;
  state : Flowstate.t;
  engines : Engine.t array;
  mutable injected : int;
  mutable fused_walks : int;
  mutable handoffs : int;
}

let create_with ?capacity (cp : Chainplan.t) store =
  let state = Flowstate.create ?capacity store in
  {
    cp;
    state;
    engines =
      Array.map (fun (h : Chainplan.hop) -> Engine.of_flowstate h.Chainplan.h_plan state) cp.Chainplan.hops;
    injected = 0;
    fused_walks = 0;
    handoffs = 0;
  }

let create ?capacity cp = create_with ?capacity cp cp.Chainplan.store0

let root_of t i =
  t.cp.Chainplan.hops.(i).Chainplan.h_plan.Compile.root

(* One hop of the breadth-first traversal: step every pending packet
   through hop [i] (in order — state commits exactly like the
   interpreter chain) and pair each output with its start node in the
   next hop, fused when the link pre-decided it. *)
let hop_once t i pending =
  let eng = t.engines.(i) in
  let root = root_of t i in
  let last = i + 1 >= Array.length t.engines in
  List.concat_map
    (fun (p, start) ->
      if start != root then t.fused_walks <- t.fused_walks + 1
      else if i > 0 then t.handoffs <- t.handoffs + 1;
      let o = Engine.step_at eng ~root:start p in
      if last then List.map (fun out -> (out, root)) o.Engine.outputs
      else
        match o.Engine.fired with
        | Some e ->
            let starts = t.cp.Chainplan.starts.(i).(e) in
            let nroot = root_of t (i + 1) in
            List.mapi
              (fun j out ->
                (out, if j < Array.length starts then starts.(j) else nroot))
              o.Engine.outputs
        | None -> [])
    pending

let step t pkt =
  t.injected <- t.injected + 1;
  let pending = ref [ (pkt, root_of t 0) ] in
  for i = 0 to Array.length t.engines - 1 do
    pending := hop_once t i !pending
  done;
  List.map fst !pending

type hoprec = {
  hop_id : string;
  entered : Packet.Pkt.t list;
  left : Packet.Pkt.t list;
}

let step_trace t pkt =
  t.injected <- t.injected + 1;
  let recs = ref [] in
  let pending = ref [ (pkt, root_of t 0) ] in
  for i = 0 to Array.length t.engines - 1 do
    let entered = List.map fst !pending in
    pending := hop_once t i !pending;
    recs :=
      {
        hop_id = t.cp.Chainplan.hops.(i).Chainplan.h_id;
        entered;
        left = List.map fst !pending;
      }
      :: !recs
  done;
  (List.map fst !pending, List.rev !recs)

let run_batch t pkts = Array.map (step t) pkts

(* Chain deliveries from the last hop's entry-hit counters: each fire
   of entry [e] emits one packet per forward snapshot. *)
let delivered t =
  let n = Array.length t.engines in
  let h = t.cp.Chainplan.hops.(n - 1) in
  let hits = t.engines.(n - 1).Engine.stats.Engine.entry_hits in
  List.fold_left
    (fun (acc, e) (entry : Nfactor.Model.entry) ->
      let emitted =
        match entry.Nfactor.Model.pkt_action with
        | Nfactor.Model.Drop -> 0
        | Nfactor.Model.Forward snaps -> List.length snaps
      in
      (acc + (hits.(e) * emitted), e + 1))
    (0, 0) h.Chainplan.h_model.Nfactor.Model.entries
  |> fst

let snapshot_hops t = Chainplan.split_store t.cp (Flowstate.snapshot t.state)

let hop_stats t =
  Array.to_list
    (Array.mapi
       (fun i (h : Chainplan.hop) -> (h.Chainplan.h_id, t.engines.(i).Engine.stats))
       t.cp.Chainplan.hops)

let evictions t = Flowstate.evictions t.state

let pp_stats ppf t =
  Fmt.pf ppf
    "chain %s: injected %d, delivered %d | fused walks %d, handoffs %d | evictions %d"
    (String.concat " -> " (Chainplan.hop_ids t.cp))
    t.injected (delivered t) t.fused_walks t.handoffs (evictions t);
  List.iter
    (fun (id, s) ->
      Fmt.pf ppf "@.  %-12s %a" id (Engine.pp_stats_of ~evictions:0) s)
    (hop_stats t)

let stats_json t =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"chain\": %s, "
    (Nfactor.Json.quote (String.concat "," (Chainplan.hop_ids t.cp)));
  Printf.bprintf b "\"hops\": %d, " (Chainplan.n_hops t.cp);
  Printf.bprintf b "\"injected\": %d, " t.injected;
  Printf.bprintf b "\"delivered\": %d, " (delivered t);
  Printf.bprintf b "\"fused_walks\": %d, " t.fused_walks;
  Printf.bprintf b "\"handoffs\": %d, " t.handoffs;
  Printf.bprintf b "\"fused_entries\": %d, " t.cp.Chainplan.fused_entries;
  Printf.bprintf b "\"fused_nodes\": %d, " t.cp.Chainplan.fused_nodes;
  Printf.bprintf b "\"evictions\": %d, " (evictions t);
  Printf.bprintf b "\"per_hop\": [%s]"
    (String.concat ", "
       (List.mapi
          (fun i (id, s) ->
            Engine.stats_json_of ~nf:id
              ~plan:t.cp.Chainplan.hops.(i).Chainplan.h_plan ~evictions:0 s)
          (hop_stats t)));
  Buffer.add_string b "}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Sharded chain execution                                            *)
(* ------------------------------------------------------------------ *)

type sharded = {
  scp : Chainplan.t;  (* linked with shared plans *)
  sspec : Shardplan.spec;
  shards : t array;
}

let hop_owning (cp : Chainplan.t) name =
  Array.fold_left
    (fun acc (h : Chainplan.hop) ->
      if acc <> None then acc
      else if String.starts_with ~prefix:h.Chainplan.h_prefix name then Some h
      else acc)
    None cp.Chainplan.hops

(* A table is chain-sharded when its owning hop's analysis shards it;
   the hop routers all hash the same flow-key fields (shard_spec
   checked that), so table placement agrees with packet routing. *)
let table_router (cp : Chainplan.t) name =
  match hop_owning cp name with
  | None -> None
  | Some h -> Shardplan.router h.Chainplan.h_spec name

let partition_store (cp : Chainplan.t) ~nshards s =
  Smap.fold
    (fun name v acc ->
      match (v, table_router cp name) with
      | Value.Dict kvs, Some route ->
          List.filter (fun (k, _) -> route k mod nshards = s) kvs
          |> fun kvs -> Smap.add name (Value.Dict kvs) acc
      | _ -> Smap.add name v acc)
    cp.Chainplan.store0 Smap.empty

let shard ?capacity (cp : Chainplan.t) ~nshards =
  if nshards < 1 then invalid_arg "Chainengine.shard: nshards must be >= 1";
  match Chainplan.shard_spec cp with
  | Error e -> Error e
  | Ok _ ->
      let scp =
        if cp.Chainplan.shared then cp
        else Chainplan.link ~shared:true cp.Chainplan.sources
      in
      let sspec =
        match Chainplan.shard_spec scp with
        | Ok spec -> spec
        | Error e -> invalid_arg ("Chainengine.shard: relink changed verdict: " ^ e)
      in
      let shards =
        Array.init nshards (fun s ->
            create_with ?capacity scp (partition_store scp ~nshards s))
      in
      Ok { scp; sspec; shards }

let shard_route sh pkt = Shardplan.hash sh.sspec pkt mod Array.length sh.shards

let shard_run_batch sh pkts =
  Array.map (fun p -> step sh.shards.(shard_route sh p) p) pkts

let shard_replay sh ~pkts =
  let ns = Array.length sh.shards in
  let buckets = Array.make ns [] in
  for i = Array.length pkts - 1 downto 0 do
    let s = shard_route sh pkts.(i) in
    buckets.(s) <- pkts.(i) :: buckets.(s)
  done;
  let streams = Array.map Array.of_list buckets in
  let t0 = Unix.gettimeofday () in
  let doms =
    Array.mapi
      (fun s stream ->
        Domain.spawn (fun () ->
            Array.iter (fun p -> ignore (step sh.shards.(s) p)) stream))
      streams
  in
  Array.iter Domain.join doms;
  Unix.gettimeofday () -. t0

let shard_merged_store sh =
  let stores = Array.map (fun t -> Flowstate.snapshot t.state) sh.shards in
  Smap.mapi
    (fun name v0 ->
      match (v0, table_router sh.scp name) with
      | Value.Dict _, Some _ ->
          let kvs =
            Array.fold_left
              (fun acc st ->
                match Smap.find_opt name st with
                | Some (Value.Dict kvs) ->
                    List.merge (fun (a, _) (b, _) -> Value.compare a b) acc kvs
                | _ -> acc)
              [] stores
          in
          Value.Dict kvs
      | _ -> v0)
    stores.(0)

let shard_snapshot_hops sh = Chainplan.split_store sh.scp (shard_merged_store sh)

let shard_hop_stats sh =
  Array.to_list
    (Array.mapi
       (fun i (h : Chainplan.hop) ->
         ( h.Chainplan.h_id,
           Engine.merge_stats
             (Array.map (fun t -> t.engines.(i).Engine.stats) sh.shards) ))
       sh.scp.Chainplan.hops)

let shard_fused_walks sh =
  Array.fold_left (fun acc t -> acc + t.fused_walks) 0 sh.shards

let shard_injected sh = Array.fold_left (fun acc t -> acc + t.injected) 0 sh.shards
