(** Sharded multicore dataplane: one {!Engine.t} per OCaml domain,
    packets routed by flow-key hash, exactness recovered by a
    two-phase batch protocol.

    {b Store layout.} {!Shardplan.analyze} splits the initial store
    three ways: sharded flow tables are partitioned by key into one
    store per shard; oisVar scalars and global tables go to one shared
    read/write store; config values go to a pinned (immutable) store.
    Each shard's store chains local → shared-rw → config, so any name
    an entry mentions resolves exactly as in the single store.

    {b Phase A (parallel).} The shared-rw store is frozen and every
    shard walks its packets concurrently. Three exits take a packet
    out of the fast path, all deferring it: its flow hash is already
    {e dirty} (an earlier packet of the batch deferred on the same
    flow, so this packet might read a not-yet-applied write); its walk
    {e read through the frozen store} (detected by the
    {!Flowstate.frozen_hits} delta — the verdict may be stale, so its
    counters are rolled back for a full serial re-run); or it matched
    a {e serial} entry (the match is exact — it provably read only
    shard-local and pinned state — but the fire writes shared state,
    so only the fire waits). Everything else completes in place: such
    a packet's walk touched nothing any deferred packet can write, so
    its outcome, state effect and counters equal the sequential run's.

    {b Phase B (serial).} After a barrier the store thaws and the
    driver replays the deferred packets in global arrival order on
    their owning shards' engines: saved matches just fire
    ({!Engine.fire_pending}); the rest re-step from scratch. Every
    packet is thus processed exactly once, and the merged result —
    outputs, final store, counters — is differentially exact against
    one engine fed the same stream, whenever stores are unbounded (a
    capacity bound may evict in a different order, because recency
    stamps from rolled-back walks and per-shard clocks are not
    reproduced; see DESIGN.md §13).

    {b RCU plan swap.} The current plan lives in an [Atomic.t]; a
    replacement is compiled off to the side ([~shared:true], so the
    plan is immutable and sharable) and published with one atomic
    store. Engines adopt it at the next batch boundary — a quiescent
    point, so no walk ever sees two plans. *)

module Smap = Nfactor.Model_interp.Smap

(* ------------------------------------------------------------------ *)
(* Worker plumbing                                                     *)
(* ------------------------------------------------------------------ *)

(* A deferred packet: global batch index, owning shard, and the saved
   match when only the fire was deferred ([None] = full re-step). *)
type ditem = {
  dg : int;
  dp : Packet.Pkt.t;
  dshard : int;
  dpend : Engine.pending option;
}

type jobspec = {
  j_pkts : Packet.Pkt.t array;
  j_gidx : int array;  (** global batch index per packet *)
  j_kh : int array;  (** precomputed flow-key hash per packet *)
  j_out : Engine.outcome array;  (** shared; disjoint slots per shard *)
  j_serial : bool array;
}

type job = Run of jobspec | Quit

type latch = { lm : Mutex.t; lc : Condition.t; mutable l_pending : int }

type worker = {
  w_shard : int;
  w_eng : Engine.t;
  w_m : Mutex.t;
  w_cv : Condition.t;
  mutable w_job : job option;
  mutable w_deferred : ditem list;  (** result of the last job, in order *)
  mutable w_dom : unit Domain.t option;
}

(* Phase A over one shard's slice. The dirty set is keyed on the raw
   flow hash: collisions only defer spuriously, never unsoundly. *)
let phase_a eng shard (j : jobspec) =
  let dirty : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let defs = ref [] in
  let serial i = j.j_serial.(i) in
  let defer g p pend kh =
    Hashtbl.replace dirty kh ();
    defs := { dg = g; dp = p; dshard = shard; dpend = pend } :: !defs
  in
  for i = 0 to Array.length j.j_pkts - 1 do
    let p = j.j_pkts.(i) and g = j.j_gidx.(i) and kh = j.j_kh.(i) in
    if Hashtbl.mem dirty kh then defer g p None kh
    else
      match Engine.step_or_defer eng ~serial p with
      | `Out o -> j.j_out.(g) <- o
      | `Defer pend -> defer g p (Some pend) kh
      | `Rewalk -> defer g p None kh
  done;
  List.rev !defs

let worker_loop w latch =
  let rec loop () =
    Mutex.lock w.w_m;
    while w.w_job = None do
      Condition.wait w.w_cv w.w_m
    done;
    let job = Option.get w.w_job in
    w.w_job <- None;
    Mutex.unlock w.w_m;
    match job with
    | Quit -> ()
    | Run j ->
        w.w_deferred <- phase_a w.w_eng w.w_shard j;
        Mutex.lock latch.lm;
        latch.l_pending <- latch.l_pending - 1;
        if latch.l_pending = 0 then Condition.signal latch.lc;
        Mutex.unlock latch.lm;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The sharded engine                                                  *)
(* ------------------------------------------------------------------ *)

type t = {
  nshards : int;
  spec : Shardplan.spec;  (** fixed: it defines the physical layout *)
  mutable serial : bool array;  (** refreshed on plan swap *)
  plan_cell : Compile.t Atomic.t;
  config : Nfactor.Model_interp.store;
  static_st : Flowstate.t;
  rw_global : Flowstate.t;
  engines : Engine.t array;  (** engines.(s) owns shard [s]'s store *)
  workers : worker array;  (** shards 1..n-1; shard 0 runs on the driver *)
  latch : latch;
  mutable n_deferred : int;
  mutable n_batches : int;
  mutable stopped : bool;
}

let nshards t = t.nshards
let spec t = t.spec
let plan t = Atomic.get t.plan_cell
let deferred t = t.n_deferred
let batches t = t.n_batches

let create ?capacity ~nshards model ~config =
  if nshards < 1 then invalid_arg "Shard.create: nshards must be >= 1";
  let plan = Compile.compile ~shared:true model ~config in
  let spec = Shardplan.analyze model ~config ~live:plan.Compile.live_idx in
  (* Every state-update target must be seeded in the initial store, so
     writes always route to an owning store (never create names at the
     chain root, where later frozen-phase reads could miss their
     staleness). The extractor seeds every oisVar, so this holds for
     the whole corpus. *)
  List.iter
    (fun v ->
      if not (Smap.mem v config) then
        invalid_arg ("Shard.create: unseeded state variable " ^ v))
    model.Nfactor.Model.ois_vars;
  let ois = model.Nfactor.Model.ois_vars in
  let static_b = ref Smap.empty and rw_b = ref Smap.empty in
  let shard_b = Array.make nshards Smap.empty in
  Smap.iter
    (fun name v ->
      if List.mem name ois then
        match (v, Shardplan.router spec name) with
        | Symexec.Value.Dict kvs, Some route ->
            let parts = Array.make nshards [] in
            List.iter
              (fun kv ->
                let s = route (fst kv) mod nshards in
                parts.(s) <- kv :: parts.(s))
              kvs;
            Array.iteri
              (fun s part ->
                shard_b.(s) <-
                  Smap.add name (Symexec.Value.Dict (List.rev part)) shard_b.(s))
              parts
        | _ -> rw_b := Smap.add name v !rw_b
      else static_b := Smap.add name v !static_b)
    config;
  let static_st = Flowstate.create !static_b in
  Flowstate.pin static_st;
  let rw_global = Flowstate.create ?capacity ~fallback:static_st !rw_b in
  let engines =
    Array.init nshards (fun s ->
        Engine.of_flowstate plan
          (Flowstate.create ?capacity ~fallback:rw_global shard_b.(s)))
  in
  let latch = { lm = Mutex.create (); lc = Condition.create (); l_pending = 0 } in
  let workers =
    Array.init (nshards - 1) (fun i ->
        {
          w_shard = i + 1;
          w_eng = engines.(i + 1);
          w_m = Mutex.create ();
          w_cv = Condition.create ();
          w_job = None;
          w_deferred = [];
          w_dom = None;
        })
  in
  Array.iter
    (fun w -> w.w_dom <- Some (Domain.spawn (fun () -> worker_loop w latch)))
    workers;
  {
    nshards;
    spec;
    serial = spec.Shardplan.serial;
    plan_cell = Atomic.make plan;
    config;
    static_st;
    rw_global;
    engines;
    workers;
    latch;
    n_deferred = 0;
    n_batches = 0;
    stopped = false;
  }

let swap_plan t plan' =
  if not plan'.Compile.shared then
    invalid_arg "Shard.swap_plan: plan must be compiled ~shared:true";
  let model' = plan'.Compile.model in
  if Nfactor.Model.entry_count model' <> Array.length t.serial then
    invalid_arg "Shard.swap_plan: different entry count";
  let spec' =
    Shardplan.analyze model' ~config:t.config ~live:plan'.Compile.live_idx
  in
  if not (Shardplan.compatible ~existing:t.spec spec') then
    invalid_arg "Shard.swap_plan: incompatible sharding (repartition required)";
  t.serial <- spec'.Shardplan.serial;
  Atomic.set t.plan_cell plan'
  (* engines adopt it at the next batch boundary *)

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)
(* ------------------------------------------------------------------ *)

let run_batch t pkts =
  if t.stopped then invalid_arg "Shard: engine was shut down";
  let n = Array.length pkts in
  let out = Array.make n { Engine.outputs = []; fired = None } in
  if n > 0 then begin
    (* Quiescent point: adopt a swapped plan on every engine. *)
    let plan = Atomic.get t.plan_cell in
    Array.iter
      (fun eng -> if eng.Engine.plan != plan then Engine.swap_plan eng plan)
      t.engines;
    (* Partition by flow-key hash, preserving arrival order per shard. *)
    let khs = Array.map (fun p -> Shardplan.hash t.spec p) pkts in
    let counts = Array.make t.nshards 0 in
    Array.iter
      (fun kh ->
        let s = kh mod t.nshards in
        counts.(s) <- counts.(s) + 1)
      khs;
    let jobs =
      Array.init t.nshards (fun s ->
          {
            j_pkts = Array.make counts.(s) pkts.(0);
            j_gidx = Array.make counts.(s) 0;
            j_kh = Array.make counts.(s) 0;
            j_out = out;
            j_serial = t.serial;
          })
    in
    let fill = Array.make t.nshards 0 in
    Array.iteri
      (fun g p ->
        let s = khs.(g) mod t.nshards in
        let j = jobs.(s) and i = fill.(s) in
        j.j_pkts.(i) <- p;
        j.j_gidx.(i) <- g;
        j.j_kh.(i) <- khs.(g);
        fill.(s) <- i + 1)
      pkts;
    (* Phase A: freeze shared state, fan out, run shard 0 inline. *)
    Flowstate.freeze t.rw_global;
    Mutex.lock t.latch.lm;
    t.latch.l_pending <- Array.length t.workers;
    Mutex.unlock t.latch.lm;
    Array.iter
      (fun w ->
        Mutex.lock w.w_m;
        w.w_job <- Some (Run jobs.(w.w_shard));
        Condition.signal w.w_cv;
        Mutex.unlock w.w_m)
      t.workers;
    let d0 = phase_a t.engines.(0) 0 jobs.(0) in
    Mutex.lock t.latch.lm;
    while t.latch.l_pending > 0 do
      Condition.wait t.latch.lc t.latch.lm
    done;
    Mutex.unlock t.latch.lm;
    Flowstate.thaw t.rw_global;
    (* Phase B: deferred packets in global arrival order. *)
    let all =
      Array.fold_left
        (fun acc w -> List.rev_append (List.rev w.w_deferred) acc)
        (List.rev d0) t.workers
      |> List.rev
      |> List.sort (fun a b -> compare a.dg b.dg)
    in
    t.n_deferred <- t.n_deferred + List.length all;
    List.iter
      (fun d ->
        let eng = t.engines.(d.dshard) in
        out.(d.dg) <-
          (match d.dpend with
          | Some pend -> Engine.fire_pending eng d.dp pend
          | None -> Engine.step eng d.dp))
      all;
    t.n_batches <- t.n_batches + 1
  end;
  out

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    Array.iter
      (fun w ->
        Mutex.lock w.w_m;
        w.w_job <- Some Quit;
        Condition.signal w.w_cv;
        Mutex.unlock w.w_m)
      t.workers;
    Array.iter
      (fun w -> match w.w_dom with Some d -> Domain.join d | None -> ())
      t.workers
  end

(* ------------------------------------------------------------------ *)
(* Merged views                                                        *)
(* ------------------------------------------------------------------ *)

(* The three partitions hold disjoint name sets; shard-local stores
   hold the same (sharded) names with disjoint key sets, merged by
   sorted-list merge to restore the Dict invariant. *)
let snapshot t =
  let merge_cell _ a b =
    match (a, b) with
    | Symexec.Value.Dict x, Symexec.Value.Dict y ->
        Some
          (Symexec.Value.Dict
             (List.merge
                (fun (k1, _) (k2, _) -> Symexec.Value.compare k1 k2)
                x y))
    | _, b -> Some b
  in
  let base =
    Smap.union merge_cell
      (Flowstate.snapshot t.static_st)
      (Flowstate.snapshot t.rw_global)
  in
  Array.fold_left
    (fun acc eng -> Smap.union merge_cell acc (Engine.snapshot eng))
    base t.engines

let stats t = Array.map (fun eng -> eng.Engine.stats) t.engines

let merged_stats t = Engine.merge_stats (stats t)

let evictions t =
  Array.fold_left
    (fun acc eng -> acc + Engine.evictions eng)
    (Flowstate.evictions t.rw_global)
    t.engines

(* Deterministic shape: merged object first, then per-shard objects in
   shard-index order. *)
let stats_json t ~nf =
  let plan = Atomic.get t.plan_cell in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"nf\":%s,\"shards\":%d,\"flow_key\":[%s],\"serial_entries\":%d,\"deferred\":%d,\"batches\":%d,\"merged\":"
       (Nfactor.Json.quote nf) t.nshards
       (String.concat ","
          (List.map Nfactor.Json.quote t.spec.Shardplan.key_fields))
       (Array.fold_left (fun a s -> if s then a + 1 else a) 0 t.serial)
       t.n_deferred t.n_batches);
  Buffer.add_string b
    (Engine.stats_json_of ~nf ~plan ~evictions:(evictions t) (merged_stats t));
  Buffer.add_string b ",\"per_shard\":[";
  Array.iteri
    (fun s eng ->
      if s > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Engine.stats_json_of ~nf ~plan ~evictions:(Engine.evictions eng)
           eng.Engine.stats))
    t.engines;
  Buffer.add_string b "]}";
  Buffer.contents b
