(** Sharded multicore dataplane: flow-key domain sharding with an
    RCU-style plan swap.

    One {!Engine.t} per OCaml domain, each owning a shard-local store
    of per-flow tables chained over one shared read/write store
    (scalars + global tables) and one pinned config store
    ({!Shardplan} decides the split). Batches run in two phases:
    a parallel phase with the shared store frozen — packets whose walk
    provably touched only shard-local and pinned state complete in
    place — and a serial phase replaying every deferred packet in
    global arrival order (dirty same-flow hashes, walks that read
    through the frozen store, and fires of serial entries).

    With unbounded stores the merged result — outputs, final store,
    merged counters — is differentially exact against a single engine
    fed the same stream. A capacity bound keeps the same reachable
    behavior but may evict in a different order (per-shard clocks;
    see DESIGN.md §13). *)

type t

val create :
  ?capacity:int ->
  nshards:int ->
  Nfactor.Model.t ->
  config:Nfactor.Model_interp.store ->
  t
(** Compile the model ([~shared:true]), analyze its sharding, split
    the initial store and spawn [nshards - 1] worker domains (shard 0
    runs on the calling thread). [capacity] bounds each per-flow table
    of the shard-local and shared stores.
    @raise Invalid_argument when [nshards < 1] or an oisVar is not
    seeded in [config]. *)

val shutdown : t -> unit
(** Stop and join the worker domains; idempotent. Further batch calls
    raise [Invalid_argument]. *)

val nshards : t -> int
val spec : t -> Shardplan.spec
val plan : t -> Compile.t

val swap_plan : t -> Compile.t -> unit
(** Publish a replacement plan (RCU): it must be compiled
    [~shared:true] over a model with the same entry count, and its
    sharding analysis must be {!Shardplan.compatible} with the layout
    fixed at {!create}. Engines adopt it at the next batch boundary —
    a quiescent point — and keep their counters. Callable between
    batches from any thread. *)

(** {1 Batch execution} *)

val run_batch : t -> Packet.Pkt.t array -> Engine.outcome array
(** Process one batch; [result.(i)] is packet [i]'s outcome, identical
    to a single engine stepping the same array in order (unbounded
    stores). Packets are routed to shards by flow-key hash inside. *)

(** {1 Merged views} *)

val snapshot : t -> Nfactor.Model_interp.store
(** Deterministic merge of the config, shared and per-shard partitions
    back into one interpreter store: partitions hold disjoint names,
    shard copies of a sharded table hold disjoint keys, and sorted
    dictionaries merge by key — byte-comparable against a single
    engine's {!Engine.snapshot}. *)

val stats : t -> Engine.stats array
(** Live per-shard counters, indexed by shard. *)

val merged_stats : t -> Engine.stats
(** Field-wise sum over shards ({!Engine.merge_stats}); comparable 1:1
    against a single engine's counters. *)

val evictions : t -> int
(** Total LRU evictions across the shared and shard-local stores. *)

val deferred : t -> int
(** Packets that took the serial phase so far (telemetry: the
    complement of the parallel fraction). *)

val batches : t -> int

val stats_json : t -> nf:string -> string
(** One-line JSON: sharding summary, merged counters, then per-shard
    counter objects in shard-index order — field order deterministic. *)
