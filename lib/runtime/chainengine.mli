(** Batched execution of a linked chain plan ({!Chainplan}) over one
    shared {!Flowstate}.

    One engine per hop, all chained over a single namespaced store.
    Packets traverse the chain breadth-first exactly like
    {!Verify.Network.push} — every packet alive at hop [i] steps
    through it (state updates committing in packet order) before any
    moves to hop [i+1] — so outputs, per-hop traces and final stores
    are differentially comparable against the interpreter chain.

    A packet emitted by an upstream entry whose fused start node was
    pre-decided at link time enters the next hop {e below} its root
    ([fused_walks] counts these); everything else is a plan-to-plan
    handoff from the root ([handoffs]) — no packet is ever
    re-materialized between hops either way.

    {b Sharded chains.} When {!Chainplan.shard_spec} admits it, a
    chain runs as N fully independent per-domain replicas: flow-key
    sharded tables split by the chain's router, everything else
    replicated. No serial phase and no frozen-store protocol are
    needed — the spec only says [Ok] when no hop touches shared
    mutable state — so shards never synchronize between batches. *)

type t = {
  cp : Chainplan.t;
  state : Flowstate.t;  (** the one store all hop engines share *)
  engines : Engine.t array;  (** per hop, in chain order *)
  mutable injected : int;
  mutable fused_walks : int;  (** walks started below a hop root *)
  mutable handoffs : int;  (** non-fused hop-to-hop handoffs *)
}

val create : ?capacity:int -> Chainplan.t -> t
(** Fresh chain engine over the plan's merged initial store;
    [capacity] bounds each flow table (leave unset for exact
    interpreter equivalence). *)

val step : t -> Packet.Pkt.t -> Packet.Pkt.t list
(** One packet through the whole chain; returns the packets emerging
    from the last hop. State updates stick. *)

type hoprec = {
  hop_id : string;
  entered : Packet.Pkt.t list;
  left : Packet.Pkt.t list;
}
(** Mirrors {!Verify.Network.hop} for trace-level differential checks. *)

val step_trace : t -> Packet.Pkt.t -> Packet.Pkt.t list * hoprec list

val run_batch : t -> Packet.Pkt.t array -> Packet.Pkt.t list array
(** {!step} over an array, in order. Timed runs pass it to
    {!Packet.Traffic.time_batches}. *)

val delivered : t -> int
(** Packets that emerged from the last hop (derived from its entry-hit
    counters). *)

val snapshot_hops : t -> (string * Nfactor.Model_interp.store) list
(** Per-hop final stores with original variable names, in chain order
    — comparable against {!Verify.Network} node stores. *)

val hop_stats : t -> (string * Engine.stats) list
val pp_stats : Format.formatter -> t -> unit

val stats_json : t -> string
(** Chain counters plus per-hop engine counters as one JSON object. *)

(** {1 Sharded chain execution} *)

type sharded

val shard : ?capacity:int -> Chainplan.t -> nshards:int -> (sharded, string) result
(** Partition the chain across [nshards] domain-private replicas.
    [Error] (the first obstruction, verbatim from
    {!Chainplan.shard_spec}) when the chain does not shard. Re-links
    the plan with [shared:true] when needed, so the caller's plan is
    untouched. *)

val shard_run_batch : sharded -> Packet.Pkt.t array -> Packet.Pkt.t list array
(** In-order sequential execution (shard selected per packet) — the
    exactness side: outputs must equal {!run_batch} on a single chain
    engine packet-for-packet. *)

val shard_replay : sharded -> pkts:Packet.Pkt.t array -> float
(** Parallel execution: the stream is partitioned by the chain router
    and each shard's sub-stream runs on its own domain. Returns
    wall-clock seconds including domain spawn/join. *)

val shard_snapshot_hops : sharded -> (string * Nfactor.Model_interp.store) list
(** Per-hop final stores of the merged (sharded tables unioned,
    replicated state from shard 0) chain store. *)

val shard_hop_stats : sharded -> (string * Engine.stats) list
(** Per-hop counters summed across shards — comparable 1:1 against a
    single chain engine's on the same stream. *)

val shard_fused_walks : sharded -> int
val shard_injected : sharded -> int
