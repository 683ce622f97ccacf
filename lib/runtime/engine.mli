(** Batched execution of a compiled plan over a mutable flow-state
    store.

    Per packet the engine walks the plan's decision structure from the
    root: state nodes probe the flow's current state value once and
    branch on it (the per-flow FSM level), expression nodes branch on a
    hash or interval lookup of a packet/store value, truthiness nodes
    on an atom's boolean — until a leaf, whose candidates are tested in
    order on their remaining literals. Every literal verdict is cached
    per packet in a generation-stamped slot array, so a literal shared
    by many entries evaluates at most once. The first entry whose
    remaining slots all hold fires, exactly like
    {!Nfactor.Model_interp.step}.

    Counter taxonomy: a fired packet is attributed to exactly one
    dispatch level — [fsm_hits] when its path crossed a state node,
    else [index_hits] (hash node), else [tree_hits] (interval or
    truthiness node), else [scan_hits] (root-leaf plans and
    residual-match entries, which only the ordered scan resolves).
    Candidate tests under a dispatch node count as [leaf_tests];
    ordered-scan work (undispatched walks and residual candidates)
    counts as [scan_tests]. *)

type stats = {
  mutable packets : int;
  entry_hits : int array;  (** fires per source-model entry index *)
  mutable fsm_hits : int;  (** resolved through a per-flow state node *)
  mutable index_hits : int;  (** resolved through a hash node *)
  mutable tree_hits : int;  (** resolved through interval/truthiness nodes *)
  mutable scan_hits : int;  (** resolved by the ordered scan *)
  mutable leaf_tests : int;  (** candidate tests under dispatch nodes *)
  mutable scan_tests : int;  (** candidate tests attributable to scanning *)
  mutable miss_no_config : int;
      (** drops because no entry survived static config evaluation *)
  mutable miss_no_match : int;  (** drops because no live entry matched *)
}

type t = {
  mutable plan : Compile.t;  (** swappable between packets, see {!swap_plan} *)
  state : Flowstate.t;
  stats : stats;
  mutable cache : int array;  (** per-literal [(gen lsl 1) lor verdict] stamps *)
  mutable gen : int;
  mutable pmask : int;
      (** dispatch levels crossed by the current packet's walk
          (1 = state, 2 = hash, 4 = tree), for hit attribution *)
  mutable uscratch : Symexec.Value.t array;
      (** reusable buffer for resolved update values, sized by the
          plan's [max_uslots] — updates resolve against the pre-state
          into this scratch, then commit, with no per-fire allocation *)
}

val create : ?capacity:int -> Compile.t -> store:Nfactor.Model_interp.store -> t
(** Fresh engine over [store] (scalars + flow tables, see
    {!Flowstate.create}); [capacity] bounds each flow table with LRU
    eviction — leave it unset for exact interpreter equivalence. *)

val of_flowstate : Compile.t -> Flowstate.t -> t
(** Engine over an existing store — the sharded dataplane creates one
    engine per shard-local store (chained over the shared store). *)

val of_model :
  ?capacity:int ->
  Nfactor.Model.t ->
  config:Nfactor.Model_interp.store ->
  store:Nfactor.Model_interp.store ->
  t
(** Compile against [config] and create in one step. [config] and
    [store] are usually the same extraction-time initial store. *)

val swap_plan : t -> Compile.t -> unit
(** Point the engine at a replacement plan between packets — the
    engine half of RCU reconfiguration: the new plan is built off to
    the side (see {!Compile.compile}), then adopted here by swapping
    one pointer, re-sizing the per-literal verdict cache (slot
    numbering is per-plan) and growing the update scratch. Counters
    survive: entry indices refer to the source model.
    @raise Invalid_argument when the new plan's model has a different
    entry count. *)

type outcome = {
  outputs : Packet.Pkt.t list;
  fired : int option;  (** source-model entry index; [None] = drop by miss *)
}

val step : t -> Packet.Pkt.t -> outcome
(** Process one packet: advance the logical clock, match, emit outputs
    (evaluated against the pre-state), then commit state updates —
    same observable order as the reference interpreter. *)

val step_at : t -> root:Compile.dnode -> Packet.Pkt.t -> outcome
(** {!step}, but walking from [root] instead of the plan's root —
    [root] must be a node of the engine's current plan. The chain
    linker uses this to enter a hop's tree below dispatch nodes it
    already decided at link time (see {!Chainplan}); counters
    attribute exactly as if the walk had crossed the skipped prefix
    minus the skipped nodes' own levels. *)

val run_batch : t -> Packet.Pkt.t array -> outcome array
(** {!step} over an array, in order. Timed runs pass it to
    {!Packet.Traffic.time_batches}. *)

(** {1 Deferred execution — the sharded dataplane's phase protocol} *)

type pending
(** A parallel-phase match whose fire was deferred to the serial
    phase: carries the matched entry and the walk's attribution mask,
    so the packet is never walked twice and every counter is recorded
    exactly once. *)

val step_or_defer :
  t ->
  serial:(int -> bool) ->
  Packet.Pkt.t ->
  [ `Out of outcome | `Defer of pending | `Rewalk ]
(** One parallel-phase step. [`Rewalk]: the walk read through a frozen
    store ({!Flowstate.frozen_hits} advanced), so its verdict may be
    stale — all counters it touched are rolled back and the caller
    must re-run the packet serially with {!step}. [`Defer p]: the walk
    is exact but [serial eidx] holds for the matched entry (its fire
    touches shared state) — the match stands, complete it with
    {!fire_pending} in the serial phase. Otherwise the packet is fully
    handled and [`Out] carries its outcome. *)

val fire_pending : t -> Packet.Pkt.t -> pending -> outcome
(** Serial-phase completion of a [`Defer]: attribution and fire only —
    emits and updates evaluate fresh against the now-current state; no
    second walk, no second packet count. *)

val snapshot : t -> Nfactor.Model_interp.store
(** Final state as an interpreter store, comparable against
    {!Nfactor.Model_interp.run}. *)

(** {1 Telemetry} *)

val evictions : t -> int
(** LRU evictions from this engine's own store (its local cells only,
    not stores it chains over). *)

val merge_stats : stats array -> stats
(** Field-wise sum — the merged view of per-shard counters. The packet
    walk happens on exactly one shard (parallel or serial phase), so
    summed counters are comparable 1:1 against a single engine's.
    @raise Invalid_argument on an empty array. *)

val pp_stats : Format.formatter -> t -> unit

val pp_stats_of : evictions:int -> Format.formatter -> stats -> unit
(** {!pp_stats} over explicit counters — for merged multi-shard views. *)

val stats_json : t -> string
(** Counters as a one-line JSON object (packets, per-level hits,
    misses, evictions) — consumed by the CLI and CI smoke checks. *)

val stats_json_of :
  nf:string -> plan:Compile.t -> evictions:int -> stats -> string
(** {!stats_json} over explicit parts — used for per-shard and merged
    views with deterministic field ordering. *)

val class_index : Compile.vdispatch -> Symexec.Value.t -> int
(** Child index a dispatch value routes to — the engine's own routing,
    exposed so the chain linker resolves statically-known dispatch
    values to the same child the runtime walk would take. *)
