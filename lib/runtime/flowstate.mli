(** Managed mutable state store for the compiled dataplane.

    The reference interpreter ({!Nfactor.Model_interp}) threads a
    persistent [Value.t Smap.t] through every step and rebuilds
    dictionary values (sorted association lists) on each write — O(n)
    per flow-table insert. This store replaces that with scalar cells
    plus hash-backed per-flow tables keyed on the tested key
    expression's concrete value, with an optional capacity bound and
    LRU eviction driven by a logical packet clock.

    {b Fallback chaining.} A store may delegate to a [fallback]: a
    name missing from its own cells resolves in the fallback,
    recursively. The sharded dataplane ({!Shard}) partitions one
    interpreter store into per-shard flow-table stores chained over a
    shared store of scalars and cross-flow tables; writes route to the
    store owning the name (new names are created at the chain root).
    A store with no fallback behaves exactly as before.

    {b Freezing.} {!freeze} marks a store as shared read-only for a
    parallel phase: probes of a frozen store skip the table memo and
    the recency stamp — the two read-path mutations — so concurrent
    readers from several domains are race-free. Every read that
    resolves in (or misses through) a frozen store increments the
    {e querying} store's {!frozen_hits} counter; the sharded engine
    snapshots it around each packet to detect walks whose verdict
    depends on shared mutable state and must re-run serially.

    Missing names and non-dictionary bases raise
    {!Nfactor.Model_interp.Unresolved}, exactly like the reference
    evaluator, so compiled literal evaluation keeps its
    false-on-unresolved semantics. *)

open Symexec

type t

val create : ?capacity:int -> ?fallback:t -> Nfactor.Model_interp.store -> t
(** Load an interpreter store: [Value.Dict] values become hash tables,
    everything else a scalar cell. [capacity] bounds {e each} per-flow
    table; inserting into a full table evicts the least-recently-used
    key first (ties broken on the smaller key, so eviction is
    deterministic). Omitted = unbounded, which is required for exact
    equivalence with the reference interpreter (it never evicts).
    [fallback] chains name resolution (see module doc).
    @raise Invalid_argument when [capacity < 1]. *)

val capacity : t -> int option

val define : t -> string -> Value.t -> unit
(** Install a binding directly into {e this} store's cells, bypassing
    the fallback routing of {!set_scalar} — used when partitioning a
    store to seed shard-local tables. *)

(** {1 Logical packet clock} *)

val clock : t -> int

val bump_clock : t -> unit
(** Advance the clock; the engine calls this once per packet. Reads
    and writes stamp the touched table key with the current clock,
    which is the recency order eviction uses. *)

(** {1 Freezing (parallel read phases)} *)

val freeze : t -> unit
val thaw : t -> unit

val pin : t -> unit
(** Mark this store immutable for the rest of the run (the config
    partition): reads of it skip the memo and recency stamp — the same
    race-freedom as {!freeze} — but are {e not} charged to
    {!frozen_hits}, because a never-written store cannot make a
    parallel-phase verdict stale. Irreversible by design. *)

val frozen_hits : t -> int
(** Monotonic count of reads {e issued through this store} that
    resolved in (or missed through) a frozen store on its fallback
    chain. Delta ≠ 0 across a packet ⟹ the packet consulted shared
    mutable state. *)

(** {1 Reads} *)

val read : t -> string -> Value.t
(** Scalar read; a table materializes back into a (sorted)
    [Value.Dict]. Resolves through the fallback chain.
    @raise Nfactor.Model_interp.Unresolved on missing names. *)

type handle
(** A resolved per-flow table (and its owning store). Resolving
    ({!handle}) and querying are split so compiled dictionary atoms
    can mirror the reference evaluator's order: base resolution fails
    before any key is evaluated. *)

val handle : t -> string -> handle
(** @raise Nfactor.Model_interp.Unresolved when [name] is absent or
    not a table. *)

val handle_mem : t -> handle -> Value.t -> bool
val handle_find : t -> handle -> Value.t -> Value.t option

val handle_get : t -> handle -> Value.t -> Value.t
(** Like {!handle_find} but allocation-free.
    @raise Stdlib.Not_found when the key is absent. *)

val state_read :
  t -> string -> Value.t -> [ `Absent | `No_table | `Value of Value.t ]
(** One probe of per-flow state for the engine's FSM dispatch level:
    [`Value v] when [name] is a table holding [k] (stamps recency),
    [`Absent] when the table exists without the key, [`No_table] when
    [name] is missing or scalar. Never raises — the dispatch maps
    [`No_table] to the same class as an unresolved read. *)

val table_mem : t -> string -> Value.t -> bool
val table_find : t -> string -> Value.t -> Value.t option
val table_size : t -> string -> int

(** {1 Writes} *)

val set_scalar : t -> string -> Value.t -> unit
(** Assigning a [Value.Dict] (re)creates a table; its slots are
    stamped with the current clock, so keys written through a
    whole-dict overwrite are as recent as any other write. Routes to
    the store owning the name; unowned names are created at the chain
    root. *)

val table_set : t -> string -> Value.t -> Value.t -> unit
(** Insert or update; inserting into a table at capacity evicts the
    LRU key first. Capacity and eviction accounting are the {e owning}
    store's; the recency stamp is the querying store's clock. *)

val table_remove : t -> string -> Value.t -> unit

(** {1 Telemetry and snapshots} *)

val evictions : t -> int
(** Total keys evicted from tables {e owned by this store} since
    {!create}. *)

val snapshot : t -> Nfactor.Model_interp.store
(** Materialize {e this store's own cells} back into an interpreter
    store (tables become sorted [Value.Dict]s) — byte-comparable
    against {!Nfactor.Model_interp.run}'s final store for unchained
    stores; a partitioned store merges shard snapshots explicitly. *)
