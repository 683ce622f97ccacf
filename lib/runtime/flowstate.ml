(** Managed mutable state store: scalar cells + hash-backed per-flow
    tables with a capacity bound and clock-driven LRU eviction.

    Stores chain through an optional [fallback]: a name missing from
    this store's cells resolves in the fallback (recursively). The
    sharded dataplane builds a per-shard store of flow tables over one
    shared store of scalars and cross-flow tables; a plain engine
    store has no fallback and behaves exactly as before. *)

open Symexec

type slot = { mutable v : Value.t; mutable last_used : int }

(* Each table carries a one-entry probe memo: within one packet the
   same flow key is typically probed several times (state dispatch,
   match literals, emit reads, update keys), and a memo hit costs one
   structural key comparison instead of a hash traversal plus bucket
   walk. The memo holds the slot record itself, so in-place value
   updates stay coherent; only structural changes (insert, remove,
   evict, whole-table rebuild) invalidate it. *)
type table = {
  slots : (Value.t, slot) Hashtbl.t;
  mutable m_valid : bool;
  mutable m_key : Value.t;
  mutable m_slot : slot option;  (* [None] = key probed absent *)
}

type cell = Scalar of Value.t | Table of table

type t = {
  cells : (string, cell) Hashtbl.t;
  cap : int option;
  mutable clock : int;
  mutable evictions : int;
  fallback : t option;
  (* [frozen] marks a store as shared read-only for the duration of a
     parallel phase: probes of a frozen store skip the table memo and
     the recency stamp (both are mutations), so concurrent readers
     from several domains are race-free. *)
  mutable frozen : bool;
  (* [pinned] marks a store whose contents never change at run time
     (the config partition): reads skip the memo and recency stamp
     exactly like [frozen] — so concurrent domain reads are race-free —
     but are NOT charged to [frozen_hits], because a never-written
     store cannot make a verdict stale. *)
  mutable pinned : bool;
  (* Reads by THIS store that resolved in a frozen ancestor. The
     sharded engine snapshots this around each packet: a delta means
     the packet's walk consulted shared mutable state, so its verdict
     may be stale and the packet must be re-run serially. The counter
     lives on the entry store (one per domain), never on the shared
     ancestor, so no two domains ever write it. *)
  mutable frozen_hits : int;
}

(* The store a read through [t] actually resolved in. *)
type resolution = { owner : t; rcell : cell }

let unresolved name = raise (Nfactor.Model_interp.Unresolved name)

let mk_table slots =
  { slots; m_valid = false; m_key = Value.Bool false; m_slot = None }

(* [clock] is the recency stamp for every loaded slot: a table built
   mid-run (whole-dict overwrite) must stamp with the current clock or
   its fresh keys become the first LRU eviction victims. [size]
   pre-sizes the bucket array — load-time tables get a large one so
   steady-state inserts don't pay repeated rehash-everything growth. *)
let table_of_kvs ~clock ?(size = 16) kvs =
  let h = Hashtbl.create (max size (2 * List.length kvs)) in
  List.iter (fun (k, v) -> Hashtbl.replace h k { v; last_used = clock }) kvs;
  mk_table h

let cell_of_value ~clock ?size v =
  match v with
  | Value.Dict kvs -> Table (table_of_kvs ~clock ?size kvs)
  | v -> Scalar v

let create ?capacity ?fallback (store : Nfactor.Model_interp.store) =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Flowstate.create: capacity must be >= 1"
  | _ -> ());
  let cells = Hashtbl.create 16 in
  Nfactor.Model_interp.Smap.iter
    (fun name v -> Hashtbl.replace cells name (cell_of_value ~clock:0 ~size:4096 v))
    store;
  {
    cells;
    cap = capacity;
    clock = 0;
    evictions = 0;
    fallback;
    frozen = false;
    pinned = false;
    frozen_hits = 0;
  }

let capacity t = t.cap
let clock t = t.clock
let bump_clock t = t.clock <- t.clock + 1
let evictions t = t.evictions

let define t name v =
  Hashtbl.replace t.cells name (cell_of_value ~clock:t.clock ~size:4096 v)

let freeze t = t.frozen <- true
let thaw t = t.frozen <- false
let pin t = t.pinned <- true
let frozen_hits t = t.frozen_hits

(* Read-only probes (no memo refresh, no stamp): shared for the phase
   ([frozen]) or immutable for the run ([pinned]). *)
let ro t = t.frozen || t.pinned

(* ------------------------------------------------------------------ *)
(* Resolution through the fallback chain                               *)
(* ------------------------------------------------------------------ *)

(* Resolve [name] starting at [t]; charge [t.frozen_hits] when the
   owning store is frozen (the caller's verdict depends on shared
   mutable state). A miss is charged too when any store on the chain
   is frozen: a serial writer can define a new name mid-batch, so
   "absent" is itself a verdict about shared mutable state. The chain
   is at most three deep in practice. *)
let find_res t name =
  let rec go frozen_seen s =
    match Hashtbl.find_opt s.cells name with
    | Some c ->
        if s.frozen then t.frozen_hits <- t.frozen_hits + 1;
        Some { owner = s; rcell = c }
    | None -> (
        match s.fallback with
        | Some f -> go (frozen_seen || s.frozen) f
        | None ->
            if frozen_seen || s.frozen then
              t.frozen_hits <- t.frozen_hits + 1;
            None)
  in
  go false t

let rec root t = match t.fallback with Some f -> root f | None -> t

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)
(* ------------------------------------------------------------------ *)

(* [frozen] probes must not mutate: no memo refresh, no stamp. *)
let probe ~frozen h k =
  if frozen then Hashtbl.find_opt h.slots k
  else if h.m_valid && Value.equal h.m_key k then h.m_slot
  else begin
    let r = Hashtbl.find_opt h.slots k in
    h.m_valid <- true;
    h.m_key <- k;
    h.m_slot <- r;
    r
  end

let materialize h =
  Value.Dict
    (Hashtbl.fold (fun k s acc -> (k, s.v) :: acc) h.slots []
    |> List.sort (fun (a, _) (b, _) -> Value.compare a b))

let read t name =
  match find_res t name with
  | Some { rcell = Scalar v; _ } -> v
  | Some { rcell = Table h; _ } -> materialize h
  | None -> unresolved name

(* A handle remembers the owning store: capacity, eviction accounting
   and the frozen flag are the owner's, while recency stamps use the
   querying store's clock (the one the engine advances per packet). *)
type handle = { hs : t; ht : table }

let handle t name =
  match find_res t name with
  | Some { owner; rcell = Table h } -> { hs = owner; ht = h }
  | Some { rcell = Scalar _; _ } | None -> unresolved ("dict " ^ name)

let handle_mem t h k =
  let frozen = ro h.hs in
  match probe ~frozen h.ht k with
  | Some s ->
      if not frozen then s.last_used <- t.clock;
      true
  | None -> false

let handle_find t h k =
  let frozen = ro h.hs in
  match probe ~frozen h.ht k with
  | Some s ->
      if not frozen then s.last_used <- t.clock;
      Some s.v
  | None -> None

(* Allocation-free variant for the compiled dataplane's hot path: the
   [option] box of {!handle_find} costs a minor-heap block per dict
   read. [Not_found] is a constant exception, so raising it is free. *)
let handle_get t h k =
  let frozen = ro h.hs in
  match probe ~frozen h.ht k with
  | Some s ->
      if not frozen then s.last_used <- t.clock;
      s.v
  | None -> raise Stdlib.Not_found

(* Narrow single-probe read for the engine's state-dispatch level:
   never raises, distinguishes "no such table" from "key absent", and
   stamps recency on a hit like any other read. This is the only state
   access the FSM dispatch needs — match structure stays decoupled
   from the store representation. *)
let state_read t name k =
  match find_res t name with
  | Some { owner; rcell = Table h } -> (
      let frozen = ro owner in
      match probe ~frozen h k with
      | Some s ->
          if not frozen then s.last_used <- t.clock;
          `Value s.v
      | None -> `Absent)
  | Some { rcell = Scalar _; _ } | None -> `No_table

let table_mem t name k = handle_mem t (handle t name) k
let table_find t name k = handle_find t (handle t name) k
let table_size t name = Hashtbl.length (handle t name).ht.slots

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)
(* ------------------------------------------------------------------ *)

(* Writes route to the store that owns the name; a name owned by no
   store in the chain is created at the root (the shared store, when
   one exists), so a value defined by one shard stays visible to
   all. Plain stores have a one-element chain — unchanged behavior. *)
let set_scalar t name v =
  let target =
    match find_res t name with Some { owner; _ } -> owner | None -> root t
  in
  Hashtbl.replace target.cells name (cell_of_value ~clock:t.clock v)

(* Least-recently-used key; ties (same clock tick) break on the
   smaller key so eviction order is independent of hash layout. *)
let evict_lru owner h =
  let victim =
    Hashtbl.fold
      (fun k s acc ->
        match acc with
        | None -> Some (k, s.last_used)
        | Some (k', lu') ->
            if s.last_used < lu' || (s.last_used = lu' && Value.compare k k' < 0) then
              Some (k, s.last_used)
            else acc)
      h.slots None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove h.slots k;
      h.m_valid <- false;
      owner.evictions <- owner.evictions + 1
  | None -> ()

let table_set t name k v =
  let h = handle t name in
  match probe ~frozen:false h.ht k with
  | Some s ->
      s.v <- v;
      s.last_used <- t.clock
  | None ->
      (match h.hs.cap with
      | Some cap when Hashtbl.length h.ht.slots >= cap -> evict_lru h.hs h.ht
      | _ -> ());
      let s = { v; last_used = t.clock } in
      Hashtbl.replace h.ht.slots k s;
      (* the memo currently records [k] absent; point it at the new slot *)
      h.ht.m_key <- k;
      h.ht.m_slot <- Some s;
      h.ht.m_valid <- true

let table_remove t name k =
  let h = handle t name in
  Hashtbl.remove h.ht.slots k;
  h.ht.m_valid <- false

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

(* Own cells only — a partitioned store merges shard snapshots with
   the shared store's snapshot explicitly (the name sets are disjoint
   by construction, see {!Shard}). *)
let snapshot t =
  Hashtbl.fold
    (fun name cell acc ->
      let v = match cell with Scalar v -> v | Table h -> materialize h in
      Nfactor.Model_interp.Smap.add name v acc)
    t.cells Nfactor.Model_interp.Smap.empty
