(** Hash-consed symbolic expressions.

    Terms over concrete constants, named symbolic variables,
    uninterpreted functions, symbolic container reads and
    dictionary-membership atoms. Every term is {e interned}: all
    construction goes through the smart constructors below, which
    guarantee that structurally equal terms are physically equal and
    carry the same unique {!id}. Equality, hashing and map/set
    membership over terms are therefore O(1) — independent of term
    depth — which is what the solver, the exploration memo and every
    substitution walk above them key on.

    Smart constructors also constant-fold, so fully concrete programs
    symbolically evaluate to constants — the property the path/model
    equivalence tests rely on. *)

type t = private { id : int; node : node }
(** A unique interned term. [id] is session-local: it identifies the
    term within the current intern table only, so persisted artifacts
    must serialize terms structurally and re-intern on read
    (see {!Nfactor.Model_io}). The [id] field is declared first so any
    residual polymorphic comparison short-circuits on it. *)

and node =
  | Const of Value.t
  | Sym of string  (** free symbolic variable, e.g. ["pkt.dport"] *)
  | Bin of Nfl.Ast.binop * t * t
  | Not of t
  | Neg of t
  | Tup of t list
  | Lst of t list
  | Get of t * t  (** container read with symbolic index *)
  | Ufun of string * t list  (** uninterpreted function, e.g. [hash] *)
  | Mem of dict_state * t  (** membership atom against a snapshot *)
  | Dget of dict_state * t  (** dictionary read against a snapshot *)
  | Ite of t * t * t  (** guarded value summary: [if g then a else b] *)

(** A symbolic dictionary: unknown contents at loop entry ([base])
    plus this path's strong updates, newest first ([Some v] insert,
    [None] delete). Snapshots are plain records (not interned); the
    [Mem]/[Dget] atoms wrapping them are. *)
and dict_state = { base : string; writes : (t * t option) list }

val view : t -> node
(** Shallow view for pattern matching; [view e = e.node]. *)

val id : t -> int
(** Unique session-local id; [id a = id b <=> a == b]. *)

val dict_base : string -> dict_state

val empty_base : string
(** Base marking a dictionary known to start empty: membership against
    it resolves to [false] instead of producing an atom. *)

val dict_empty : dict_state

val equal : t -> t -> bool
(** O(1): physical equality of interned terms. *)

val compare : t -> t -> int
(** O(1): compares ids. Total order within a session; {e not} a
    structural order, so do not use it to produce output that must be
    stable across processes. *)

val hash : t -> int
(** O(1): hash of the id. *)

val equal_structural : t -> t -> bool
(** Deep structural equality, insensitive to interning generation.
    Only needed when comparing terms across intern tables (e.g. in
    serialization tests); within one session it coincides with
    {!equal}. *)

val pp : Format.formatter -> t -> unit
val pp_dict : Format.formatter -> dict_state -> unit
val to_string : t -> string
val is_const : t -> bool
val const_of : t -> Value.t option

(** {1 Smart constructors}

    The only way to build terms. Each returns the unique interned
    representative of its (folded) result. *)

val const : Value.t -> t
val sym : string -> t
(** Symbols are interned through a dedicated string-keyed table, so
    repeated [sym "pkt.dport"] lookups never allocate a probe node. *)

val tru : t
val fls : t
val int : int -> t

val mk_not : t -> t
val mk_neg : t -> t
val mk_bin : Nfl.Ast.binop -> t -> t -> t
val mk_tuple : t list -> t
val mk_list : t list -> t

val mk_get : t -> t -> t
(** Concrete index into a known-shape container resolves; otherwise
    the read stays symbolic. *)

val mk_ufun : string -> t list -> t
(** [hash]/[len] of constants fold. *)

val mk_mem : dict_state -> t -> t
(** Membership resolved through the write list where key comparisons
    are decidable; bottoms out in an atom (or [false] on
    {!empty_base}). *)

val mk_dget : dict_state -> t -> t

val mk_ite : t -> t -> t -> t
(** [mk_ite g a b] is the guarded value summary [if g then a else b]
    used by join-point path merging. Folds: constant guard selects an
    arm, equal arms collapse ([mk_ite g a a = a]), a negated guard
    swaps arms, boolean-constant arms reduce to the guard or its
    negation, and a directly nested ite under the same guard prunes to
    its reachable arm. *)

(** {1 Queries} *)

module Sset : Set.S with type elt = string

val syms : t -> Sset.t
(** Free symbolic names, dictionary bases included. *)

val subst : (string -> Value.t option) -> t -> t
(** Substitute named symbols by values and re-simplify. *)

val subst_sym : (string -> t option) -> t -> t
(** Substitute named symbols by expressions and re-simplify (used to
    thread packet field expressions through downstream predicates). *)

(** {1 Intern table} *)

val intern_count : unit -> int
(** Number of distinct terms interned so far (= the next fresh id). *)

val unsafe_reset_intern : unit -> unit
(** Clear the intern table and restart ids from 0. {b Test-only}:
    terms created before the reset must never be compared or combined
    with terms created after it (the uniqueness invariant no longer
    relates them). Used to simulate a fresh process in serialization
    round-trip tests. *)
