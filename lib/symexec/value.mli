(** Concrete runtime values of NFL.

    Dictionaries are association lists kept sorted by key, so
    structural equality of values is semantic equality of dictionaries
    — which differential testing relies on when comparing NF states. *)

type t =
  | Int of int
  | Bool of bool
  | Str of string
  | Tuple of t list
  | List of t list
  | Dict of (t * t) list  (** invariant: sorted by key, keys distinct *)
  | Pkt of Packet.Pkt.t

exception Type_error of string

val type_name : t -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool

val as_int : t -> int
(** @raise Type_error when not an [Int]. *)

val as_bool : t -> bool
(** Booleans, with ints truthy when non-zero.
    @raise Type_error otherwise. *)

val as_pkt : t -> Packet.Pkt.t
(** @raise Type_error when not a [Pkt]. *)

val pkt_field : Packet.Pkt.t -> string -> t option
(** The value of a packet field by name ([pkt.<field>] in NFL), read
    through one match on the name; [None] when it is not a field of
    {!Packet.Headers}. *)

(** {1 Dictionaries} *)

val dict_empty : t
val dict_mem : (t * t) list -> t -> bool
val dict_get : (t * t) list -> t -> t option

val dict_set : (t * t) list -> t -> t -> (t * t) list
(** Strong update preserving the sorted-unique invariant. *)

val dict_remove : (t * t) list -> t -> (t * t) list

(** {1 Operators and builtins} *)

val binop : Nfl.Ast.binop -> t -> t -> t
(** Evaluate a binary operator on values.
    @raise Type_error on type mismatches and division/modulo by
    zero. *)

val unop : Nfl.Ast.unop -> t -> t

val hash_value : t -> int
(** Deterministic, non-negative hash of a value (FNV-1a over the
    canonical rendering) — the semantics of NFL's [hash] builtin. *)

val str_contains : sub:string -> string -> bool

val apply_pure : string -> t list -> t
(** Apply a builtin from {!Nfl.Builtins.pure}.
    @raise Type_error on bad arguments. *)

(** {1 Indexing and membership} *)

val index : t -> t -> t
(** Dictionary lookup / list / tuple indexing.
    @raise Type_error on missing keys, out-of-range indices, or
    non-indexable containers. *)

val mem : t -> t -> t
(** [mem key container] is [Bool _]; containers are dicts (key
    membership), lists and tuples (element membership). *)
