(** Gen/kill bit-vector dataflow over a CFG's dense node numbering
    ({!Cfg.index}): the solver behind {!Reaching} and {!Liveness}.
    Every node's transfer is [out = gen ∪ (in − kill)] over fixed-width
    bit sets; the result is the least fixpoint. *)

module Bits : sig
  type t = int array

  val create : int -> t
  (** An empty set of the given width. *)

  val add : t -> int -> unit
  val mem : t -> int -> bool

  val iter : (int -> unit) -> t -> unit
  (** Members in increasing order. *)
end

type direction = Forward | Backward

type problem = {
  direction : direction;
  width : int;  (** bits per fact *)
  gen : Bits.t array;  (** per node, by {!Cfg.index} *)
  kill : Bits.t array;
  boundary_in : Bits.t;
      (** fact flowing into the boundary node ([Entry] forward, [Exit]
          backward) *)
}

type solution = {
  inf : Bits.t array;  (** fact flowing into each node, in the problem's direction *)
  outf : Bits.t array;  (** fact flowing out of each node *)
}

val solve : Cfg.t -> problem -> solution
