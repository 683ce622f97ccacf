(** Deterministic pseudo-random number generator (SplitMix64).

    Every randomized component (workload generation, differential
    testing) threads an explicit generator seeded by the caller, so
    experiments are reproducible by construction. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds yield equal
    streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** [pick t xs] chooses a uniform element of [xs].
    @raise Invalid_argument on the empty list. *)

val split : t -> t
(** Independent child generator, for reproducible sub-streams. *)
