(** Reaching definitions. A definition is (variable, statement id);
    the pseudo-id 0 denotes "defined before this region". Weak updates
    generate but do not kill. Solved as bit vectors over densely
    numbered definitions ({!Bitflow}). *)

type t

val solve : ?entry_defs:Nfl.Ast.Sset.t -> Cfg.t -> t
(** [entry_defs] are considered defined at [Entry] with id 0. *)

val defs_reaching : t -> Cfg.node -> string -> int list
(** Ids of the statements whose definition of the variable reaches the
    node's entry, ascending ([0]: defined before the region).
    @raise Not_found for a node not in the graph. *)
