(** Statement-level control-flow graph over NFL blocks.

    Nodes are statement ids plus virtual [Entry]/[Exit]. Branch
    statements carry labelled true/false out-edges; [return] is
    treated as a Ball–Horwitz pseudo-predicate (taken edge to [Exit],
    non-executable fallthrough) so jumps participate in control
    dependence; a Ferrante pseudo-edge [Entry -> Exit] makes
    top-level statements control-dependent on [Entry]. Conditions are
    never constant-folded, so [Exit] stays reachable even under
    [while (true)]. *)

type node = Entry | Exit | Stmt of int

val node_compare : node -> node -> int
val node_equal : node -> node -> bool
val node_to_string : node -> string
val pp_node : Format.formatter -> node -> unit

module Nmap : Map.S with type key = node
module Nset : Set.S with type elt = node

(** Edge labels distinguish branch outcomes. *)
type label = Seq | True | False

type t

val of_block : Nfl.Ast.block -> t
(** Build the CFG of a statement block (typically a whole [main] or a
    packet-loop body). *)

val succs : t -> node -> (node * label) list
val preds : t -> node -> (node * label) list
val succ_nodes : t -> node -> node list
val pred_nodes : t -> node -> node list

val stmt_of : t -> node -> Nfl.Ast.stmt option
(** The statement at a node ([None] for [Entry]/[Exit]). *)

val nodes : t -> node list
(** All nodes, [Entry] and [Exit] included. *)

val size : t -> int
(** Number of statement nodes. *)

val index : t -> node -> int
(** A node's position in {!nodes} ([Entry] 0, [Exit] 1, then statements
    by id): a dense numbering for array-based analyses.
    @raise Not_found for a statement not in the graph. *)

val reachable : t -> Nset.t
(** Nodes reachable from [Entry]. *)

val branches : t -> node list
(** Nodes with more than one distinct successor. *)

val pp : Format.formatter -> t -> unit
