(** Dominators and post-dominators as immediate-dominator trees
    (Cooper, Harvey & Kennedy's iterative algorithm over reverse
    postorder). *)

module Nmap = Cfg.Nmap
module Nset = Cfg.Nset

type t = Cfg.node Nmap.t
(** Each node's immediate (post-)dominator. The root ([Entry], or
    [Exit] for post-dominance) and nodes the root does not reach in
    that direction are absent. *)

val dominators : Cfg.t -> t
(** The dominator tree, rooted at [Entry]. *)

val post_dominators : Cfg.t -> t
(** The post-dominator tree: dominance over the reversed graph, rooted
    at [Exit]. *)

val immediate : t -> Cfg.node -> Cfg.node option
(** Immediate (post-)dominator; [None] for the root and for nodes the
    root does not reach. *)

val dominates : t -> Cfg.node -> Cfg.node -> bool
(** [dominates t a b]: [a] is [b] or an ancestor of [b] in the tree. *)

val strictly_dominates : t -> Cfg.node -> Cfg.node -> bool
