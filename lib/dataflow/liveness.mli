(** Live-variable analysis; used by StateAlyzer's loop-carried
    refinement (is a persistent variable's value consumed before being
    redefined?). Solved backward as bit vectors by {!Bitflow}. *)

module Sset = Nfl.Ast.Sset

type solution = { live_in : Cfg.node -> Sset.t; live_out : Cfg.node -> Sset.t }

val solve : ?live_at_exit:Sset.t -> Cfg.t -> solution
(** [live_at_exit] names variables considered live after [Exit]
    (persistent state read by the next loop iteration). *)
