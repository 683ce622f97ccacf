(** Header-space style symbolic reachability over extracted models:
    HSA's transfer-function composition extended with the state
    argument of [T(h, p, s)]. A symbolic packet (field map over free
    input-header symbols plus constraints) is pushed through a chain
    of models under concrete state snapshots, yielding the end-to-end
    header equivalence classes. Re-running under different snapshots
    answers state-dependent reachability questions stateless HSA
    cannot pose. *)

open Nfactor
open Symexec

type sym_pkt = (string * Sexpr.t) list
(** Field map over the free input-header symbols ["in.<field>"]. *)

val fresh_pkt : sym_pkt
(** The unconstrained input header. *)

type cls = {
  constraints : Solver.literal list;  (** over the input-header symbols *)
  pkt : sym_pkt;  (** symbolic output header *)
  fired : (string * int) list;  (** (node id, entry index) per hop *)
  alive : bool;  (** [false]: the class died in a dropping entry *)
}

val unconstrained : cls
(** The unconstrained, alive input class. *)

val classes : ?drops:bool -> (string * Model.t * Model_interp.store) list -> cls list
(** End-to-end classes for unconstrained input headers, pushed through
    each (id, model, snapshot) in order. By default dropping entries
    and table misses yield no classes; with [~drops:true] a dropping
    entry yields a dead ([alive = false]) class, which leaves the
    pipeline where it died and rides to the result untouched, so the
    feasible classes partition each model's covered input space. *)

val reachable :
  (string * Model.t * Model_interp.store) list ->
  property:(sym_pkt -> Solver.literal list) ->
  cls list
(** Classes whose output can satisfy [property]; empty means the
    property is unreachable under these state snapshots. *)

val satisfies : cls -> Packet.Pkt.t -> bool
(** Does the probe packet lie in the class? Its constraints are
    evaluated concretely; leftover opaque atoms evaluate to [false]. *)

val pp_cls : Format.formatter -> cls -> unit
