(** Stateful network verification over extracted models (paper
    Section 4): each model is a transfer function [T(h, p, s)];
    a chain composes them; reachability questions are answered by
    executing packet sequences through the composition — stateful by
    construction. *)

open Nfactor

type node = {
  id : string;
  model : Model.t;
  mutable store : Model_interp.store;  (** evolves as packets flow *)
  mutable actives : Model_interp.active list option;
      (** cached {!Model_interp.actives} of [(model, store)]; [None] =
          recompute on next use. Managed by {!push}/{!reset_chain} —
          callers who assign [store] directly must also clear it. *)
}

type chain = { nodes : node list }

val node : string -> Model.t -> Model_interp.store -> node
val node_of_extraction : string -> Extract.result -> node
val chain : node list -> chain

val reset_chain : chain -> stores:Model_interp.store list -> unit
(** Restore per-node state (e.g. between experiments) and invalidate
    the cached config prefilters.
    @raise Invalid_argument (naming the chain's nodes and both counts)
    when [stores] does not match the chain length. *)

type hop = { node_id : string; entered : Packet.Pkt.t list; left : Packet.Pkt.t list }

val push : chain -> Packet.Pkt.t -> Packet.Pkt.t list * hop list
(** One packet through the chain; state updates stick. Returns the
    packets emerging from the last NF and the per-hop trace. *)

val run : chain -> Packet.Pkt.t list -> (Packet.Pkt.t list * hop list) list

type reach_result = { delivered : Packet.Pkt.t list; trace : hop list }

val reaches : chain -> Packet.Pkt.t -> dst:Packet.Addr.ip -> reach_result
(** Does the packet emerge destined to [dst], given current state? *)

val survey :
  chain ->
  pkts:Packet.Pkt.t list ->
  violates:(input:Packet.Pkt.t -> output:Packet.Pkt.t -> bool) ->
  (Packet.Pkt.t * Packet.Pkt.t * hop list) list
(** Inject every probe; report (input, offending output, trace) for
    each that violates the invariant. *)

val pp_trace : Format.formatter -> hop list -> unit
