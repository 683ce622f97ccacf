(** Model-driven test-packet generation (paper Section 4, BUZZ-style):
    computes a packet sequence that makes every reachable model entry
    fire. Flow predicates are concretized by the solver over a palette
    of base packets; state predicates are satisfied by sequencing —
    earlier packets install the state later entries match on. Every
    candidate is validated by stepping the model, so incomplete solver
    answers cannot produce a wrong sequence. *)

open Nfactor
open Symexec

type coverage = {
  pkts : Packet.Pkt.t list;  (** generated sequence, in order *)
  covered : int list;  (** entry indices fired, in firing order *)
  uncovered : int list;  (** entries never fired (other-config tables,
                             or state deeper than the round budget) *)
}

val base_palette : Packet.Pkt.t list
(** Diverse base packets the generator overlays solver assignments on;
    useful as candidate seeds for other concretization loops. *)

val overlay_fields : pkt_var:string -> Value.t Solver.Smap.t -> (string * Value.t) list
(** The assignment's ["<pkt_var>.<field>"] symbols decoded into
    (header field, value) pairs, in symbol order: ports clamped to
    16 bits, other integer fields to 32; symbols naming no header
    field are dropped. Two assignments with equal lists overlay
    every base identically. *)

val overlay : pkt_var:string -> Value.t Solver.Smap.t -> Packet.Pkt.t -> Packet.Pkt.t
(** [overlay ~pkt_var asg] decodes the assignment once
    ({!overlay_fields}); the result writes those fields over any base
    packet. *)

val default_base : Packet.Pkt.t
(** The base a solver assignment is overlaid on when no other base is
    wanted: TCP 10.0.0.1:40000 > 3.3.3.3:80. *)

val resolve_config : Model_interp.store -> Solver.literal -> Solver.literal
(** Substitute config symbols with their concrete values. *)

val attempt_entry :
  Model.t -> Model_interp.store -> int -> (Packet.Pkt.t * Model_interp.store) option
(** Try to make entry [idx] fire now; on success returns the packet
    and the successor store. *)

val cover : ?max_rounds:int -> Extract.result -> coverage
(** Generate a covering sequence ([max_rounds] bounds the depth of
    state-installation chains; default 8). *)

val compliance : Extract.result -> coverage -> Equiv.verdict
(** Replay the generated packets against the original program. *)

val pp_coverage : Format.formatter -> coverage -> unit
