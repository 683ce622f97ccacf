(** Equivalence checking between an NF program and its extracted model
    (paper Section 5, "Accuracy"): symbolic path-set comparison and
    lock-step random differential testing. *)

val signature_of_entry : Model.entry -> string list * string list

val paths_match : Extract.result -> bool
(** Do the slice's symbolic paths and the model's entries describe the
    same path set? *)

type mismatch = {
  index : int;  (** which input packet diverged *)
  input : Packet.Pkt.t;
  program_out : Packet.Pkt.t list;
  model_out : Packet.Pkt.t list;
}

type verdict = { trials : int; mismatches : mismatch list }

val ok : verdict -> bool

val differential : Extract.result -> pkts:Packet.Pkt.t list -> verdict
(** Lock-step run: per input packet, one program-loop iteration vs one
    model step, outputs compared; both sides carry state. *)

val model_differential :
  store:Model_interp.store ->
  pkts:Packet.Pkt.t list ->
  Model.t ->
  Model.t ->
  verdict * bool
(** Lock-step run of two models from the same initial store: per input
    packet both tables step once, outputs compared. The boolean is
    whether the {e final} stores also agree — together with an empty
    mismatch list this is observational equivalence on the sequence. *)

val random_testing : ?seed:int -> ?trials:int -> Extract.result -> verdict
(** The paper's experiment: [trials] random packets (default 1000). *)

val flow_testing : ?seed:int -> ?flows:int -> ?data_pkts:int -> Extract.result -> verdict
(** Flow-structured traffic exercising the stateful entries. *)

val pp_mismatch : Format.formatter -> mismatch -> unit
