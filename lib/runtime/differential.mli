(** The one differential replay check: do two executors agree on the
    same packets? Each builder runs a batch through one executor and
    observes what it shows a caller; {!compare} checks an observation
    against a reference wherever both sides observe a part, and names
    the first packet and hop that diverge. The reference oracles are
    {!interp} and {!network}. *)

type t = {
  outputs : Packet.Pkt.t list array;  (** per input packet *)
  fired : int option array option;
      (** per input packet, the source-model entry that fired ([None] =
          drop by miss); [None] when the executor does not report it *)
  stores : (string * Nfactor.Model_interp.store) list;  (** final store per hop, in order *)
  counters : string option;  (** every counter, rendered *)
}

val interp : Nfactor.Model.t -> store:Nfactor.Model_interp.store -> Packet.Pkt.t array -> t
(** {!Nfactor.Model_interp.step} from [store], packet by packet. *)

val engine : Engine.t -> Packet.Pkt.t array -> t
(** Counters are {!Engine.stats_json}. The engine keeps its state, so
    an empty batch observes it as it stands. *)

val shard : Shard.t -> Packet.Pkt.t array -> t
(** Merged store; merged counters rendered like a single engine's. *)

val chain : Chainengine.t -> Packet.Pkt.t array -> t
(** Counters: injected packets, fused walks, every hop's counters. *)

val sharded_chain : Chainengine.sharded -> Packet.Pkt.t array -> t
(** {!chain} over {!Chainengine.shard_run_batch}, merged across shards. *)

val network :
  (string * Nfactor.Model.t * Nfactor.Model_interp.store) list -> Packet.Pkt.t array -> t
(** {!Verify.Network.run} over a fresh chain of these nodes (the ones
    {!Chainplan.link} takes): outputs and per-hop stores. *)

val of_network_run :
  Verify.Network.chain -> (Packet.Pkt.t list * Verify.Network.hop list) list -> t
(** {!network} for a run the caller made, e.g. to time the run alone. *)

type verdict = {
  packets : int;  (** packets in the reference *)
  output_at : int option;  (** first packet whose outputs differ *)
  fired_at : int option;  (** first packet whose fired entry differs *)
  store_at : (int * string) option;  (** first hop whose store differs: index, id *)
  counters_agree : bool;  (** also [true] when either side has none *)
}

val compare : reference:t -> t -> verdict
(** A packet or hop present on one side only differs. *)

val ok : verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit
