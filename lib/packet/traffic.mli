(** Synthetic workload generation — the stand-in for the paper's live
    traffic. All generators are deterministic given their seed. *)

type profile = {
  client_ips : Addr.ip list;  (** source pool for inbound packets *)
  server_ips : Addr.ip list;  (** destination pool / virtual IPs *)
  server_ports : Addr.port list;
  payloads : string list;  (** payload pool (some match IDS rules) *)
}

val default_profile : profile

val random_pkt : Rng.t -> profile -> Pkt.t
(** One fully random packet (uniform fields from the profile pools,
    random direction and flags) — the Section-5 accuracy workload. *)

val random_stream : ?profile:profile -> seed:int -> n:int -> unit -> Pkt.t list
(** [n] independent random packets. *)

val conversation :
  client:Addr.ip ->
  cport:Addr.port ->
  server:Addr.ip ->
  sport:Addr.port ->
  data_pkts:int ->
  payload:string ->
  Pkt.t list
(** One complete TCP conversation: handshake, [data_pkts] data/ack
    exchanges, FIN teardown — drives stateful NF paths. *)

val flow_stream :
  ?profile:profile -> seed:int -> flows:int -> data_pkts:int -> unit -> Pkt.t list
(** [flows] conversations interleaved round-robin, mimicking
    concurrent clients. *)

(** {1 Churn workload}

    A constant-size pool of conversations in flight with unbounded
    flow turnover: each packet advances a uniformly chosen live flow
    one script position; finished flows are replaced in place by a
    fresh client drawn from the whole 10.0.0.0/8 space (the profile's
    [client_ips] pool is not used for churn clients). Per-flow storage
    is a few machine words, so millions of concurrent flows are cheap.
    Deterministic given the seed and independent of consumer
    batching. *)

type churn

val churn_gen :
  ?profile:profile -> ?data_pkts:int -> concurrent:int -> seed:int -> unit -> churn
(** Pool of [concurrent] flows, all started (and counted). *)

val churn_next : churn -> Pkt.t

(** {1 Timed driver} *)

val time_batches :
  ?batch:int -> next:(unit -> Pkt.t) -> n:int -> (Pkt.t array -> 'a) -> float
(** Feed [n] packets from [next] to [consume] in arrays of at most
    [batch] (default 4096); returns the wall-clock seconds spent in
    [consume] only — drawing packets happens outside the timer. With
    [next = fun () -> random_pkt rng profile] over [Rng.create seed]
    the packets are exactly [random_stream ~seed ~n]; with
    [next = fun () -> churn_next ch] the generator advances. *)
