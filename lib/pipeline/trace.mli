(** Per-pass trace records: the stage telemetry the pass manager
    emits for every pass application, and the one source of per-pass
    wall-clock for the [--stats] / [--json] surfaces. *)

type status =
  | Miss  (** computed (and persisted when a cache dir is set) *)
  | Mem_hit  (** served from the manager's in-memory artifact table *)
  | Disk_hit  (** deserialized from the on-disk artifact store *)

type t = {
  nf : string;  (** NF the pass ran for *)
  pass : string;
  fingerprint : Fingerprint.t;
  status : status;
  wall_s : float;  (** wall-clock of the pass application (incl. load) *)
}

val status_to_string : status -> string
val is_hit : t -> bool

val hit_rate : t list -> float
(** Percentage of hits (memory or disk); 0 on an empty list. *)

val total_wall_s : t list -> float
val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One JSON object, no trailing newline. *)
