(** Text codec for packet traces: one packet per line
    ([proto src sport dst dport flags ttl len seq ack "payload"]),
    [#] comments and blank lines ignored. Interchange format for
    replaying captured or hand-written traffic through an NF and its
    model. *)

val to_line : Pkt.t -> string

val of_line : string -> Pkt.t
(** @raise Invalid_argument on every malformed line: a missing field,
    a non-numeric number, a bad address, protocol or flag, a payload
    that is not exactly one quoted string. *)

val to_string : Pkt.t list -> string

val of_string : string -> Pkt.t list
(** @raise Invalid_argument whose message begins [line N:] with the
    1-based number of the first malformed line. *)
