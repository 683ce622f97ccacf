(** IPv4 addresses and ports.

    Addresses are non-negative integers in host order; the analyses
    only need equality, ordering and prefix matching, so a plain [int]
    keeps client code simple and allocation-free. *)

type ip = int

val ip : int -> int -> int -> int -> ip
(** [ip a b c d] is the address [a.b.c.d]. Octets must be in
    [0, 255]. *)

val of_string : string -> ip
(** [of_string "1.2.3.4"] parses a dotted quad.
    @raise Invalid_argument on malformed input. *)

val octet : ip -> int -> int
(** [octet addr i] is the [i]-th octet, most significant first
    ([0 <= i <= 3]). *)

val to_string : ip -> string
val pp : Format.formatter -> ip -> unit

val mask_of_prefix : int -> ip
(** [mask_of_prefix n] is the netmask with [n] leading one bits,
    [0 <= n <= 32]. *)

val in_prefix : ip -> network:ip -> prefix:int -> bool
(** [in_prefix addr ~network ~prefix] tests membership of [addr] in
    [network/prefix]. *)

type port = int

val valid_port : port -> bool
(** [valid_port p] is [true] iff [0 <= p < 65536]. *)
