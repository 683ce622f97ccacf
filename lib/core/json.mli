(** JSON string literals for the hand-written JSON the libraries and
    the CLI print. Escapes per RFC 8259: quote, backslash and control
    characters; every other byte (UTF-8 included) is kept as is. *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes. *)

val quote : string -> string
(** [quote s] is [escape s] between double quotes. *)
