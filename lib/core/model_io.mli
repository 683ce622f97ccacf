(** Model serialization — the vendor-to-operator interchange format
    from the paper's deployment story ("run [NFactor] on their
    proprietary code and provide only the resultant models").
    S-expression based, versioned, with a total parser. Its term codec
    (a shared-term definition table) is also the one the pipeline's
    cached artifacts use. *)

open Symexec

type sexp = Atom of string | List of sexp list

exception Parse_error of string

(** {1 Generic s-expressions} *)

val sexp_to_string : sexp -> string

val parse_sexp : string -> sexp
(** @raise Parse_error on malformed input. *)

val err : string -> sexp -> 'a
(** [err what s] raises [Parse_error] naming [what] and the rendered [s]. *)

val int_of_atom : string -> int
val bool_of_atom : string -> bool
(** Checked conversions: @raise Parse_error naming a malformed atom. *)

(** {1 Component codecs (shared with the pipeline's artifacts)} *)

val sexp_of_value : Value.t -> sexp
val value_of_sexp : sexp -> Value.t

(** {2 Terms}

    A document writes each distinct term once, in a topologically
    ordered definition table, and refers to it by index elsewhere.
    Decoders take [child], the resolver of such a reference. *)

type encoder
(** The definition table of one document being written. *)

val encoder : unit -> encoder

val term : encoder -> Sexpr.t -> sexp
(** A term's reference; its definition joins the table on first sight. *)

val dict : encoder -> Sexpr.dict_state -> sexp
val terms : encoder -> sexp
(** The [(terms ...)] table; emit it after everything that refers to it. *)

val dict_of : (sexp -> Sexpr.t) -> sexp -> Sexpr.dict_state

val table : sexp -> sexp -> Sexpr.t
(** [table terms] rebuilds a [(terms ...)] table through the interning
    smart constructors (term ids are session-local, so parsing
    re-interns structurally in the reader's table) and returns its
    [child].
    @raise Parse_error on a forward, negative or non-numeric reference. *)

val sexp_of_literal : encoder -> Solver.literal -> sexp
val literal_of_sexp : (sexp -> Sexpr.t) -> sexp -> Solver.literal
val sexp_of_snapshot : encoder -> (string * Sexpr.t) list -> sexp
val snapshot_of_sexp : (sexp -> Sexpr.t) -> sexp -> (string * Sexpr.t) list
val sexp_of_entry : encoder -> Model.entry -> sexp
val entry_of_sexp : (sexp -> Sexpr.t) -> sexp -> Model.entry

(** {1 Whole models} *)

val version : int

val to_string : Model.t -> string
(** Serialize to the interchange text (always the current version). *)

val of_string : string -> Model.t
(** Reads versions 1 to {!version}.
    @raise Parse_error on malformed or wrong-version input. *)
