(** Named, checkable chain invariants over {!Symreach} classes.

    Each invariant is decided symbolically — the chain's end-to-end
    header classes are intersected with the property — and every
    [Violated] verdict is {e witnessed}: the offending class is
    concretized through the solver ({!Testgen} palette overlays), and
    the candidate packet is replayed through a fresh reference chain
    ({!Network.push}) before the verdict is issued. [Unsat] answers
    from the solver are trusted (sound [Proven]); feasible-looking
    classes that no concrete probe confirms come back [Unknown], never
    [Violated] — the solver's [Sat] is an over-approximation and is
    not allowed to fabricate counterexamples. *)

open Nfactor
open Symexec

type nodes = (string * Model.t * Model_interp.store) list
(** A chain as (id, model, state snapshot), in traversal order — the
    same shape {!Symreach} and {!Chainplan.link} take. *)

(** {1 The property language}

    A property is a conjunction of field comparisons over one packet
    header, e.g. [dport=80 & ip_proto=6]. Values parse as integers,
    dotted quads (for address fields), or bare strings. *)

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type pred = { p_field : string; p_cmp : cmp; p_value : Value.t }

type prop = pred list  (** conjunction *)

val parse_prop : string -> (prop, string) result
(** Parse ["field OP value [& ...]"] with OP one of [= != < <= > >=].
    Fields are validated against the header schema. *)

val pp_prop : Format.formatter -> prop -> unit

val holds_on : prop -> Packet.Pkt.t -> bool
(** Concrete evaluation on a packet. *)

val sym_lits : prop -> Symreach.sym_pkt -> Solver.literal list
(** The property over a symbolic header (input vocabulary). *)

val probes : Solver.literal list -> Packet.Pkt.t list
(** The replay candidates for a literal set: its solver assignment
    ({!Solver.concretize}) over {!Testgen.default_base} and overlaid
    on every {!Testgen.base_palette} packet, sorted and deduplicated
    ([[]] when the solver finds no assignment). *)

(** {1 Verdicts} *)

type status = Proven | Violated | Unknown

type outcome = {
  status : status;
  counterexample : Packet.Pkt.t option;
      (** validated probe packet, on [Violated] *)
  outputs : Packet.Pkt.t list;
      (** what the reference chain emitted for the counterexample *)
  classes_checked : int;
  detail : string;  (** one-line human explanation *)
}

val never_reaches : nodes -> prop -> outcome
(** No input may emerge from the chain with [prop] holding on the
    output header. [Violated] ships an input packet whose replay
    through the chain emits a matching packet. *)

val state_implies_drop : nodes -> from_:string -> to_:string -> cls:prop -> outcome
(** Under the store snapshots in [nodes], every input entering node
    [from_] that satisfies [cls] dies (is dropped) by the time it
    would leave node [to_]. Checked on the [from_..to_] subchain with
    drop classes tracked.
    @raise Invalid_argument if the ids do not name a forward subchain. *)

val order_equiv : nodes -> nodes -> outcome
(** The two chain orders produce identical end-to-end behavior,
    witness-checked: every symbolic class of either order is
    concretized and the probes replayed through both orders; any
    output mismatch is a counterexample. [Proven] here means every
    witness agreed (classes of both orders covered). *)

val status_string : status -> string
val json_of_outcome : outcome -> string
val pp_outcome : Format.formatter -> outcome -> unit
