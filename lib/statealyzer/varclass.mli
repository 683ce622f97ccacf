(** StateAlyzer-style variable classification (paper Table 1).

    Computes the four features of Section 2.1 — {e persistent},
    {e top-level}, {e updateable}, {e output-impacting} — plus a
    loop-carried refinement, and derives the categories Algorithm 1
    consumes. {e Output-impacting} is decided exactly as in the paper:
    the variable is mentioned by the packet slice (the union of
    backward slices from every packet output). *)

type features = {
  persistent : bool;  (** defined at top level, outlives the packet loop *)
  top_level : bool;  (** mentioned during packet processing *)
  updateable : bool;  (** assigned during packet processing *)
  output_impacting : bool;  (** mentioned by the packet slice *)
  loop_carried : bool;
      (** live at loop entry: the carried value can matter. A
          top-level variable redefined before every read is a shared
          temporary, not state. *)
}

type category =
  | Pkt_var  (** bound by [recv()] *)
  | Cfg_var  (** persistent, top-level, not updateable *)
  | Ois_var  (** output-impacting state: what the model tracks *)
  | Log_var  (** updated but with no path to the packet output *)
  | Unused_cfg  (** persistent but untouched by the packet loop *)
  | Local  (** per-iteration scratch *)

val category_to_string : category -> string
val pp_category : Format.formatter -> category -> unit

type t = {
  pkt_var : string;  (** the receive-bound packet variable *)
  features : (string * features) list;  (** per variable, sorted *)
  categories : (string * category) list;
  pkt_slice : int list;  (** statement ids of the packet slice over main *)
  loop_body : Nfl.Ast.block;  (** canonical loop body *)
  slicing : Slicing.Slice.ctx Lazy.t;
      (** the slicing context over [main] the packet slice came from
          ({!slicing_ctx}); Algorithm 1's state slice reuses its PDG *)
}

val vars_of_category : t -> category -> string list
val category_of : t -> string -> category option

val slicing_ctx : Nfl.Ast.program -> Slicing.Slice.ctx
(** The slicing context over a canonical program's [main], with every
    global defined at entry. *)

val analyze : Nfl.Ast.program -> t
(** Analyze a canonical (function-free, single packet loop) program.
    @raise Nfl.Transform.Not_applicable when no packet loop exists. *)

val pp : Format.formatter -> t -> unit
