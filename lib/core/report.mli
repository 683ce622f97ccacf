(** Table-2 style measurement: LoC, slicing time, execution-path counts
    and symbolic-execution time, original vs slice. Budget-capped
    results are reported as lower bounds, like the paper's ">1000". *)

open Symexec

type bound_int = Exact of int | More_than of int

val pp_bound_int : Format.formatter -> bound_int -> unit

type row = {
  name : string;
  loc_orig : int;  (** non-comment source lines *)
  stmts_orig : int;  (** canonical-program statements (the slice unit) *)
  loc_slice : int;  (** statements in the packet+state slice *)
  loc_path_max : int;  (** statements on the largest single path *)
  slicing_time_s : float;
  ep_orig : bound_int;
  ep_slice : bound_int;
  se_time_orig_s : float;
  se_time_slice_s : float;
}

val time : (unit -> 'a) -> 'a * float
(** Wall-clock timing helper. *)

val explore_original :
  ?config:Explore.config -> ?memo:Solver.memo -> Extract.result -> Explore.path list * Explore.stats
(** Symbolic execution of the {e unsliced} loop body under the
    extraction environment (the paper's "orig" columns). [memo] reuses
    path-condition verdicts, e.g. the extraction's [solver_memo]. *)

val explore_slice :
  ?config:Explore.config -> ?memo:Solver.memo -> Extract.result -> Explore.path list * Explore.stats
(** Re-exploration of the slice in isolation (the "slice" columns). *)

val measure :
  ?config:Explore.config ->
  ?se_budget:int ->
  ex:Extract.result ->
  name:string ->
  source:string ->
  Nfl.Ast.program ->
  row
(** Full measurement of one NF on top of its extraction [ex] (from
    [Pipeline.Manager.extract]); [se_budget] caps the original-program
    exploration. The program times the slicing column. *)

val header : string
val row_to_string : row -> string
