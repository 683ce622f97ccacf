(** Table-2 style measurement: LoC, slicing time, execution-path counts
    and symbolic-execution time, original vs slice.

    The "original" symbolic execution runs the unsliced loop body under
    the same symbolic environment; for rule-heavy NFs it explodes, so
    it runs under a path budget and the result is reported as a lower
    bound (the paper reports ">1000" / ">1hr" for snort). *)

open Symexec

type bound_int = Exact of int | More_than of int

let pp_bound_int ppf = function
  | Exact n -> Fmt.int ppf n
  | More_than n -> Fmt.pf ppf ">%d" n

type row = {
  name : string;
  loc_orig : int;  (** non-comment source lines of the NF *)
  stmts_orig : int;  (** statements of the canonical program (after
                         structure normalization and inlining) — the
                         unit the slice figures are in *)
  loc_slice : int;  (** statements in the packet+state slice *)
  loc_path_max : int;  (** statements on the largest single execution path *)
  slicing_time_s : float;
  ep_orig : bound_int;  (** execution paths of the original program *)
  ep_slice : bound_int;  (** execution paths of the slice *)
  se_time_orig_s : float;
  se_time_slice_s : float;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let extraction_env (ex : Extract.result) =
  let init = Interp.initial_state ex.Extract.program in
  Extract.symbolic_env ~classes:ex.Extract.classes ~init
    ~pkt_var:ex.Extract.classes.Statealyzer.Varclass.pkt_var

(** Explore the *unsliced* loop body under the extraction environment,
    with a budget. Programs whose original code cannot be symbolically
    executed within the budget report lower bounds. [memo] (e.g. the
    extraction's [solver_memo]) reuses path-condition verdicts — the
    original program re-decides the slice's branch conditions. *)
let explore_original ?(config = Explore.default_config) ?memo (ex : Extract.result) =
  let _, body, _ = Nfl.Transform.packet_loop ex.Extract.program in
  let body_no_recv = List.filter (fun s -> not (Nfl.Builtins.is_pkt_input_stmt s)) body in
  Explore.block ~config ?memo ~env:(extraction_env ex) body_no_recv

(** Re-explore the packet+state slice in isolation (the measurement the
    SE-on-slice column reports). *)
let explore_slice ?(config = Explore.default_config) ?memo (ex : Extract.result) =
  let body_no_recv =
    List.filter (fun s -> not (Nfl.Builtins.is_pkt_input_stmt s)) ex.Extract.sliced_body
  in
  Explore.block ~config ?memo ~env:(extraction_env ex) body_no_recv

(** Measure one NF on top of its extraction [ex]. [se_budget] caps the
    original-program exploration (the slice side should never need
    it). *)
let measure ?(config = Explore.default_config) ?(se_budget = 1000) ~ex ~name ~source
    (program : Nfl.Ast.program) =
  let loc_orig =
    String.split_on_char '\n' source
    |> List.filter (fun line ->
           let t = String.trim line in
           t <> "" && t.[0] <> '#')
    |> List.length
  in
  (* Slicing time: canonicalization + classification + both slices;
     symbolic execution of original and slice are measured directly. *)
  let _, slice_only_time =
    time (fun () ->
        (* Re-run the pre-exploration pipeline: canonicalize, classify,
           slice. *)
        ignore (Statealyzer.Varclass.analyze (Extract.ensure_canonical program)))
  in
  (* Both SE measurements reuse the extraction's verdict cache: the
     memoized-solver speedup is part of the measured system. *)
  let _, se_time_slice_s = time (fun () -> explore_slice ~config ~memo:ex.Extract.solver_memo ex) in
  let orig_config = { config with Explore.max_paths = se_budget } in
  let (orig_paths, orig_stats), se_time_orig_s =
    time (fun () -> explore_original ~config:orig_config ~memo:ex.Extract.solver_memo ex)
  in
  ignore orig_paths;
  let ep_orig =
    if orig_stats.Explore.overflowed then More_than orig_stats.Explore.paths
    else Exact orig_stats.Explore.paths
  in
  let ep_slice =
    if ex.Extract.stats.Explore.overflowed then More_than ex.Extract.stats.Explore.paths
    else Exact ex.Extract.stats.Explore.paths
  in
  let loc_path_max =
    List.fold_left
      (fun acc (p : Explore.path) ->
        max acc (List.length (List.sort_uniq compare p.Explore.trace)))
      0 ex.Extract.paths
  in
  {
    name;
    loc_orig;
    stmts_orig = Nfl.Ast.stmt_count ex.Extract.program;
    loc_slice = List.length ex.Extract.union_slice;
    loc_path_max;
    slicing_time_s = slice_only_time;
    ep_orig;
    ep_slice;
    se_time_orig_s;
    se_time_slice_s;
  }

let header =
  Printf.sprintf "%-11s | %5s %6s %6s %5s | %9s | %6s %6s | %11s %11s" "NF" "LoC" "stmts"
    "slice" "path" "slice(ms)" "EPorig" "EPslc" "SEorig(ms)" "SEslc(ms)"

let row_to_string r =
  Printf.sprintf "%-11s | %5d %6d %6d %5d | %9.2f | %6s %6s | %11.2f %11.2f" r.name r.loc_orig
    r.stmts_orig r.loc_slice r.loc_path_max
    (r.slicing_time_s *. 1e3)
    (Fmt.str "%a" pp_bound_int r.ep_orig)
    (Fmt.str "%a" pp_bound_int r.ep_slice)
    (r.se_time_orig_s *. 1e3)
    (r.se_time_slice_s *. 1e3)
