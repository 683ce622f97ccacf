(** Algorithm 1: NF program slicing and model synthesis, end to end.

    {v
    1-4   packet slice      — backward slices from every send()
    5     StateAlyzer       — pktVar / cfgVar / oisVar classification
    6-9   state slice       — backward slices from every oisVar update
    10    execution paths   — symbolic execution of the slice union
    11-16 refinement        — path conditions -> config/flow/state match,
                              path effects    -> packet/state actions
    v}

    Scalar configuration variables are left symbolic during
    exploration, so one extraction covers every configuration (the
    paper's Figure 6 shows both [mode = RR] and [mode = HASH] tables
    from a single run); structured configuration (lists like the
    backend pool) stays concrete to keep indexing tractable, mirroring
    BUZZ's constraint on the number and scope of symbolic variables. *)

open Symexec

type result = {
  model : Model.t;
  classes : Statealyzer.Varclass.t;
  program : Nfl.Ast.program;  (** canonical program the model was extracted from *)
  pkt_slice : int list;
  state_slice : int list;
  union_slice : int list;
  sliced_body : Nfl.Ast.block;  (** loop body restricted to the slice union *)
  paths : Explore.path list;
  stats : Explore.stats;
  stage_times : (string * float) list;  (** wall-clock seconds per pipeline stage *)
  solver_memo : Solver.memo;  (** verdict cache; reusable for further explorations *)
  key : string Lazy.t;  (** fingerprint determining [model] and [program] *)
}

(* Variables whose initial value should stay concrete even when the
   classifier calls them configuration: containers and strings are
   structural. *)
let scalar_config init name =
  match Interp.Smap.find_opt name init with
  | Some (Value.Int _) | Some (Value.Bool _) -> true
  | _ -> false

(** Symbolic environment for one loop iteration: symbolic packet,
    symbolic scalar configs, symbolic output-impacting state, concrete
    everything else. *)
let symbolic_env ~(classes : Statealyzer.Varclass.t) ~init ~pkt_var =
  let cat v = Statealyzer.Varclass.category_of classes v in
  let env =
    Interp.Smap.fold
      (fun name v acc ->
        let sval =
          match cat name with
          | Some Statealyzer.Varclass.Cfg_var when scalar_config init name ->
              Explore.Scalar (Sexpr.sym name)
          | Some Statealyzer.Varclass.Ois_var -> (
              match v with
              | Value.Dict _ -> Explore.Dictv (Sexpr.dict_base name)
              | Value.Int _ | Value.Bool _ -> Explore.Scalar (Sexpr.sym name)
              | _ -> Explore.sval_of_value v)
          | _ -> Explore.sval_of_value v
        in
        Explore.Smap.add name sval acc)
      init Explore.Smap.empty
  in
  Explore.Smap.add pkt_var (Explore.sym_pkt pkt_var) env

(* ------------------------------------------------------------------ *)
(* Literal classification (Algorithm 1 lines 12-14)                   *)
(* ------------------------------------------------------------------ *)

type lit_class = L_config | L_flow | L_state | L_other

(* Priority: state predicates may mention packet fields (membership of
   a flow key in a state table); flow predicates may mention config
   constants (dport == lb_port); only predicates purely over config
   variables go to the config field — so Figure 6's tables split on
   [mode] alone, not on every header test against a config value. The
   packet-field prefix is derived from the classified packet variable,
   so NFs that do not literally call it [pkt] classify the same way. *)
let classify_literal ~pkt_var ~cfg_vars ~ois_vars (l : Solver.literal) =
  let syms = Sexpr.syms l.Solver.atom in
  let prefix = pkt_var ^ "." in
  let plen = String.length prefix in
  let mentions_pkt =
    Sexpr.Sset.exists (fun s -> String.length s > plen && String.sub s 0 plen = prefix) syms
  in
  let mentions v = Sexpr.Sset.mem v syms in
  if List.exists mentions ois_vars then L_state
  else if mentions_pkt then L_flow
  else if List.exists mentions cfg_vars then L_config
  else L_other

(* ------------------------------------------------------------------ *)
(* State-update extraction (Algorithm 1 line 15, state side)          *)
(* ------------------------------------------------------------------ *)

let state_updates_of_path ~ois_vars (path : Explore.path) =
  List.filter_map
    (fun v ->
      match Explore.Smap.find_opt v path.Explore.env with
      | Some (Explore.Dictv d) ->
          if d.Sexpr.writes = [] then None
          else Some (v, Model.Dict_ops (List.rev d.Sexpr.writes))
      | Some (Explore.Scalar e) ->
          if Sexpr.equal e (Sexpr.sym v) then None else Some (v, Model.Set_scalar e)
      | Some (Explore.Pktv _) | Some (Explore.Listv _) | None -> None)
    ois_vars

(* ------------------------------------------------------------------ *)
(* Pipeline                                                           *)
(* ------------------------------------------------------------------ *)

let distinct_sorted l = List.sort_uniq compare l

(** Normalize to canonical single-loop form unless already there. *)
let ensure_canonical (p : Nfl.Ast.program) =
  let is_canonical =
    p.Nfl.Ast.funcs = []
    &&
    match Nfl.Transform.packet_loop p with
    | _ -> true
    | exception Nfl.Transform.Not_applicable _ -> false
  in
  if is_canonical then p else Nfl.Transform.canonicalize p

(* ------------------------------------------------------------------ *)
(* Pipeline stages                                                    *)
(* ------------------------------------------------------------------ *)

(* Each Algorithm-1 stage is a pure function of its upstream artifacts,
   so the pass pipeline (lib/pipeline) can fingerprint, memoize and
   persist them independently; [run] below composes the same functions
   without any caching. *)

let canonical_stage (p : Nfl.Ast.program) =
  (* Renumber statement ids by round-tripping the canonical program
     through the pretty-printer: sids become a pure function of the
     canonical *text*, so artifacts that mention sids (slices, path
     traces, model [path_sids]) stay valid when the canonical program
     is reloaded from a cache and re-parsed in another session. *)
  Nfl.Parser.program (Nfl.Pretty.program (ensure_canonical p))

let classify_stage (p : Nfl.Ast.program) = Statealyzer.Varclass.analyze p

type slices = {
  sl_pkt : int list;  (** packet slice (Algorithm 1 lines 1-4) *)
  sl_state : int list;  (** state slice (lines 6-9) *)
  sl_union : int list;
  sl_body : Nfl.Ast.block;  (** loop body restricted to the union *)
}

(** Recompute the sliced loop body from the canonical program and the
    slice union (used when slices are reloaded from a cache: only the
    statement-id lists are persisted). *)
let sliced_body_of_union (p : Nfl.Ast.program) union_slice =
  let sliced_main = Slicing.Slice.restrict_block union_slice p.Nfl.Ast.main in
  let _, body, _ = Nfl.Transform.packet_loop { p with Nfl.Ast.main = sliced_main } in
  body

let slice_stage (p : Nfl.Ast.program) (classes : Statealyzer.Varclass.t) =
  let ois_vars = Statealyzer.Varclass.vars_of_category classes Statealyzer.Varclass.Ois_var in
  let pkt_slice = classes.Statealyzer.Varclass.pkt_slice in
  let ctx = Lazy.force classes.Statealyzer.Varclass.slicing in
  let ois_update_sids =
    Slicing.Slice.find_stmts ctx (fun s ->
        Dataflow.Defs_uses.defs s
        |> Nfl.Ast.Sset.exists (fun v -> List.mem v ois_vars))
  in
  let state_slice =
    if ois_update_sids = [] then []
    else Slicing.Slice.backward_union ctx ~criteria:ois_update_sids
  in
  let union_slice = distinct_sorted (pkt_slice @ state_slice) in
  {
    sl_pkt = pkt_slice;
    sl_state = state_slice;
    sl_union = union_slice;
    sl_body = sliced_body_of_union p union_slice;
  }

(** Join-point merge policy for exploring [body]: merge at branches
    with a statement join point outside loop bodies, but only on
    diamond chains of at least [min_chain] sequential branches — the
    shape whose naive path count is 2^k. Short chains and elif ladders
    are linear already, and their per-path entries are more useful to
    downstream analyses (reachability classes, FSM derivation) than an
    [ite]-folded summary. Only branch atoms free of config/state
    symbols fold into guards — config splits must stay separate
    entries (Figure 6 shows one table per [mode]) and state predicates
    must keep per-path concrete verdicts for the refinement step. *)
let merge_policy_of ?(min_chain = 5) ~(classes : Statealyzer.Varclass.t)
    (body : Nfl.Ast.block) =
  let joins = Joins.of_block body in
  let banned =
    List.fold_left
      (fun acc v -> Sexpr.Sset.add v acc)
      Sexpr.Sset.empty
      (Statealyzer.Varclass.vars_of_category classes Statealyzer.Varclass.Cfg_var
      @ Statealyzer.Varclass.vars_of_category classes Statealyzer.Varclass.Ois_var)
  in
  {
    Explore.mergeable_if =
      (fun sid -> Joins.mergeable joins sid && Joins.chain_len joins sid >= min_chain);
    admit_guard =
      (fun atom ->
        Sexpr.Sset.is_empty (Sexpr.Sset.inter (Sexpr.syms atom) banned));
  }

let explore_stage ?(config = Explore.default_config) ?(merge = true) ~memo
    (p : Nfl.Ast.program) (classes : Statealyzer.Varclass.t) (sl : slices) =
  let body_no_recv =
    List.filter (fun s -> not (Nfl.Builtins.is_pkt_input_stmt s)) sl.sl_body
  in
  let init = Interp.initial_state p in
  let env = symbolic_env ~classes ~init ~pkt_var:classes.Statealyzer.Varclass.pkt_var in
  let merge = if merge then Some (merge_policy_of ~classes body_no_recv) else None in
  Explore.block ~config ?merge ~memo ~env body_no_recv

let refine_stage ~name (classes : Statealyzer.Varclass.t) (paths : Explore.path list) =
  let pkt_var = classes.Statealyzer.Varclass.pkt_var in
  let cfg_vars = Statealyzer.Varclass.vars_of_category classes Statealyzer.Varclass.Cfg_var in
  let ois_vars = Statealyzer.Varclass.vars_of_category classes Statealyzer.Varclass.Ois_var in
  let entries =
    List.map
      (fun (path : Explore.path) ->
        let config_l, flow_l, state_l, other_l =
          List.fold_left
            (fun (c, f, s, o) l ->
              match classify_literal ~pkt_var ~cfg_vars ~ois_vars l with
              | L_config -> (l :: c, f, s, o)
              | L_flow -> (c, l :: f, s, o)
              | L_state -> (c, f, l :: s, o)
              | L_other -> (c, f, s, l :: o))
            ([], [], [], []) path.Explore.pc
        in
        let pkt_action =
          match path.Explore.sends with
          | [] -> Model.Drop
          | snaps -> Model.Forward (List.map (List.sort (fun (a, _) (b, _) -> compare a b)) snaps)
        in
        {
          Model.config = List.rev config_l;
          flow_match = List.rev flow_l;
          state_match = List.rev state_l;
          residual_match = List.rev other_l;
          pkt_action;
          state_update = state_updates_of_path ~ois_vars path;
          path_sids = distinct_sorted path.Explore.trace;
          truncated = path.Explore.truncated;
        })
      paths
  in
  { Model.nf_name = name; pkt_var; cfg_vars; ois_vars; entries }

let assemble ~model ~classes ~program ~slices:sl ~paths ~stats ~stage_times ~solver_memo ~key =
  {
    model;
    classes;
    program;
    pkt_slice = sl.sl_pkt;
    state_slice = sl.sl_state;
    union_slice = sl.sl_union;
    sliced_body = sl.sl_body;
    paths;
    stats;
    stage_times;
    solver_memo;
    key;
  }

(** Run Algorithm 1 on an NF program: the uncached composition of the
    stage functions above (the pass pipeline in [lib/pipeline] runs the
    same stages with fingerprinting and artifact caching). The program
    is canonicalized (structure-normalized and inlined) first, so any
    of the Figure-4 shapes is accepted. *)
let run ?(config = Explore.default_config) ?(merge = true) ~name (p : Nfl.Ast.program) =
  let stage_times = ref [] in
  let timed stage f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    stage_times := (stage, Unix.gettimeofday () -. t0) :: !stage_times;
    r
  in
  let p = timed "canonicalize" (fun () -> canonical_stage p) in
  let classes = timed "classify" (fun () -> classify_stage p) in
  let sl = timed "slice" (fun () -> slice_stage p classes) in
  let solver_memo = Solver.memo_create () in
  let paths, stats =
    timed "explore" (fun () -> explore_stage ~config ~merge ~memo:solver_memo p classes sl)
  in
  let model = timed "refine" (fun () -> refine_stage ~name classes paths) in
  (* Nothing derives this run's model from a fingerprint, so its key is
     the content itself, digested only if someone asks. *)
  let key =
    lazy (Digest.to_hex (Digest.string (Model_io.to_string model ^ "\000" ^ Nfl.Pretty.program p)))
  in
  assemble ~model ~classes ~program:p ~slices:sl ~paths ~stats
    ~stage_times:(List.rev !stage_times) ~solver_memo ~key
