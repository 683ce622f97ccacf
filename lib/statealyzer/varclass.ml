(** StateAlyzer-style variable classification (paper Table 1).

    Given a canonical NF program, computes the four variable features
    from Section 2.1 and derives the categories Algorithm 1 consumes:

    - {b pktVar}: bound by the packet input function ([x = recv()]).
    - {b cfgVar}: persistent, top-level, not updateable — the knobs.
    - {b oisVar}: persistent, top-level, updateable, output-impacting —
      the state the forwarding model must track.
    - {b logVar}: persistent, top-level, updateable, but with no path
      to the packet output — statistics and logs, pruned by slicing.

    *Output-impacting* is decided exactly as in Algorithm 1: a variable
    is output-impacting iff some statement of the packet slice (the
    union of backward slices from every [send]) mentions it. *)

module Sset = Nfl.Ast.Sset

type features = {
  persistent : bool;  (** defined at top level, outlives the packet loop *)
  top_level : bool;  (** mentioned during packet processing *)
  updateable : bool;  (** assigned during packet processing *)
  output_impacting : bool;  (** mentioned by the packet slice *)
  loop_carried : bool;
      (** live at loop-body entry: its value survives from one packet
          to the next. A top-level variable that every iteration
          redefines before reading (a shared temporary) is not state —
          "lifetime longer than the packet processing loop" is about
          the carried value, not the binding. *)
}

type category =
  | Pkt_var
  | Cfg_var
  | Ois_var
  | Log_var
  | Unused_cfg  (** persistent but never touched by the packet loop *)
  | Local  (** not persistent: scratch inside the loop *)

let category_to_string = function
  | Pkt_var -> "pktVar"
  | Cfg_var -> "cfgVar"
  | Ois_var -> "oisVar"
  | Log_var -> "logVar"
  | Unused_cfg -> "unusedCfg"
  | Local -> "local"

let pp_category ppf c = Fmt.string ppf (category_to_string c)

type t = {
  pkt_var : string;  (** the receive-bound packet variable *)
  features : (string * features) list;  (** per variable, sorted by name *)
  categories : (string * category) list;
  pkt_slice : int list;  (** statement ids of the packet slice over [main] *)
  loop_body : Nfl.Ast.block;  (** canonical loop body (with the recv statement) *)
  slicing : Slicing.Slice.ctx Lazy.t;  (** PDG over [main]; see {!slicing_ctx} *)
}

let vars_of_category t cat =
  List.filter_map (fun (v, c) -> if c = cat then Some v else None) t.categories

let category_of t v = List.assoc_opt v t.categories

let classify f ~is_pkt =
  if is_pkt then Pkt_var
  else if not f.persistent then Local
  else if not f.top_level then Unused_cfg
  else if not f.updateable then Cfg_var
  else if not f.loop_carried then Local (* shared per-iteration temporary *)
  else if f.output_impacting then Ois_var
  else Log_var

(* Persistent variables: top-level assignments. *)
let persistent_vars (p : Nfl.Ast.program) =
  List.fold_left
    (fun acc (s : Nfl.Ast.stmt) ->
      match s.Nfl.Ast.kind with
      | Nfl.Ast.Assign (Nfl.Ast.L_var x, _) -> Sset.add x acc
      | _ -> acc)
    Sset.empty p.Nfl.Ast.globals

(** The slicing context over the whole [main] (so cross-iteration
    state flow is visible), with globals counted as defined at entry.
    Both Algorithm 1 slices — packet (lines 1-4) and state (6-9) —
    traverse this one PDG. *)
let slicing_ctx (p : Nfl.Ast.program) =
  Slicing.Slice.of_block ~entry_defs:(persistent_vars p) p.Nfl.Ast.main

(** Analyze a canonical (function-free, single packet loop) program. *)
let analyze (p : Nfl.Ast.program) =
  let _, loop_body, pkt_var = Nfl.Transform.packet_loop p in
  let persistent_vars = persistent_vars p in
  (* Mentions inside the packet loop. *)
  let used = ref Sset.empty and defined = ref Sset.empty in
  Nfl.Ast.iter_stmts
    (fun s ->
      used := Sset.union !used (Dataflow.Defs_uses.uses s);
      defined := Sset.union !defined (Dataflow.Defs_uses.defs s))
    loop_body;
  let mentioned = Sset.union !used !defined in
  (* Packet slice: union of backward slices from every packet output. *)
  let ctx = slicing_ctx p in
  let send_sids = Slicing.Slice.find_stmts ctx Nfl.Builtins.is_pkt_output_stmt in
  let pkt_slice = Slicing.Slice.backward_union ctx ~criteria:send_sids in
  (* Variables mentioned by slice statements. *)
  let slice_vars = ref Sset.empty in
  Nfl.Ast.iter_stmts
    (fun s ->
      if List.mem s.Nfl.Ast.sid pkt_slice then
        slice_vars :=
          Sset.union !slice_vars
            (Sset.union (Dataflow.Defs_uses.uses s) (Dataflow.Defs_uses.defs s)))
    p.Nfl.Ast.main;
  (* Loop-carried values: live at the loop-body entry, assuming every
     persistent variable may be read by the next iteration. *)
  let body_cfg = Cfg.of_block loop_body in
  let liveness = Dataflow.Liveness.solve ~live_at_exit:persistent_vars body_cfg in
  (* Read liveness at the first real statement: [Entry]'s pseudo edge to
     [Exit] would leak the live-at-exit assumption straight through. *)
  let carried =
    match loop_body with
    | [] -> persistent_vars
    | first :: _ -> liveness.Dataflow.Liveness.live_in (Cfg.Stmt first.Nfl.Ast.sid)
  in
  let all_vars = Sset.union persistent_vars mentioned in
  let features =
    Sset.fold
      (fun v acc ->
        let f =
          {
            persistent = Sset.mem v persistent_vars;
            top_level = Sset.mem v mentioned;
            updateable = Sset.mem v !defined;
            output_impacting = Sset.mem v !slice_vars;
            loop_carried = Sset.mem v carried;
          }
        in
        (v, f) :: acc)
      all_vars []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let categories =
    List.map (fun (v, f) -> (v, classify f ~is_pkt:(v = pkt_var))) features
  in
  { pkt_var; features; categories; pkt_slice; loop_body; slicing = Lazy.from_val ctx }

let pp ppf t =
  List.iter
    (fun (v, c) -> Fmt.pf ppf "%-16s %s@." v (category_to_string c))
    t.categories
