(** Static backward program slicing (Weiser, via PDG reachability).

    A slice is the set of statements that might affect a criterion
    statement — here always taken with respect to all the variables the
    criterion uses, which is exactly how Algorithm 1 invokes
    [BackwardSlice] (from a packet-output call on its argument
    variables, or from a state assignment on its left-hand side). *)

module Nset = Cfg.Nset
module Sset = Nfl.Ast.Sset
module Iset = Set.Make (Int)

type ctx = { block : Nfl.Ast.block; cfg : Cfg.t; pdg : Pdg.t }

(** Prepare a block for slicing. [entry_defs] names variables defined
    before the block (globals / loop-carried state). *)
let of_block ?(entry_defs = Sset.empty) block =
  let cfg = Cfg.of_block block in
  { block; cfg; pdg = Pdg.build ~entry_defs cfg }

(** [backward ctx ~criteria] is the backward slice from the given
    statement ids: the criteria plus every statement they transitively
    data- or control-depend on. Result is sorted statement ids. *)
let backward ctx ~criteria =
  let seeds = List.map (fun sid -> Cfg.Stmt sid) criteria in
  let closure = Pdg.backward_closure ctx.pdg seeds in
  Nset.fold
    (fun n acc -> match n with Cfg.Stmt sid -> sid :: acc | Cfg.Entry | Cfg.Exit -> acc)
    closure []
  |> List.sort compare

(** Statements in [ctx] whose ids satisfy [pred]; used to find slicing
    criteria (e.g. all packet-output statements). *)
let find_stmts ctx pred =
  let acc = ref [] in
  Nfl.Ast.iter_stmts (fun s -> if pred s then acc := s.Nfl.Ast.sid :: !acc) ctx.block;
  List.rev !acc

(** Union of backward slices from each criterion — Algorithm 1 lines
    1-4 and 6-9 both have this shape. *)
let backward_union ctx ~criteria =
  (* PDG closure is already a union when seeded with all criteria. *)
  backward ctx ~criteria

(** Restrict a block to the statements in [keep] (plus enclosing branch
    statements, which [keep] must already contain if the closure came
    from {!backward}). Produces a runnable residual program block. *)
let restrict_block keep (block : Nfl.Ast.block) =
  let keep = Iset.of_list keep in
  let rec restrict block =
    List.filter_map
      (fun (s : Nfl.Ast.stmt) ->
        let kept = Iset.mem s.Nfl.Ast.sid keep in
        match s.Nfl.Ast.kind with
        | Nfl.Ast.If (c, b1, b2) ->
            let b1' = restrict b1 and b2' = restrict b2 in
            if kept || b1' <> [] || b2' <> [] then
              Some { s with Nfl.Ast.kind = Nfl.Ast.If (c, b1', b2') }
            else None
        | Nfl.Ast.While (c, b) ->
            let b' = restrict b in
            if kept || b' <> [] then Some { s with Nfl.Ast.kind = Nfl.Ast.While (c, b') }
            else None
        | Nfl.Ast.For_in (x, e, b) ->
            let b' = restrict b in
            if kept || b' <> [] then Some { s with Nfl.Ast.kind = Nfl.Ast.For_in (x, e, b') }
            else None
        | Nfl.Ast.Assign _ | Nfl.Ast.Return _ | Nfl.Ast.Expr _ | Nfl.Ast.Delete _
        | Nfl.Ast.Pass ->
            if kept then Some s else None)
      block
  in
  restrict block
