(** Reaching definitions.

    A definition is a pair (variable, defining statement id); the
    special id [0] denotes "defined before this region" (a global
    initializer or loop-carried state when analyzing a loop body in
    isolation). Weak updates (dictionary and packet-field writes)
    generate but do not kill, per {!Defs_uses.is_strong_def}. *)

module Def = struct
  type t = { var : string; sid : int }

  let compare (a : t) (b : t) =
    match String.compare a.var b.var with 0 -> Int.compare a.sid b.sid | c -> c
  let pp ppf d = Fmt.pf ppf "%s@s%d" d.var d.sid
end

module Dset = Set.Make (Def)
module Sset = Nfl.Ast.Sset

type solution = { reach_in : Cfg.node -> Dset.t; reach_out : Cfg.node -> Dset.t }

(** [solve ?entry_defs g] computes reaching definitions over [g].
    [entry_defs] are variables considered defined at [Entry] with the
    pseudo-id 0. *)
let solve ?(entry_defs = Sset.empty) g =
  let transfer n fact =
    match Cfg.stmt_of g n with
    | None ->
        if Cfg.node_equal n Cfg.Entry then
          Sset.fold (fun v acc -> Dset.add { Def.var = v; sid = 0 } acc) entry_defs fact
        else fact
    | Some s ->
        let ds = Defs_uses.defs s in
        let killed =
          if Defs_uses.is_strong_def s then
            Dset.filter (fun d -> not (Sset.mem d.Def.var ds)) fact
          else fact
        in
        Sset.fold (fun v acc -> Dset.add { Def.var = v; sid = s.Nfl.Ast.sid } acc) ds killed
  in
  let sol =
    Worklist.solve g
      {
        Worklist.direction = Worklist.Forward;
        init = Dset.empty;
        bottom = Dset.empty;
        transfer;
        join = Dset.union;
        equal = Dset.equal;
      }
  in
  { reach_in = sol.Worklist.inf; reach_out = sol.Worklist.outf }

(** Definitions of [var] reaching the entry of [n]. *)
let defs_reaching sol n var =
  Dset.filter (fun d -> d.Def.var = var) (sol.reach_in n)
