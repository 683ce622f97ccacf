(* The set-based reaching-definitions and liveness solvers that
   lib/dataflow used before its bit-vector solver, kept as the oracle
   the dense solver is tested against: a generic monotone worklist over
   [Cfg.Nmap] facts, with reaching definitions as sets of (variable,
   statement id) records and live variables as string sets. *)

module Nmap = Cfg.Nmap
module Nset = Cfg.Nset
module Sset = Nfl.Ast.Sset
module Defs_uses = Dataflow.Defs_uses

type direction = Forward | Backward

type 'fact problem = {
  direction : direction;
  init : 'fact;
  bottom : 'fact;
  transfer : Cfg.node -> 'fact -> 'fact;
  join : 'fact -> 'fact -> 'fact;
  equal : 'fact -> 'fact -> bool;
}

type 'fact solution = { inf : Cfg.node -> 'fact; outf : Cfg.node -> 'fact }

let solve g (p : 'fact problem) : 'fact solution =
  let nodes = Cfg.nodes g in
  let boundary, preds_of, succs_of, seed =
    match p.direction with
    | Forward -> (Cfg.Entry, Cfg.pred_nodes g, Cfg.succ_nodes g, nodes)
    | Backward -> (Cfg.Exit, Cfg.succ_nodes g, Cfg.pred_nodes g, List.rev nodes)
  in
  let inputs = ref Nmap.empty and outputs = ref Nmap.empty in
  List.iter
    (fun n ->
      inputs := Nmap.add n p.bottom !inputs;
      outputs := Nmap.add n p.bottom !outputs)
    nodes;
  inputs := Nmap.add boundary p.init !inputs;
  outputs := Nmap.add boundary (p.transfer boundary p.init) !outputs;
  let work = Queue.create () and queued = Hashtbl.create 64 in
  let push n =
    if not (Hashtbl.mem queued n) then begin
      Hashtbl.replace queued n ();
      Queue.push n work
    end
  in
  List.iter push seed;
  while not (Queue.is_empty work) do
    let n = Queue.pop work in
    Hashtbl.remove queued n;
    let in_fact =
      if Cfg.node_equal n boundary then p.init
      else
        match preds_of n with
        | [] -> p.bottom
        | ps -> List.fold_left (fun acc q -> p.join acc (Nmap.find q !outputs)) p.bottom ps
    in
    let out_fact = p.transfer n in_fact in
    inputs := Nmap.add n in_fact !inputs;
    if not (p.equal out_fact (Nmap.find n !outputs)) then begin
      outputs := Nmap.add n out_fact !outputs;
      List.iter push (succs_of n)
    end
  done;
  let inputs = !inputs and outputs = !outputs in
  match p.direction with
  | Forward -> { inf = (fun n -> Nmap.find n inputs); outf = (fun n -> Nmap.find n outputs) }
  | Backward -> { inf = (fun n -> Nmap.find n outputs); outf = (fun n -> Nmap.find n inputs) }

module Def = struct
  type t = { var : string; sid : int }

  let compare (a : t) (b : t) =
    match String.compare a.var b.var with 0 -> Int.compare a.sid b.sid | c -> c
end

module Dset = Set.Make (Def)

(* Reaching definitions at each node's entry; sid 0 is "defined before
   the region". *)
let reaching ?(entry_defs = Sset.empty) g =
  let transfer n fact =
    match Cfg.stmt_of g n with
    | None ->
        if Cfg.node_equal n Cfg.Entry then
          Sset.fold (fun v acc -> Dset.add { Def.var = v; sid = 0 } acc) entry_defs fact
        else fact
    | Some s ->
        let ds = Defs_uses.defs s in
        let killed =
          if Defs_uses.is_strong_def s then Dset.filter (fun d -> not (Sset.mem d.Def.var ds)) fact
          else fact
        in
        Sset.fold (fun v acc -> Dset.add { Def.var = v; sid = s.Nfl.Ast.sid } acc) ds killed
  in
  (solve g
     {
       direction = Forward;
       init = Dset.empty;
       bottom = Dset.empty;
       transfer;
       join = Dset.union;
       equal = Dset.equal;
     })
    .inf

(* Sids (ascending, 0 included) of the definitions of [var] reaching [n]. *)
let defs_reaching reach_in n var =
  Dset.elements (reach_in n)
  |> List.filter_map (fun d -> if d.Def.var = var then Some d.Def.sid else None)

(* The data dependences of every statement node: the in-region
   definitions reaching it of each variable it uses. *)
let ddg ?entry_defs g =
  let reach_in = reaching ?entry_defs g in
  List.filter_map
    (fun n ->
      match Cfg.stmt_of g n with
      | None -> None
      | Some s ->
          let srcs =
            Sset.fold
              (fun v acc ->
                List.fold_left
                  (fun acc sid -> if sid = 0 then acc else Nset.add (Cfg.Stmt sid) acc)
                  acc (defs_reaching reach_in n v))
              (Defs_uses.uses s) Nset.empty
          in
          Some (n, srcs))
    (Cfg.nodes g)

(* Live variables: (live_in, live_out) per node. *)
let liveness ?(live_at_exit = Sset.empty) g =
  let transfer n fact =
    match Cfg.stmt_of g n with
    | None -> if Cfg.node_equal n Cfg.Exit then Sset.union fact live_at_exit else fact
    | Some s ->
        let kills = if Defs_uses.is_strong_def s then Defs_uses.defs s else Sset.empty in
        Sset.union (Defs_uses.uses s) (Sset.diff fact kills)
  in
  let sol =
    solve g
      {
        direction = Backward;
        init = live_at_exit;
        bottom = Sset.empty;
        transfer;
        join = Sset.union;
        equal = Sset.equal;
      }
  in
  (sol.inf, sol.outf)
