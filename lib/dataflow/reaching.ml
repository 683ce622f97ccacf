(** Reaching definitions.

    A definition is a pair (variable, defining statement id); the
    special id [0] denotes "defined before this region" (a global
    initializer or loop-carried state when analyzing a loop body in
    isolation). Weak updates (dictionary and packet-field writes)
    generate but do not kill, per {!Defs_uses.is_strong_def}.

    Definitions are numbered densely — the entry pseudo-definitions
    first, then each statement's in node order — and solved as bit
    vectors by {!Bitflow}. *)

module Sset = Nfl.Ast.Sset
module Bits = Bitflow.Bits

type t = {
  cfg : Cfg.t;
  def_sid : int array;  (** definition -> defining statement id (0: before the region) *)
  defs_of_var : (string, int list) Hashtbl.t;  (** variable -> its definitions, by sid *)
  reach_in : Bits.t array;  (** per node, by {!Cfg.index} *)
}

let solve ?(entry_defs = Sset.empty) g =
  let stmts = Array.of_list (List.map (Cfg.stmt_of g) (Cfg.nodes g)) in
  let n = Array.length stmts in
  (* Number the definitions; [defs_of_var] lists are built in reverse. *)
  let sids = ref [] and count = ref 0 in
  let defs_of_var = Hashtbl.create 64 in
  let new_def v sid =
    let d = !count in
    incr count;
    sids := sid :: !sids;
    Hashtbl.replace defs_of_var v
      (d :: Option.value ~default:[] (Hashtbl.find_opt defs_of_var v));
    d
  in
  let entry = List.map (fun v -> new_def v 0) (Sset.elements entry_defs) in
  let own =
    Array.map
      (function
        | None -> []
        | Some s ->
            Sset.fold (fun v acc -> new_def v s.Nfl.Ast.sid :: acc) (Defs_uses.defs s) [])
      stmts
  in
  let width = !count in
  let def_sid = Array.of_list (List.rev !sids) in
  Hashtbl.filter_map_inplace (fun _ ds -> Some (List.rev ds)) defs_of_var;
  let gen = Array.init n (fun _ -> Bits.create width) in
  let kill = Array.init n (fun _ -> Bits.create width) in
  List.iter (Bits.add gen.(Cfg.index g Cfg.Entry)) entry;
  Array.iteri
    (fun i s ->
      List.iter (Bits.add gen.(i)) own.(i);
      match s with
      | Some s when Defs_uses.is_strong_def s ->
          Sset.iter
            (fun v -> List.iter (Bits.add kill.(i)) (Hashtbl.find defs_of_var v))
            (Defs_uses.defs s)
      | _ -> ())
    stmts;
  let sol =
    Bitflow.solve g { direction = Forward; width; gen; kill; boundary_in = Bits.create width }
  in
  { cfg = g; def_sid; defs_of_var; reach_in = sol.Bitflow.inf }

(** Ids of the statements defining [var] whose definitions reach the
    entry of [n], ascending; [0] stands for "defined before the
    region". *)
let defs_reaching t n var =
  match Hashtbl.find_opt t.defs_of_var var with
  | None -> []
  | Some ds ->
      let fact = t.reach_in.(Cfg.index t.cfg n) in
      List.filter_map (fun d -> if Bits.mem fact d then Some t.def_sid.(d) else None) ds
