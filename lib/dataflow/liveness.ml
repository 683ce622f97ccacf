(** Live-variable analysis.

    Used by StateAlyzer's loop-carried check (is a persistent variable
    read by the next loop iteration before being redefined?) and by
    the linter's dead-write refinement. Variables are numbered densely
    and solved backward as bit vectors by {!Bitflow}. *)

module Sset = Nfl.Ast.Sset
module Bits = Bitflow.Bits

type solution = { live_in : Cfg.node -> Sset.t; live_out : Cfg.node -> Sset.t }

(** [solve ?live_at_exit g]: variables in [live_at_exit] are considered
    live after [Exit] (e.g. persistent state read by the next loop
    iteration when analyzing one iteration in isolation). *)
let solve ?(live_at_exit = Sset.empty) g =
  let nodes = Array.of_list (Cfg.nodes g) in
  let n = Array.length nodes in
  let var_index = Hashtbl.create 64 and names = ref [] and count = ref 0 in
  let indices vars =
    Sset.fold
      (fun v acc ->
        match Hashtbl.find_opt var_index v with
        | Some i -> i :: acc
        | None ->
            let i = !count in
            incr count;
            Hashtbl.replace var_index v i;
            names := v :: !names;
            i :: acc)
      vars []
  in
  let at_exit = indices live_at_exit in
  let uses = Array.make n [] and kills = Array.make n [] in
  for i = 0 to n - 1 do
    match Cfg.stmt_of g nodes.(i) with
    | Some s ->
        uses.(i) <- indices (Defs_uses.uses s);
        if Defs_uses.is_strong_def s then kills.(i) <- indices (Defs_uses.defs s)
    | None -> ()
  done;
  let width = !count in
  let names = Array.of_list (List.rev !names) in
  let bits vs =
    let b = Bits.create width in
    List.iter (Bits.add b) vs;
    b
  in
  let sol =
    Bitflow.solve g
      {
        direction = Backward;
        width;
        gen = Array.map bits uses;
        kill = Array.map bits kills;
        boundary_in = bits at_exit;
      }
  in
  let vars fact =
    let s = ref Sset.empty in
    Bits.iter (fun i -> s := Sset.add names.(i) !s) fact;
    !s
  in
  (* Backward: the fact flowing into a node is the one live after it. *)
  {
    live_in = (fun nd -> vars sol.Bitflow.outf.(Cfg.index g nd));
    live_out = (fun nd -> vars sol.Bitflow.inf.(Cfg.index g nd));
  }
