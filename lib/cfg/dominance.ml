(** Dominators and post-dominators as immediate-dominator trees, by
    Cooper, Harvey & Kennedy ("A Simple, Fast Dominance Algorithm",
    2001).

    Nodes are numbered in reverse postorder from the root along the
    direction facts flow ([Entry] forward, [Exit] backward). Each sweep
    sets a node's immediate dominator to the nearest common ancestor,
    in the tree built so far, of its already-placed predecessors. In
    reverse postorder every forward edge's source precedes its target,
    so one sweep places every node and each further sweep only has
    back edges left to absorb: the structured CFGs of NF programs
    settle in a number of sweeps bounded by their loop nesting, not by
    their depth. *)

module Nmap = Cfg.Nmap
module Nset = Cfg.Nset

type t = Cfg.node Nmap.t

let compute g ~root ~preds ~succs =
  (* [rpo_of.(Cfg.index g n)]: [n]'s reverse-postorder number, -1 while
     unplaced (and for nodes [root] does not reach). *)
  let rpo_of = Array.make (Cfg.size g + 2) (-1) in
  let visited = Array.make (Cfg.size g + 2) false in
  let order = ref [] in
  let rec visit n =
    visited.(Cfg.index g n) <- true;
    List.iter (fun s -> if not visited.(Cfg.index g s) then visit s) (succs n);
    order := n :: !order
  in
  visit root;
  let rpo = Array.of_list !order in
  Array.iteri (fun i n -> rpo_of.(Cfg.index g n) <- i) rpo;
  (* [idom.(i)] is the reverse-postorder number of node [i]'s immediate
     dominator; -1 until first placed. The root dominates itself. *)
  let idom = Array.make (Array.length rpo) (-1) in
  idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a else if a > b then intersect idom.(a) b else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to Array.length rpo - 1 do
      let next =
        List.fold_left
          (fun acc p ->
            let j = rpo_of.(Cfg.index g p) in
            if j >= 0 && idom.(j) >= 0 then if acc < 0 then j else intersect j acc else acc)
          (-1) (preds rpo.(i))
      in
      if next <> idom.(i) then begin
        idom.(i) <- next;
        changed := true
      end
    done
  done;
  let tree = ref Nmap.empty in
  for i = 1 to Array.length rpo - 1 do
    tree := Nmap.add rpo.(i) rpo.(idom.(i)) !tree
  done;
  !tree

let dominators g = compute g ~root:Cfg.Entry ~preds:(Cfg.pred_nodes g) ~succs:(Cfg.succ_nodes g)

let post_dominators g =
  compute g ~root:Cfg.Exit ~preds:(Cfg.succ_nodes g) ~succs:(Cfg.pred_nodes g)

let immediate t n = Nmap.find_opt n t

let dominates t a b =
  let rec up n =
    Cfg.node_equal n a || match Nmap.find_opt n t with Some d -> up d | None -> false
  in
  up b

let strictly_dominates t a b = (not (Cfg.node_equal a b)) && dominates t a b
