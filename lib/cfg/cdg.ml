(** Control-dependence graph (Ferrante, Ottenstein & Warren 1987).

    A node [n] is control dependent on a branch [b] when one of [b]'s
    outcomes always leads through [n] while another can avoid it.
    Computed the classic way: for each CFG edge [b -> s] with [b] a
    branch, walk the post-dominator tree upward from [s] until reaching
    the immediate post-dominator of [b]; every node visited is control
    dependent on [b]. *)

module Nmap = Cfg.Nmap
module Nset = Cfg.Nset

type t = {
  deps : Nset.t Nmap.t;  (** node -> branches it is control dependent on *)
  controls : Nset.t Nmap.t;  (** branch -> nodes it controls *)
}

let empty_set = Nset.empty

(** Branches controlling [n]. *)
let deps_of t n = Option.value ~default:empty_set (Nmap.find_opt n t.deps)

(** Nodes controlled by branch [b]. *)
let controlled_by t b = Option.value ~default:empty_set (Nmap.find_opt b t.controls)

let compute g =
  let ipdom = Dominance.post_dominators g in
  let deps = ref Nmap.empty and controls = ref Nmap.empty in
  let add n b =
    let push key v m =
      Nmap.update key (function None -> Some (Nset.singleton v) | Some s -> Some (Nset.add v s)) m
    in
    deps := push n b !deps;
    controls := push b n !controls
  in
  let branch_nodes = Cfg.branches g in
  List.iter
    (fun b ->
      let stop = Nmap.find_opt b ipdom in
      List.iter
        (fun s ->
          (* Walk the post-dominator tree from [s] up to (excluding)
             ipdom(b). If [b] itself is reached (loop header case) it is
             marked control dependent on itself, as in the original
             paper, but we skip self-edges for slicing purposes. *)
          let rec walk n =
            match stop with
            | Some stop_n when Cfg.node_equal n stop_n -> ()
            | _ ->
                if not (Cfg.node_equal n b) then add n b;
                (match Nmap.find_opt n ipdom with
                | Some up ->
                    if not (Cfg.node_equal up n) then walk up
                | None -> ())
          in
          walk s)
        (Cfg.succ_nodes g b))
    branch_nodes;
  { deps = !deps; controls = !controls }

let pp ppf t =
  Nmap.iter
    (fun n bs ->
      Fmt.pf ppf "%a <- {%a}@." Cfg.pp_node n
        Fmt.(list ~sep:(any ", ") Cfg.pp_node)
        (Nset.elements bs))
    t.deps
