(** Statement-level control-flow graph over NFL blocks.

    Nodes are statement ids plus virtual [Entry]/[Exit] nodes. Branch
    statements ([if]/[while]/[for]) are their own nodes, with labelled
    true/false out-edges; loop back-edges go to the branch node.

    Conditions are never constant-folded: a [while (true)] still has a
    false edge to its continuation, so [Exit] stays reachable and
    post-dominance is well defined even for the canonical infinite
    packet loop. A pseudo edge [Entry -> Exit] is added, per Ferrante et
    al., so that top-level statements come out control-dependent on
    [Entry]. *)

type node = Entry | Exit | Stmt of int

let node_compare (a : node) (b : node) =
  let rank = function Entry -> -2 | Exit -> -1 | Stmt i -> i in
  compare (rank a) (rank b)

let node_equal a b = node_compare a b = 0

let node_to_string = function
  | Entry -> "entry"
  | Exit -> "exit"
  | Stmt i -> "s" ^ string_of_int i

let pp_node ppf n = Fmt.string ppf (node_to_string n)

module Nmap = Map.Make (struct
  type t = node

  let compare = node_compare
end)

module Nset = Set.Make (struct
  type t = node

  let compare = node_compare
end)

(** Edge labels distinguish branch outcomes. *)
type label = Seq | True | False

(* Nodes are numbered densely in [nodes] order — [Entry] 0, [Exit] 1,
   then statements by id — and adjacency lives in arrays indexed by
   that number. *)
type t = {
  nodes : node list;  (** all nodes, [Entry] and [Exit] included *)
  sid_base : int;  (** smallest statement id *)
  sid_index : int array;  (** [sid - sid_base] -> node number, or -1 *)
  succs : (node * label) list array;
  preds : (node * label) list array;
  stmts : Nfl.Ast.stmt option array;  (** node -> statement (branch or simple) *)
}

(* A node's number, or -1 when it is not in the graph. *)
let slot g = function
  | Entry -> 0
  | Exit -> 1
  | Stmt sid ->
      let k = sid - g.sid_base in
      if k < 0 || k >= Array.length g.sid_index then -1 else g.sid_index.(k)

let index g n = match slot g n with -1 -> raise Not_found | i -> i
let succs g n = match slot g n with -1 -> [] | i -> g.succs.(i)
let preds g n = match slot g n with -1 -> [] | i -> g.preds.(i)
let succ_nodes g n = List.map fst (succs g n)
let pred_nodes g n = List.map fst (preds g n)
let stmt_of g n = match slot g n with -1 -> None | i -> g.stmts.(i)
let nodes g = g.nodes

(** Number of real (statement) nodes. *)
let size g = Array.length g.stmts - 2

(** Build the CFG of a statement block (typically a whole [main] or a
    packet-loop body). *)
let of_block (block : Nfl.Ast.block) =
  let sids = ref [] in
  Nfl.Ast.iter_stmts (fun s -> sids := s.Nfl.Ast.sid :: !sids) block;
  let sids = List.sort_uniq Int.compare !sids in
  let count = List.length sids + 2 in
  let sid_base, sid_max =
    match sids with [] -> (0, -1) | first :: _ -> (first, List.fold_left max first sids)
  in
  let sid_index = Array.make (sid_max - sid_base + 1) (-1) in
  List.iteri (fun i sid -> sid_index.(sid - sid_base) <- i + 2) sids;
  let g =
    {
      nodes = Entry :: Exit :: List.map (fun sid -> Stmt sid) sids;
      sid_base;
      sid_index;
      succs = Array.make count [];
      preds = Array.make count [];
      stmts = Array.make count None;
    }
  in
  (* Adjacency lists keep the newest edge first and hold each
     (node, label) pair once. *)
  let push a i ((n, l) as v) =
    if not (List.exists (fun (m, k) -> node_equal m n && k == l) a.(i)) then a.(i) <- v :: a.(i)
  in
  let add_edge src lbl dst =
    push g.succs (index g src) (dst, lbl);
    push g.preds (index g dst) (src, lbl)
  in
  (* [stmts ins block] wires [block] after the dangling edges [ins] and
     returns the new dangling edges. *)
  let rec stmts ins block =
    List.fold_left (fun ins s -> stmt ins s) ins block
  and stmt ins (s : Nfl.Ast.stmt) =
    let n = Stmt s.Nfl.Ast.sid in
    g.stmts.(index g n) <- Some s;
    List.iter (fun (src, lbl) -> add_edge src lbl n) ins;
    match s.Nfl.Ast.kind with
    | Nfl.Ast.Assign _ | Nfl.Ast.Expr _ | Nfl.Ast.Delete _ | Nfl.Ast.Pass -> [ (n, Seq) ]
    | Nfl.Ast.Return _ ->
        (* Ball–Horwitz pseudo-predicate treatment of jumps: the taken
           edge goes to [Exit], a (non-executable) false edge falls
           through. This makes later statements control-dependent on
           the return, so slices keep drop-path [return]s. *)
        add_edge n True Exit;
        [ (n, False) ]
    | Nfl.Ast.If (_, b1, b2) ->
        let t_exits = stmts [ (n, True) ] b1 in
        let f_exits = stmts [ (n, False) ] b2 in
        t_exits @ f_exits
    | Nfl.Ast.While (_, body) | Nfl.Ast.For_in (_, _, body) ->
        let body_exits = stmts [ (n, True) ] body in
        List.iter (fun (src, lbl) -> add_edge src lbl n) body_exits;
        [ (n, False) ]
  in
  let exits = stmts [ (Entry, Seq) ] block in
  List.iter (fun (src, lbl) -> add_edge src lbl Exit) exits;
  (* Ferrante pseudo-edge (unless the block is empty and Entry already
     flows straight to Exit). *)
  if not (List.exists (fun (n, _) -> node_equal n Exit) g.succs.(0)) then
    add_edge Entry False Exit;
  g

(** Nodes reachable from [Entry] following successor edges. *)
let reachable g =
  let rec go seen = function
    | [] -> seen
    | n :: rest ->
        if Nset.mem n seen then go seen rest
        else go (Nset.add n seen) (List.rev_append (succ_nodes g n) rest)
  in
  go Nset.empty [ Entry ]

(** Branch nodes: more than one distinct successor. *)
let branches g =
  List.filter
    (fun n ->
      match List.sort_uniq node_compare (succ_nodes g n) with _ :: _ :: _ -> true | _ -> false)
    g.nodes

let pp ppf g =
  List.iter
    (fun n ->
      let outs = succs g n in
      if outs <> [] then
        Fmt.pf ppf "%a -> %a@." pp_node n
          Fmt.(list ~sep:(any ", ") (fun ppf (m, l) ->
                   Fmt.pf ppf "%a%s" pp_node m
                     (match l with Seq -> "" | True -> "[T]" | False -> "[F]")))
          outs)
    g.nodes
