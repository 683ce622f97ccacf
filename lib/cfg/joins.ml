(* Join-point identification for the worklist explorer's path merging.

   A branch statement has a *join point* when both arms rejoin at a
   real program point: the branch node's immediate post-dominator is a
   [Stmt] node. When the immediate post-dominator is [Exit] (an arm
   returns, or the branch is the last statement), the arms never meet
   again inside the block and the explorer keeps them as separate
   paths. Branches nested inside loop bodies are additionally reported
   through [in_loop]: the explorer unrolls loops, so states at the
   "same" branch in different unroll iterations are *not* at the same
   control location, and merging there would conflate first-match
   table semantics (see the acl corpus member) with straight-line
   classifier chains. *)

type t = {
  ipdom : Dominance.t;
  branch_sids : (int, unit) Hashtbl.t;
  loop_sids : (int, unit) Hashtbl.t;
  mutable chains : (int, int) Hashtbl.t option;  (** sid -> diamond-chain length (lazy) *)
}

let rec mark_loop_body ~in_loop t (b : Nfl.Ast.block) =
  List.iter
    (fun (s : Nfl.Ast.stmt) ->
      if in_loop then Hashtbl.replace t.loop_sids s.Nfl.Ast.sid ();
      match s.Nfl.Ast.kind with
      | Nfl.Ast.If (_, bt, bf) ->
          mark_loop_body ~in_loop t bt;
          mark_loop_body ~in_loop t bf
      | Nfl.Ast.While (_, body) | Nfl.Ast.For_in (_, _, body) ->
          mark_loop_body ~in_loop:true t body
      | _ -> ())
    b

let of_block (b : Nfl.Ast.block) =
  let g = Cfg.of_block b in
  let ipdom = Dominance.post_dominators g in
  let t =
    {
      ipdom;
      branch_sids = Hashtbl.create 32;
      loop_sids = Hashtbl.create 32;
      chains = None;
    }
  in
  List.iter
    (fun n ->
      match (n, Cfg.stmt_of g n) with
      | Cfg.Stmt sid, Some { Nfl.Ast.kind = Nfl.Ast.If _; _ } ->
          Hashtbl.replace t.branch_sids sid ()
      | _ -> ())
    (Cfg.branches g);
  mark_loop_body ~in_loop:false t b;
  t

let in_loop t sid = Hashtbl.mem t.loop_sids sid

let join_of t sid =
  if not (Hashtbl.mem t.branch_sids sid) then None
  else
    match Cfg.Nmap.find_opt (Cfg.Stmt sid) t.ipdom with
    | Some (Cfg.Stmt j) -> Some (Cfg.Stmt j)
    | Some (Cfg.Entry | Cfg.Exit) | None -> None

let mergeable t sid = in_loop t sid = false && join_of t sid <> None

(* Diamond chains: diamond A is followed by diamond B when A's join
   point IS B — the exact shape whose path count doubles per link
   (sequential two-way branches). Chain length of a diamond is the
   number of diamonds on its maximal such chain; nested diamonds
   (elif ladders) share a join and so sit on separate short chains,
   matching their linear path count. *)
let compute_chains t =
  let nexts = Hashtbl.create 16 in
  Hashtbl.iter
    (fun sid () ->
      if not (in_loop t sid) then
        match join_of t sid with
        | Some (Cfg.Stmt j) when mergeable t j -> Hashtbl.replace nexts sid j
        | _ -> ())
    t.branch_sids;
  (* forward count: this diamond plus the diamonds after it *)
  let fwd = Hashtbl.create 16 in
  let rec f sid =
    match Hashtbl.find_opt fwd sid with
    | Some v -> v
    | None ->
        let v = 1 + (match Hashtbl.find_opt nexts sid with Some j -> f j | None -> 0) in
        Hashtbl.replace fwd sid v;
        v
  in
  (* backward count: diamonds strictly before this one on its chain *)
  let bwd = Hashtbl.create 16 in
  let pred_of = Hashtbl.create 16 in
  Hashtbl.iter (fun sid j -> Hashtbl.add pred_of j sid) nexts;
  let rec b sid =
    match Hashtbl.find_opt bwd sid with
    | Some v -> v
    | None ->
        let v =
          List.fold_left
            (fun acc p -> max acc (1 + b p))
            0 (Hashtbl.find_all pred_of sid)
        in
        Hashtbl.replace bwd sid v;
        v
  in
  let chains = Hashtbl.create 16 in
  Hashtbl.iter
    (fun sid () -> if mergeable t sid then Hashtbl.replace chains sid (b sid + f sid))
    t.branch_sids;
  chains

let chain_len t sid =
  let chains =
    match t.chains with
    | Some c -> c
    | None ->
        let c = compute_chains t in
        t.chains <- Some c;
        c
  in
  Option.value ~default:0 (Hashtbl.find_opt chains sid)
