(** Generic monotone-framework worklist solver.

    Parameterized over the fact lattice; clients instantiate it for
    reaching definitions and liveness. Termination relies on the usual
    contract: [join] is monotone w.r.t. [equal]-stability and the
    lattice has finite height (all our facts are finite sets over the
    program's variables and statement ids). *)

type direction = Forward | Backward

type 'fact problem = {
  direction : direction;
  init : 'fact;  (** fact at the boundary (entry or exit) *)
  bottom : 'fact;  (** initial value for all interior program points *)
  transfer : Cfg.node -> 'fact -> 'fact;
  join : 'fact -> 'fact -> 'fact;
  equal : 'fact -> 'fact -> bool;
}

type 'fact solution = { inf : Cfg.node -> 'fact; outf : Cfg.node -> 'fact }

let solve g (p : 'fact problem) : 'fact solution =
  let module Nmap = Cfg.Nmap in
  let nodes = Cfg.nodes g in
  (* Statement ids follow the program text, so [nodes] lists the
     statements in execution order up to loop back edges. *)
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
  (* FIFO worklist seeded along the flow; a node already waiting is not
     queued again, since its one pending visit reads the latest facts. *)
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
        | ps ->
            List.fold_left (fun acc q -> p.join acc (Nmap.find q !outputs)) p.bottom ps
    in
    let out_fact = p.transfer n in_fact in
    inputs := Nmap.add n in_fact !inputs;
    if not (p.equal out_fact (Nmap.find n !outputs)) then begin
      outputs := Nmap.add n out_fact !outputs;
      List.iter push (succs_of n)
    end
  done;
  let inputs = !inputs and outputs = !outputs in
  (* In forward problems "in" is the flow into the node; in backward
     problems callers still ask with the same orientation, so swap. *)
  match p.direction with
  | Forward -> { inf = (fun n -> Nmap.find n inputs); outf = (fun n -> Nmap.find n outputs) }
  | Backward -> { inf = (fun n -> Nmap.find n outputs); outf = (fun n -> Nmap.find n inputs) }
