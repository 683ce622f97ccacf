(** Gen/kill bit-vector dataflow over a CFG's dense node numbering
    ({!Cfg.index}).

    Facts are fixed-width bit sets (one bit per definition or per
    variable, numbered by the client), and every node's transfer is
    [out = gen ∪ (in − kill)], so a pass over a node is a few word
    operations. The worklist is seeded along the flow and never holds a
    node twice; the solution is the least fixpoint, the same one any
    visiting order reaches. *)

module Bits = struct
  type t = int array

  let bpw = Sys.int_size
  let create width = Array.make ((width + bpw - 1) / bpw) 0
  let add (t : t) i = t.(i / bpw) <- t.(i / bpw) lor (1 lsl (i mod bpw))
  let mem (t : t) i = t.(i / bpw) land (1 lsl (i mod bpw)) <> 0

  let iter f (t : t) =
    Array.iteri
      (fun w word ->
        if word <> 0 then
          for b = 0 to bpw - 1 do
            if word land (1 lsl b) <> 0 then f ((w * bpw) + b)
          done)
      t
end

type direction = Forward | Backward

type problem = {
  direction : direction;
  width : int;  (** bits per fact *)
  gen : Bits.t array;  (** per node, by {!Cfg.index} *)
  kill : Bits.t array;
  boundary_in : Bits.t;
      (** fact flowing into the boundary node ([Entry] forward, [Exit]
          backward) *)
}

type solution = {
  inf : Bits.t array;  (** fact flowing into each node, in the problem's direction *)
  outf : Bits.t array;  (** fact flowing out of each node *)
}

let solve g p =
  let nodes = Array.of_list (Cfg.nodes g) in
  let n = Array.length nodes in
  let adj f = Array.map (fun nd -> Array.of_list (List.map (Cfg.index g) (f g nd))) nodes in
  let words = Array.length (Bits.create p.width) in
  let inf = Array.init n (fun _ -> Array.make words 0) in
  let outf = Array.init n (fun _ -> Array.make words 0) in
  let boundary, flow_preds, flow_succs =
    match p.direction with
    | Forward -> (Cfg.index g Cfg.Entry, adj Cfg.pred_nodes, adj Cfg.succ_nodes)
    | Backward -> (Cfg.index g Cfg.Exit, adj Cfg.succ_nodes, adj Cfg.pred_nodes)
  in
  let queue = Queue.create () and queued = Array.make n false in
  let push i =
    if not queued.(i) then begin
      queued.(i) <- true;
      Queue.push i queue
    end
  in
  (match p.direction with
  | Forward ->
      for i = 0 to n - 1 do
        push i
      done
  | Backward ->
      for i = n - 1 downto 0 do
        push i
      done);
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    queued.(i) <- false;
    let fin = inf.(i) in
    if i = boundary then Array.blit p.boundary_in 0 fin 0 words
    else begin
      Array.fill fin 0 words 0;
      Array.iter
        (fun j ->
          let o = outf.(j) in
          for w = 0 to words - 1 do
            fin.(w) <- fin.(w) lor o.(w)
          done)
        flow_preds.(i)
    end;
    let gen = p.gen.(i) and kill = p.kill.(i) and fout = outf.(i) in
    let changed = ref false in
    for w = 0 to words - 1 do
      let v = gen.(w) lor (fin.(w) land lnot kill.(w)) in
      if v <> fout.(w) then begin
        fout.(w) <- v;
        changed := true
      end
    done;
    if !changed then Array.iter push flow_succs.(i)
  done;
  { inf; outf }
