type t = {
  outputs : Packet.Pkt.t list array;
  fired : int option array option;
  stores : (string * Nfactor.Model_interp.store) list;
  counters : string option;
}

let nf_name (plan : Compile.t) = plan.Compile.model.Nfactor.Model.nf_name

let interp (model : Nfactor.Model.t) ~store pkts =
  let actives = Nfactor.Model_interp.actives model store in
  let st = ref store in
  let step pkt =
    let r = Nfactor.Model_interp.step ~actives model !st pkt in
    st := r.Nfactor.Model_interp.store;
    (r.Nfactor.Model_interp.outputs, r.Nfactor.Model_interp.matched)
  in
  let outputs, fired = Array.split (Array.map step pkts) in
  { outputs; fired = Some fired; stores = [ (model.Nfactor.Model.nf_name, !st) ]; counters = None }

let of_outcomes outs ~hop ~store ~counters =
  let split (o : Engine.outcome) = (o.Engine.outputs, o.Engine.fired) in
  let outputs, fired = Array.split (Array.map split outs) in
  { outputs; fired = Some fired; stores = [ (hop, store) ]; counters = Some counters }

let engine (e : Engine.t) pkts =
  let outs = Engine.run_batch e pkts in
  of_outcomes outs ~hop:(nf_name e.Engine.plan) ~store:(Engine.snapshot e)
    ~counters:(Engine.stats_json e)

let shard sh pkts =
  let outs = Shard.run_batch sh pkts in
  let plan = Shard.plan sh in
  of_outcomes outs ~hop:(nf_name plan) ~store:(Shard.snapshot sh)
    ~counters:
      (Engine.stats_json_of ~nf:(nf_name plan) ~plan ~evictions:(Shard.evictions sh)
         (Shard.merged_stats sh))

(* Every chain counter, each hop's entry hits included. *)
let of_chain outputs ~stores ~injected ~fused_walks hops =
  let hop (id, (s : Engine.stats)) =
    Fmt.str "%s: %a | entry hits %a" id (Engine.pp_stats_of ~evictions:0) s
      Fmt.(array ~sep:sp int) s.Engine.entry_hits
  in
  let counters = Printf.sprintf "injected %d, fused walks %d" injected fused_walks in
  { outputs; fired = None; stores; counters = Some (String.concat "\n" (counters :: List.map hop hops)) }

let chain (c : Chainengine.t) pkts =
  let outputs = Chainengine.run_batch c pkts in
  of_chain outputs ~stores:(Chainengine.snapshot_hops c) ~injected:c.Chainengine.injected
    ~fused_walks:c.Chainengine.fused_walks (Chainengine.hop_stats c)

let sharded_chain sh pkts =
  let outputs = Chainengine.shard_run_batch sh pkts in
  of_chain outputs ~stores:(Chainengine.shard_snapshot_hops sh)
    ~injected:(Chainengine.shard_injected sh) ~fused_walks:(Chainengine.shard_fused_walks sh)
    (Chainengine.shard_hop_stats sh)

let of_network_run (net : Verify.Network.chain) results =
  let store (n : Verify.Network.node) = (n.Verify.Network.id, n.Verify.Network.store) in
  let outputs = Array.of_list (List.map fst results) in
  { outputs; fired = None; stores = List.map store net.Verify.Network.nodes; counters = None }

let network nodes pkts =
  let net = Verify.Network.chain (List.map (fun (id, m, s) -> Verify.Network.node id m s) nodes) in
  of_network_run net (Verify.Network.run net (Array.to_list pkts))

type verdict = {
  packets : int;
  output_at : int option;
  fired_at : int option;
  store_at : (int * string) option;
  counters_agree : bool;
}

(* First index at which [a] and [b] differ; an index present on one
   side only differs. *)
let first_diff eq a b =
  let at x i = if i < Array.length x then Some x.(i) else None in
  let n = max (Array.length a) (Array.length b) in
  let rec go i = if i >= n then None else if Option.equal eq (at a i) (at b i) then go (i + 1) else Some i in
  go 0

(* A part is compared only when both sides observe it. *)
let both f a b = match (a, b) with Some a, Some b -> f a b | _ -> None

let compare ~reference o =
  let stores = Array.of_list reference.stores and got = Array.of_list o.stores in
  let same_store (_, a) (_, b) = Nfactor.Model_interp.Smap.equal Symexec.Value.equal a b in
  let hop i = (i, fst (if i < Array.length stores then stores.(i) else got.(i))) in
  {
    packets = Array.length reference.outputs;
    output_at = first_diff (List.equal Packet.Pkt.equal) reference.outputs o.outputs;
    fired_at = both (first_diff (Option.equal Int.equal)) reference.fired o.fired;
    store_at = Option.map hop (first_diff same_store stores got);
    counters_agree =
      (match (reference.counters, o.counters) with Some a, Some b -> String.equal a b | _ -> true);
  }

let ok v = v.output_at = None && v.fired_at = None && v.store_at = None && v.counters_agree

let pp_verdict ppf v =
  let part cond fmt = Option.map (Printf.sprintf fmt) cond in
  if ok v then Fmt.pf ppf "agree on %d packets" v.packets
  else
    Fmt.(list ~sep:(any "; ") string) ppf
      (List.filter_map Fun.id
         [
           part v.output_at "outputs differ at packet %d";
           part v.fired_at "fired entry differs at packet %d";
           Option.map (fun (i, id) -> Printf.sprintf "store of hop %d (%s) differs" i id) v.store_at;
           (if v.counters_agree then None else Some "counters differ");
         ])
