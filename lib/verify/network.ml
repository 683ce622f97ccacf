(** Stateful network verification over extracted models (paper
    Section 4, "Network Verification", way 2: extending stateless
    verification).

    Each model becomes a network transfer function [T(h, p, s)]: given
    a packet at a port and the NF's current state, it yields the
    packets at the next hop and the successor state. A network is a
    chain/DAG of NF instances; reachability questions ("can a packet
    from A ever reach B?", "only after state s was established?") are
    answered by executing packet sequences through the composed
    transfer functions — stateful by construction, which is exactly
    what HSA-style stateless tools cannot express. *)

open Nfactor

type node = {
  id : string;
  model : Model.t;
  mutable store : Model_interp.store;
  mutable actives : Model_interp.active list option;
      (** config-entry prefilter, computed once per store generation —
          config literals only read cfgVars, so the verdict list stays
          valid until a step rewrites a config binding *)
}

(** A unidirectional service chain of NF instances. *)
type chain = { nodes : node list }

let node id model store = { id; model; store; actives = None }

let node_of_extraction id (ex : Extract.result) =
  node id ex.Extract.model (Model_interp.initial_store ex)

let chain nodes = { nodes }

let reset_chain c ~stores =
  let n_nodes = List.length c.nodes and n_stores = List.length stores in
  if n_nodes <> n_stores then
    invalid_arg
      (Printf.sprintf
         "Network.reset_chain: chain [%s] has %d node(s) but %d store(s) were supplied"
         (String.concat " -> " (List.map (fun n -> n.id) c.nodes))
         n_nodes n_stores);
  List.iter2
    (fun n s ->
      n.store <- s;
      n.actives <- None)
    c.nodes stores

(** One packet through the chain: each NF transforms (possibly into
    several packets, or none = dropped); state updates stick. Returns
    the packets emerging from the last NF and the per-hop trace. *)
type hop = { node_id : string; entered : Packet.Pkt.t list; left : Packet.Pkt.t list }

(* State transitions normally write oisVars only, so a node's actives
   list survives across steps; a step that does rewrite a config
   binding (nothing in the corpus does, but models are data) drops the
   cached list and the next packet recomputes it. *)
let config_changed (m : Model.t) before after =
  before != after
  && List.exists
       (fun v ->
         match (Model_interp.Smap.find_opt v before, Model_interp.Smap.find_opt v after) with
         | Some a, Some b -> not (Symexec.Value.equal a b)
         | None, None -> false
         | _ -> true)
       m.Model.cfg_vars

let node_actives n =
  match n.actives with
  | Some a -> a
  | None ->
      let a = Model_interp.actives n.model n.store in
      n.actives <- Some a;
      a

let push c pkt =
  let rec go pkts nodes trace =
    match nodes with
    | [] -> (pkts, List.rev trace)
    | n :: rest ->
        let outs =
          List.concat_map
            (fun p ->
              let before = n.store in
              let r = Model_interp.step ~actives:(node_actives n) n.model before p in
              n.store <- r.Model_interp.store;
              if config_changed n.model before r.Model_interp.store then
                n.actives <- None;
              r.Model_interp.outputs)
            pkts
        in
        go outs rest ({ node_id = n.id; entered = pkts; left = outs } :: trace)
  in
  go [ pkt ] c.nodes []

(* Replay from fixed snapshots: every packet starts a fresh chain at
   the same stores, so each node's config prefilter is computed once
   for its snapshot (when [replay nodes] is applied) and handed to
   every fresh node. A step that rewrites a config binding still drops
   the fresh node's copy in [push]; the next packet starts from the
   snapshot's list again. *)
let replay nodes =
  let snapshots = List.map (fun (id, m, s) -> (id, m, s, Model_interp.actives m s)) nodes in
  let fresh (id, model, store, a) = { id; model; store; actives = Some a } in
  fun pkt -> fst (push (chain (List.map fresh snapshots)) pkt)

(** Drive a packet sequence; returns per-packet chain outputs. *)
let run c pkts = List.map (fun p -> push c p) pkts

(* ------------------------------------------------------------------ *)
(* Reachability queries                                               *)
(* ------------------------------------------------------------------ *)

type reach_result = {
  delivered : Packet.Pkt.t list;  (** packets that traversed the whole chain *)
  trace : hop list;  (** last packet's per-hop record *)
}

(** [reaches c pkt ~dst]: does [pkt], injected now (with the chain's
    current state), emerge from the chain destined to [dst]? *)
let reaches c pkt ~dst =
  let outs, trace = push c pkt in
  let delivered = List.filter (fun (p : Packet.Pkt.t) -> p.Packet.Pkt.ip_dst = dst) outs in
  { delivered; trace }

(** Exhaustive small-space reachability: inject every packet the
    generator produces and report which are delivered anywhere.
    Useful for "no external packet can reach the internal net unless a
    pinhole exists" style invariants. *)
let survey c ~pkts ~violates =
  List.filter_map
    (fun pkt ->
      let outs, trace = push c pkt in
      match List.find_opt (fun out -> violates ~input:pkt ~output:out) outs with
      | Some out -> Some (pkt, out, trace)
      | None -> None)
    pkts

let pp_hop ppf h =
  Fmt.pf ppf "%s: %d in -> %d out" h.node_id (List.length h.entered) (List.length h.left)

let pp_trace ppf t = Fmt.(list ~sep:(any " | ") pp_hop) ppf t
