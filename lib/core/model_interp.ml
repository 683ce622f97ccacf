(** Concrete execution of an extracted model.

    Drives a {!Model.t} the way a stateful switch would: per packet,
    find the entry whose config/flow/state predicates hold under the
    current concrete state, emit its (transformed) packets and apply
    its state transition; no entry matching means the default
    low-priority {e drop}.

    This is the model half of the paper's accuracy experiment: the
    original program runs in {!Symexec.Interp}, the model runs here,
    and outputs are compared packet by packet. *)

open Symexec
module Smap = Map.Make (String)

exception Unresolved of string

type store = Value.t Smap.t
(** Concrete valuation of cfgVars and oisVars. *)

(** Initial store for a model: the extraction-time initial values of
    its config and state variables. *)
let initial_store (ex : Extract.result) =
  let init = Interp.initial_state ex.Extract.program in
  List.fold_left
    (fun acc v ->
      match Interp.Smap.find_opt v init with
      | Some value -> Smap.add v value acc
      | None -> acc)
    Smap.empty
    (ex.Extract.model.Model.cfg_vars @ ex.Extract.model.Model.ois_vars)

(* ------------------------------------------------------------------ *)
(* Symbolic-expression evaluation under a concrete environment        *)
(* ------------------------------------------------------------------ *)

(* [prefix] is the packet variable's field prefix (["pkt_var."]),
   computed once per public call: a symbol strictly longer than it and
   starting with it reads the packet, anything else reads the store.
   The prefix is tested in place, without copying. *)
let has_prefix ~prefix name =
  String.length name > String.length prefix && String.starts_with ~prefix name

let lookup_sym ~prefix store pkt name =
  if has_prefix ~prefix name then
    let plen = String.length prefix in
    match Value.pkt_field pkt (String.sub name plen (String.length name - plen)) with
    | Some v -> v
    | None -> raise (Unresolved name)
  else
    match Smap.find_opt name store with
    | Some v -> v
    | None -> raise (Unresolved name)

let eval_p ~prefix store pkt (e : Sexpr.t) : Value.t =
  let rec eval e =
    match Sexpr.view e with
    | Sexpr.Const v -> v
    | Sexpr.Sym s -> lookup_sym ~prefix store pkt s
    | Sexpr.Bin (op, a, b) -> Value.binop op (eval a) (eval b)
    | Sexpr.Not a -> Value.unop Nfl.Ast.Not (eval a)
    | Sexpr.Neg a -> Value.unop Nfl.Ast.Neg (eval a)
    | Sexpr.Tup es -> Value.Tuple (List.map eval es)
    | Sexpr.Lst es -> Value.List (List.map eval es)
    | Sexpr.Get (c, i) -> Value.index (eval c) (eval i)
    | Sexpr.Ufun (f, args) -> Value.apply_pure f (List.map eval args)
    | Sexpr.Mem (d, k) ->
        let dict = dict_after_writes d in
        Value.mem (eval k) (Value.Dict dict)
    | Sexpr.Dget (d, k) -> (
        let dict = dict_after_writes d in
        match Value.dict_get dict (eval k) with
        | Some v -> v
        | None -> raise (Unresolved ("missing key in " ^ d.Sexpr.base)))
    | Sexpr.Ite (g, a, b) -> (
        (* Only the selected arm is evaluated, so a chain of k merged
           value summaries replays in O(k) despite nesting. *)
        match eval g with
        | Value.Bool c -> eval (if c then a else b)
        | Value.Int n -> eval (if n <> 0 then a else b)
        | _ -> raise (Unresolved "non-boolean ite guard"))
  (* A dictionary snapshot: the store's value for the base, with the
     snapshot's (chronological) writes applied. *)
  and dict_after_writes (d : Sexpr.dict_state) =
    let base =
      if d.Sexpr.base = Sexpr.empty_base then []
      else
        match Smap.find_opt d.Sexpr.base store with
        | Some (Value.Dict kvs) -> kvs
        | Some _ | None -> raise (Unresolved ("dict " ^ d.Sexpr.base))
    in
    List.fold_left
      (fun acc (k, upd) ->
        let kv = eval k in
        match upd with
        | Some v -> Value.dict_set acc kv (eval v)
        | None -> Value.dict_remove acc kv)
      base
      (List.rev d.Sexpr.writes)
  in
  eval e

let prefix_of pkt_var = pkt_var ^ "."
let eval ?(pkt_var = "pkt") store pkt e = eval_p ~prefix:(prefix_of pkt_var) store pkt e

let holds_p ~prefix store pkt (l : Solver.literal) =
  match eval_p ~prefix store pkt l.Solver.atom with
  | Value.Bool b -> b = l.Solver.positive
  | Value.Int n -> n <> 0 = l.Solver.positive
  | _ -> false
  | exception Value.Type_error _ -> false
  | exception Unresolved _ -> false

let literal_holds ?(pkt_var = "pkt") store pkt l = holds_p ~prefix:(prefix_of pkt_var) store pkt l

(* ------------------------------------------------------------------ *)
(* Entry matching and application                                     *)
(* ------------------------------------------------------------------ *)

let entry_matches ?(pkt_var = "pkt") store pkt (e : Model.entry) =
  let holds = holds_p ~prefix:(prefix_of pkt_var) store pkt in
  List.for_all holds e.Model.config
  && List.for_all holds e.Model.flow_match
  && List.for_all holds e.Model.state_match

(* ------------------------------------------------------------------ *)
(* Config prefiltering                                                 *)
(* ------------------------------------------------------------------ *)

(* Config literals are predicates over cfgVars (the classifier sends
   anything touching the packet to flow_match), and state transitions
   only write oisVars — so config verdicts are invariant across a run
   and can be decided once instead of inside every [entry_matches].
   Evaluation uses a throwaway packet; literals that (degenerately)
   mention a packet field are kept for per-packet re-checking rather
   than decided against the dummy. *)
let null_pkt =
  Packet.Pkt.make ~ip_src:(Packet.Addr.ip 0 0 0 0) ~ip_dst:(Packet.Addr.ip 0 0 0 0)
    ~sport:0 ~dport:0 ()

let mentions_prefix ~prefix (l : Solver.literal) =
  Sexpr.Sset.exists (has_prefix ~prefix) (Sexpr.syms l.Solver.atom)

type active = {
  a_idx : int;  (** index of the entry in [Model.entries] *)
  a_entry : Model.entry;
  a_dyn_config : Solver.literal list;
      (** config literals that mention the packet and so could not be
          decided statically (empty for well-classified models) *)
}

(** Entries whose (packet-free) config literals hold under [store], in
    table order — the run-time analogue of {!Model.config_groups}:
    each distinct config set is decided once, keyed on its
    polarity-signed literal ids. *)
let actives (m : Model.t) store =
  let prefix = prefix_of m.Model.pkt_var in
  let verdicts : (int list, bool) Hashtbl.t = Hashtbl.create 8 in
  List.mapi
    (fun i (e : Model.entry) ->
      let dyn, static = List.partition (mentions_prefix ~prefix) e.Model.config in
      let key = List.sort compare (List.map Solver.lit_key static) in
      let ok =
        match Hashtbl.find_opt verdicts key with
        | Some b -> b
        | None ->
            let b = List.for_all (holds_p ~prefix store null_pkt) static in
            Hashtbl.add verdicts key b;
            b
      in
      if ok then Some { a_idx = i; a_entry = e; a_dyn_config = dyn } else None)
    m.Model.entries
  |> List.filter_map Fun.id

let active_matches ~prefix store pkt (a : active) =
  let holds = holds_p ~prefix store pkt in
  List.for_all holds a.a_dyn_config
  && List.for_all holds a.a_entry.Model.flow_match
  && List.for_all holds a.a_entry.Model.state_match

let build_packet ~prefix store pkt snapshot =
  List.fold_left
    (fun acc (f, e) ->
      let v = eval_p ~prefix store pkt e in
      if Packet.Headers.is_int_field f then Packet.Pkt.set_int acc f (Value.as_int v)
      else
        match v with
        | Value.Str s -> Packet.Pkt.set_str acc f s
        | _ -> raise (Unresolved ("payload field " ^ f)))
    pkt snapshot

(* Compute the post-value of one state variable. All expressions are
   evaluated against the pre-state [store], so updates to different
   variables cannot observe each other. *)
let computed_update ~prefix store pkt (v, upd) =
  let eval = eval_p ~prefix in
  match upd with
  | Model.Set_scalar e -> (v, eval store pkt e)
  | Model.Dict_ops ops ->
      let current =
        match Smap.find_opt v store with
        | Some (Value.Dict kvs) -> kvs
        | Some _ | None -> raise (Unresolved ("dict " ^ v))
      in
      let updated =
        List.fold_left
          (fun acc (k, op) ->
            let kv = eval store pkt k in
            match op with
            | Some value -> Value.dict_set acc kv (eval store pkt value)
            | None -> Value.dict_remove acc kv)
          current ops
      in
      (v, Value.Dict updated)

type miss_reason =
  | No_entries  (** the model has no entries at all *)
  | No_active_config  (** entries exist, but no config condition set holds *)
  | No_flow_state_match  (** an active config group exists, but no entry matched *)

type step = {
  outputs : Packet.Pkt.t list;
  store : store;
  matched : int option;  (** index of the entry that fired, [None] = table miss (drop) *)
  miss : miss_reason option;  (** why the packet missed; [None] when an entry fired *)
}

(** Process one packet: first matching entry fires; all expressions are
    evaluated against the pre-state, then the state transition commits
    — matching one iteration of the original loop. [actives] lets a
    caller hoist the (run-invariant) config evaluation out of its
    per-packet loop; it must be [actives m store] for this [store]'s
    config valuation. *)
let step ?actives:acts_opt (m : Model.t) store pkt =
  let prefix = prefix_of m.Model.pkt_var in
  let acts = match acts_opt with Some a -> a | None -> actives m store in
  let rec find = function
    | [] -> None
    | a :: rest -> if active_matches ~prefix store pkt a then Some a else find rest
  in
  match find acts with
  | None ->
      let miss =
        if m.Model.entries = [] then No_entries
        else if acts = [] then No_active_config
        else No_flow_state_match
      in
      { outputs = []; store; matched = None; miss = Some miss }
  | Some a ->
      let e = a.a_entry in
      let outputs =
        match e.Model.pkt_action with
        | Model.Drop -> []
        | Model.Forward snaps -> List.map (build_packet ~prefix store pkt) snaps
      in
      let updates = List.map (computed_update ~prefix store pkt) e.Model.state_update in
      let store' = List.fold_left (fun st (v, value) -> Smap.add v value st) store updates in
      { outputs; store = store'; matched = Some a.a_idx; miss = None }

(** Run a packet sequence through the model, collecting per-packet
    outputs. Config literals are evaluated once for the whole run (they
    are invariant: state transitions only write oisVars), not per
    packet per entry. *)
let run (m : Model.t) ~store ~pkts =
  let acts = actives m store in
  let final_store, per_pkt_rev =
    List.fold_left
      (fun (st, acc) pkt ->
        let r = step ~actives:acts m st pkt in
        (r.store, r.outputs :: acc))
      (store, []) pkts
  in
  (final_store, List.rev per_pkt_rev)
