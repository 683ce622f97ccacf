(** Batched execution of a compiled plan. See the interface for the
    dispatch strategy; the parity contract with
    {!Nfactor.Model_interp.step} is: same entry fires, same outputs,
    same state effect, and the same exceptions in the same order. *)

open Symexec

type stats = {
  mutable packets : int;
  entry_hits : int array;
  mutable fsm_hits : int;
  mutable index_hits : int;
  mutable tree_hits : int;
  mutable scan_hits : int;
  mutable leaf_tests : int;
  mutable scan_tests : int;
  mutable miss_no_config : int;
  mutable miss_no_match : int;
}

type t = {
  mutable plan : Compile.t;
  state : Flowstate.t;
  stats : stats;
  mutable cache : int array;
  mutable gen : int;
  mutable pmask : int;
  mutable uscratch : Value.t array;
}

(* [pmask] bits: which dispatch levels the current packet's walk
   crossed, for hit attribution without per-packet allocation. *)
let m_fsm = 1
let m_hash = 2
let m_tree = 4

let mk_stats (plan : Compile.t) =
  {
    packets = 0;
    entry_hits = Array.make (Nfactor.Model.entry_count plan.Compile.model) 0;
    fsm_hits = 0;
    index_hits = 0;
    tree_hits = 0;
    scan_hits = 0;
    leaf_tests = 0;
    scan_tests = 0;
    miss_no_config = 0;
    miss_no_match = 0;
  }

let of_flowstate (plan : Compile.t) state =
  {
    plan;
    state;
    stats = mk_stats plan;
    cache = Array.make (max 1 (Array.length plan.Compile.lit_fns)) 0;
    gen = 0;
    pmask = 0;
    uscratch = Array.make (max 1 plan.Compile.max_uslots) (Value.Bool false);
  }

let create ?capacity (plan : Compile.t) ~store =
  of_flowstate plan (Flowstate.create ?capacity store)

let of_model ?capacity m ~config ~store =
  create ?capacity (Compile.compile m ~config) ~store

(* An RCU-style reconfiguration: the new plan was built off to the
   side; pointing the engine at it between packets only needs the
   per-literal verdict cache re-sized (slot numbering is per-plan) and
   the update scratch grown. Counters survive — entry indices refer to
   the source model, which must keep its shape. *)
let swap_plan t (plan : Compile.t) =
  if
    Nfactor.Model.entry_count plan.Compile.model
    <> Array.length t.stats.entry_hits
  then invalid_arg "Engine.swap_plan: plan compiled from a different model shape";
  t.plan <- plan;
  t.cache <- Array.make (max 1 (Array.length plan.Compile.lit_fns)) 0;
  t.gen <- 0;
  if plan.Compile.max_uslots > Array.length t.uscratch then
    t.uscratch <- Array.make plan.Compile.max_uslots (Value.Bool false)

type outcome = { outputs : Packet.Pkt.t list; fired : int option }

let miss_outcome = { outputs = []; fired = None }

(* Cached literal test: slot [s] holds a generation-stamped verdict
   [(gen lsl 1) lor bool], so each distinct literal evaluates at most
   once per packet regardless of how many entries test it. *)
let test t pkt s =
  let stamp = t.cache.(s) in
  if stamp lsr 1 = t.gen then stamp land 1 = 1
  else begin
    let b = t.plan.Compile.lit_fns.(s) t.state pkt in
    t.cache.(s) <- (t.gen lsl 1) lor Bool.to_int b;
    b
  end

let entry_holds t pkt (ce : Compile.centry) =
  let n = Array.length ce.Compile.slots in
  let rec go i = i >= n || (test t pkt ce.Compile.slots.(i) && go (i + 1)) in
  go 0

(* Updates evaluate entirely against the pre-state before anything
   commits — mirroring [computed_update]'s "all expressions see the
   pre-state" rule (and its exception order: dict base first, then
   each op chronologically). Resolved values land in [t.uscratch]
   (sized by the plan's [max_uslots]) in resolve order; the commit
   pass walks the same updates with the same cursor discipline and
   applies only the flagged ones — the compiler marked the last update
   per variable, which is all the reference's [Smap.add] folding makes
   observable. *)
let resolve_updates t pkt (ce : Compile.centry) =
  let sc = t.uscratch in
  let i = ref 0 in
  List.iter
    (fun ((u : Compile.cupdate), _) ->
      match u with
      | Compile.CSet (_, f) ->
          sc.(!i) <- f t.state pkt;
          incr i
      | Compile.CDict (v, ops) ->
          ignore (Flowstate.handle t.state v);
          List.iter
            (fun (kf, uf) ->
              sc.(!i) <- kf t.state pkt;
              incr i;
              match uf with
              | Some f ->
                  sc.(!i) <- f t.state pkt;
                  incr i
              | None -> ())
            ops)
    ce.Compile.updates

let commit_updates t (ce : Compile.centry) =
  let sc = t.uscratch in
  let i = ref 0 in
  List.iter
    (fun ((u : Compile.cupdate), flagged) ->
      match u with
      | Compile.CSet (v, _) ->
          let x = sc.(!i) in
          incr i;
          if flagged then Flowstate.set_scalar t.state v x
      | Compile.CDict (v, ops) ->
          List.iter
            (fun (_, uf) ->
              let k = sc.(!i) in
              incr i;
              match uf with
              | Some _ ->
                  let value = sc.(!i) in
                  incr i;
                  if flagged then Flowstate.table_set t.state v k value
              | None -> if flagged then Flowstate.table_remove t.state v k)
            ops)
    ce.Compile.updates

let fire t pkt (ce : Compile.centry) =
  let outputs =
    Array.to_list
      (Array.map
         (fun snap -> List.fold_left (fun acc (set, f) -> set acc (f t.state pkt)) pkt snap)
         ce.Compile.emit)
  in
  resolve_updates t pkt ce;
  commit_updates t ce;
  t.stats.entry_hits.(ce.Compile.eidx) <- t.stats.entry_hits.(ce.Compile.eidx) + 1;
  { outputs; fired = Some ce.Compile.eidx }

(* Map a discriminator value to its class index. *)
let seg_index cuts n =
  (* 2 * (#cuts < n), plus 1 when n is itself a cut *)
  let lo = ref 0 and hi = ref (Array.length cuts) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cuts.(mid) < n then lo := mid + 1 else hi := mid
  done;
  let k = !lo in
  if k < Array.length cuts && cuts.(k) = n then (2 * k) + 1 else 2 * k

let class_index (vdis : Compile.vdispatch) v =
  match vdis with
  | Compile.VHash { table; other } -> (
      match Hashtbl.find_opt table v with Some i -> i | None -> other)
  | Compile.VRange { cuts; classes; non_int } -> (
      match v with
      | Value.Int n -> classes.(seg_index cuts n)
      | _ -> non_int)

let find_candidate t pkt (ces : Compile.centry array) =
  let dispatched = t.pmask <> 0 in
  let n = Array.length ces in
  let rec go i =
    if i >= n then None
    else begin
      let ce = ces.(i) in
      if ce.Compile.scan || not dispatched then
        t.stats.scan_tests <- t.stats.scan_tests + 1
      else t.stats.leaf_tests <- t.stats.leaf_tests + 1;
      if entry_holds t pkt ce then Some ce else go (i + 1)
    end
  in
  go 0

let rec descend t pkt (node : Compile.dnode) =
  match node with
  | Compile.Leaf ces -> find_candidate t pkt ces
  | Compile.Dstate { base; key; vdis; absent; unres; children; _ } ->
      let idx =
        match key t.state pkt with
        | exception (Value.Type_error _ | Nfactor.Model_interp.Unresolved _) ->
            unres
        | kv -> (
            match Flowstate.state_read t.state base kv with
            | `No_table -> unres
            | `Absent -> absent
            | `Value v -> class_index vdis v)
      in
      t.pmask <- t.pmask lor m_fsm;
      descend t pkt children.(idx)
  | Compile.Dexpr { expr; vdis; unres; children; _ } ->
      let idx =
        match expr t.state pkt with
        | exception (Value.Type_error _ | Nfactor.Model_interp.Unresolved _) ->
            unres
        | v -> class_index vdis v
      in
      t.pmask <-
        t.pmask
        lor (match vdis with Compile.VHash _ -> m_hash | Compile.VRange _ -> m_tree);
      descend t pkt children.(idx)
  | Compile.Dbool { expr; truthy; falsy; nonbool; unres; children; _ } ->
      let idx =
        match expr t.state pkt with
        | exception (Value.Type_error _ | Nfactor.Model_interp.Unresolved _) ->
            unres
        | Value.Bool true -> truthy
        | Value.Bool false -> falsy
        | Value.Int n -> if n <> 0 then truthy else falsy
        | _ -> nonbool
      in
      t.pmask <- t.pmask lor m_tree;
      descend t pkt children.(idx)

(* Attribution: state node on the walk -> FSM hit; else hash node ->
   index hit; else range/truthiness node -> tree hit; nothing (root
   leaf) or a residual entry -> scan. *)
let attribute t (ce : Compile.centry) =
  if ce.Compile.scan then t.stats.scan_hits <- t.stats.scan_hits + 1
  else if t.pmask land m_fsm <> 0 then t.stats.fsm_hits <- t.stats.fsm_hits + 1
  else if t.pmask land m_hash <> 0 then
    t.stats.index_hits <- t.stats.index_hits + 1
  else if t.pmask land m_tree <> 0 then
    t.stats.tree_hits <- t.stats.tree_hits + 1
  else t.stats.scan_hits <- t.stats.scan_hits + 1

let count_miss t =
  let entries = Nfactor.Model.entry_count t.plan.Compile.model in
  if t.plan.Compile.live = 0 && entries > 0 then
    t.stats.miss_no_config <- t.stats.miss_no_config + 1
  else t.stats.miss_no_match <- t.stats.miss_no_match + 1

let begin_walk t =
  Flowstate.bump_clock t.state;
  t.gen <- t.gen + 1;
  t.stats.packets <- t.stats.packets + 1;
  t.pmask <- 0

(* Step from an arbitrary dispatch node of the current plan — the
   chain linker hands fused packets a start node below the root (the
   upstream hop already decided the skipped prefix). Semantics are
   otherwise [step]'s. *)
let step_at t ~root pkt =
  begin_walk t;
  match descend t pkt root with
  | Some ce ->
      attribute t ce;
      fire t pkt ce
  | None ->
      count_miss t;
      miss_outcome

let step t pkt = step_at t ~root:t.plan.Compile.root pkt

(* ------------------------------------------------------------------ *)
(* Deferred execution (the sharded dataplane's phase protocol)         *)
(* ------------------------------------------------------------------ *)

type pending = { pce : Compile.centry; ppmask : int }

(* One parallel-phase step. The walk runs normally; three exits:

   - [`Rewalk]: the walk read through a frozen store (shared mutable
     state), so its verdict may be stale. Every counter the walk
     touched is rolled back and the caller re-runs the packet
     serially — the discarded walk is invisible in the merged stats.
   - [`Defer p]: the walk is provably exact (no frozen reads) but the
     matched entry is serial (its fire touches shared state). The
     match and its counters stand; the fire is carried in [p] for the
     serial phase — the packet is never walked twice.
   - [`Out]: fully handled here.

   The rolled-back walk still advanced the store clock and stamped
   recency on shard-local reads; both are invisible to unbounded
   stores and documented noise under a capacity bound. *)
let step_or_defer t ~serial pkt =
  let s = t.stats in
  let sv_packets = s.packets
  and sv_fsm = s.fsm_hits
  and sv_index = s.index_hits
  and sv_tree = s.tree_hits
  and sv_scan = s.scan_hits
  and sv_leaf = s.leaf_tests
  and sv_stests = s.scan_tests
  and sv_mnc = s.miss_no_config
  and sv_mnm = s.miss_no_match in
  let fh0 = Flowstate.frozen_hits t.state in
  begin_walk t;
  let matched = descend t pkt t.plan.Compile.root in
  if Flowstate.frozen_hits t.state <> fh0 then begin
    s.packets <- sv_packets;
    s.fsm_hits <- sv_fsm;
    s.index_hits <- sv_index;
    s.tree_hits <- sv_tree;
    s.scan_hits <- sv_scan;
    s.leaf_tests <- sv_leaf;
    s.scan_tests <- sv_stests;
    s.miss_no_config <- sv_mnc;
    s.miss_no_match <- sv_mnm;
    `Rewalk
  end
  else
    match matched with
    | Some ce when serial ce.Compile.eidx -> `Defer { pce = ce; ppmask = t.pmask }
    | Some ce ->
        attribute t ce;
        `Out (fire t pkt ce)
    | None ->
        count_miss t;
        `Out miss_outcome

(* Serial-phase completion of a [`Defer]: re-uses the parallel-phase
   match (no second walk, no second packet count); emits and updates
   evaluate fresh against the now-current state. *)
let fire_pending t pkt (p : pending) =
  t.pmask <- p.ppmask;
  attribute t p.pce;
  fire t pkt p.pce

let run_batch t pkts = Array.map (step t) pkts

let snapshot t = Flowstate.snapshot t.state
let evictions t = Flowstate.evictions t.state

let pp_stats_of ~evictions ppf (s : stats) =
  Fmt.pf ppf
    "packets %d | hits: fsm %d, index %d, tree %d, scan %d (%d leaf tests, %d scan tests) | \
     miss: no-config %d, no-match %d | evictions %d"
    s.packets s.fsm_hits s.index_hits s.tree_hits s.scan_hits s.leaf_tests
    s.scan_tests s.miss_no_config s.miss_no_match evictions

let pp_stats ppf t =
  pp_stats_of ~evictions:(Flowstate.evictions t.state) ppf t.stats

(* Deterministic field order shared by the single-engine view, the
   sharded per-shard views and the merged view: CI greps depend on
   it. *)
let merge_stats (parts : stats array) =
  if Array.length parts = 0 then invalid_arg "Engine.merge_stats: empty";
  let acc =
    {
      packets = 0;
      entry_hits = Array.make (Array.length parts.(0).entry_hits) 0;
      fsm_hits = 0;
      index_hits = 0;
      tree_hits = 0;
      scan_hits = 0;
      leaf_tests = 0;
      scan_tests = 0;
      miss_no_config = 0;
      miss_no_match = 0;
    }
  in
  Array.iter
    (fun s ->
      acc.packets <- acc.packets + s.packets;
      Array.iteri
        (fun i n -> acc.entry_hits.(i) <- acc.entry_hits.(i) + n)
        s.entry_hits;
      acc.fsm_hits <- acc.fsm_hits + s.fsm_hits;
      acc.index_hits <- acc.index_hits + s.index_hits;
      acc.tree_hits <- acc.tree_hits + s.tree_hits;
      acc.scan_hits <- acc.scan_hits + s.scan_hits;
      acc.leaf_tests <- acc.leaf_tests + s.leaf_tests;
      acc.scan_tests <- acc.scan_tests + s.scan_tests;
      acc.miss_no_config <- acc.miss_no_config + s.miss_no_config;
      acc.miss_no_match <- acc.miss_no_match + s.miss_no_match)
    parts;
  acc

let bprint_stats b (s : stats) ~evictions =
  Printf.bprintf b "\"packets\": %d, " s.packets;
  Printf.bprintf b "\"fsm_hits\": %d, " s.fsm_hits;
  Printf.bprintf b "\"index_hits\": %d, " s.index_hits;
  Printf.bprintf b "\"tree_hits\": %d, " s.tree_hits;
  Printf.bprintf b "\"scan_hits\": %d, " s.scan_hits;
  Printf.bprintf b "\"leaf_tests\": %d, " s.leaf_tests;
  Printf.bprintf b "\"scan_tests\": %d, " s.scan_tests;
  Printf.bprintf b "\"miss_no_config\": %d, " s.miss_no_config;
  Printf.bprintf b "\"miss_no_match\": %d, " s.miss_no_match;
  Printf.bprintf b "\"evictions\": %d, " evictions;
  Printf.bprintf b "\"entry_hits\": [%s]"
    (String.concat ", " (Array.to_list (Array.map string_of_int s.entry_hits)))

let stats_json_of ~nf ~(plan : Compile.t) ~evictions (s : stats) =
  let b = Buffer.create 256 in
  Buffer.add_string b "{";
  Printf.bprintf b "\"nf\": %s, " (Nfactor.Json.quote nf);
  bprint_stats b s ~evictions;
  Printf.bprintf b ", \"live_entries\": %d, " plan.Compile.live;
  Printf.bprintf b "\"indexed_entries\": %d, " plan.Compile.indexed;
  Printf.bprintf b "\"scanned_entries\": %d, " plan.Compile.scanned;
  Printf.bprintf b "\"dropped_static\": %d" plan.Compile.dropped_static;
  Buffer.add_string b "}";
  Buffer.contents b

let stats_json t =
  stats_json_of ~nf:t.plan.Compile.model.Nfactor.Model.nf_name ~plan:t.plan
    ~evictions:(Flowstate.evictions t.state) t.stats
