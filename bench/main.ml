(** Benchmark harness: regenerates every table and figure of the
    paper's evaluation (Section 5), then times the pipeline stages with
    Bechamel.

    Sections:
    - {b Table 1} — StateAlyzer variable categorization of the Figure-1
      load balancer.
    - {b Figure 6} — the NFactor output for [balance] (both configs).
    - {b Table 2} — LoC / slicing time / execution paths / symbolic-
      execution time, original vs slice, for the paper's two NFs and
      the extended corpus.
    - {b Accuracy} — 1000 random packets through program and model.
    - {b Path equivalence} — symbolic path sets of slice vs model.
    - {b Bechamel micro-benchmarks} — per-stage timings plus ablations
      (loop bound, slicing on/off).

    Absolute numbers differ from the paper (different machine, a
    reimplemented toolchain instead of LLVM/KLEE); the shapes are the
    reproduction target: slices are a few percent of the original,
    path counts collapse, symbolic execution on the slice is orders of
    magnitude faster than on the original. *)

open Bechamel
open Toolkit

let section title =
  Fmt.pr "@.%s@.%s@.@." title (String.make (String.length title) '=')

let corpus_entry name = Option.get (Nfs.Corpus.find name)

(* One pass manager for the whole harness: sections that need the same
   NF's extraction (accuracy, applications, micro-bench setup, ...)
   share it through the in-memory artifact table instead of re-running
   Algorithm 1, and every exploration feeds one solver memo. *)
let mgr = Pipeline.Manager.create ()

let extract name =
  let e = corpus_entry name in
  Pipeline.Manager.extract mgr ~name (e.Nfs.Corpus.program ())

(* ------------------------------------------------------------------ *)
(* Table 1                                                            *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: NFactor variable categorization (load balancer)";
  let p = Nfl.Transform.canonicalize (Nfs.Lb.program ()) in
  let t = Statealyzer.Varclass.analyze p in
  Fmt.pr "%-12s | %-10s | per-feature@." "variable" "category";
  Fmt.pr "-------------+------------+----------------------------------------@.";
  List.iter
    (fun (v, c) ->
      match c with
      | Statealyzer.Varclass.Local -> ()
      | _ ->
          let f = List.assoc v t.Statealyzer.Varclass.features in
          Fmt.pr "%-12s | %-10s | persistent=%b top-level=%b updateable=%b output-impacting=%b@." v
            (Statealyzer.Varclass.category_to_string c)
            f.Statealyzer.Varclass.persistent f.Statealyzer.Varclass.top_level
            f.Statealyzer.Varclass.updateable f.Statealyzer.Varclass.output_impacting)
    t.Statealyzer.Varclass.categories

(* ------------------------------------------------------------------ *)
(* Figure 6                                                           *)
(* ------------------------------------------------------------------ *)

let figure6 () =
  section "Figure 6: NFactor output for balance";
  let ex = extract "balance" in
  Fmt.pr "%a" Nfactor.Model.pp ex.Nfactor.Extract.model

(* ------------------------------------------------------------------ *)
(* Table 2                                                            *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: NFactor on the corpus (snort & balance are the paper's subjects)";
  print_endline Nfactor.Report.header;
  List.iter
    (fun (e : Nfs.Corpus.entry) ->
      let _, row =
        Nfactor.Report.measure ~se_budget:1000 ~ex:(extract e.Nfs.Corpus.name)
          ~name:e.Nfs.Corpus.name ~source:(e.Nfs.Corpus.source ()) (e.Nfs.Corpus.program ())
      in
      print_endline (Nfactor.Report.row_to_string row))
    Nfs.Corpus.all;
  Fmt.pr "@.(LoC = non-comment source lines; slice/path = statement counts;@.";
  Fmt.pr " EP = execution paths; '>N' = budget exhausted, as the paper's '>1000'.)@."

(* ------------------------------------------------------------------ *)
(* Accuracy                                                           *)
(* ------------------------------------------------------------------ *)

let accuracy () =
  section "Accuracy: 1000 random packets, program vs model (paper Section 5)";
  Fmt.pr "%-12s %-8s %-10s %s@." "NF" "trials" "mismatches" "verdict";
  List.iter
    (fun name ->
      let ex = extract name in
      let v = Nfactor.Equiv.random_testing ~seed:2016 ~trials:1000 ex in
      Fmt.pr "%-12s %-8d %-10d %s@." name v.Nfactor.Equiv.trials
        (List.length v.Nfactor.Equiv.mismatches)
        (if Nfactor.Equiv.ok v then "outputs identical" else "MISMATCH"))
    Nfs.Corpus.names;
  Fmt.pr "@.flow-structured traffic (stateful entries):@.";
  List.iter
    (fun name ->
      let ex = extract name in
      let v = Nfactor.Equiv.flow_testing ~seed:7 ~flows:40 ~data_pkts:3 ex in
      Fmt.pr "%-12s %-8d %-10d %s@." name v.Nfactor.Equiv.trials
        (List.length v.Nfactor.Equiv.mismatches)
        (if Nfactor.Equiv.ok v then "outputs identical" else "MISMATCH"))
    Nfs.Corpus.names

let path_equivalence () =
  section "Path-set equivalence: slice paths vs model entries";
  List.iter
    (fun name ->
      let ex = extract name in
      Fmt.pr "%-12s %d path(s) — %s@." name
        (List.length ex.Nfactor.Extract.paths)
        (if Nfactor.Equiv.paths_match ex then "path sets identical" else "DIFFER"))
    Nfs.Corpus.names

(* ------------------------------------------------------------------ *)
(* Section-4 applications                                             *)
(* ------------------------------------------------------------------ *)

let applications () =
  section "Applications (paper Section 4): composition, testing, FSMs, reachability";
  (* Service-chain composition: the paper's {FW, IDS} x {LB}. *)
  let model name = (extract name).Nfactor.Extract.model in
  Fmt.pr "composition {FW, IDS} x {LB}:@.";
  List.iter
    (fun r -> Fmt.pr "  %a@." Verify.Chain.pp_ranking r)
    (Verify.Chain.compose_chains
       [ ("fw", model "firewall"); ("ids", model "snort") ]
       [ ("lb", model "lb") ]);
  (* Model-driven test generation coverage. *)
  Fmt.pr "@.test generation (entries fired / total, compliance replay):@.";
  List.iter
    (fun name ->
      let ex = extract name in
      let c = Verify.Testgen.cover ex in
      let v = Verify.Testgen.compliance ex c in
      Fmt.pr "  %-12s %d/%d entries, %d packet(s), replay %s@." name
        (List.length c.Verify.Testgen.covered)
        (Nfactor.Model.entry_count ex.Nfactor.Extract.model)
        (List.length c.Verify.Testgen.pkts)
        (if Nfactor.Equiv.ok v then "ok" else "MISMATCH"))
    Nfs.Corpus.names;
  (* Per-flow FSMs. *)
  Fmt.pr "@.per-flow FSMs (abstract states / transitions):@.";
  List.iter
    (fun name ->
      let fsm = Nfactor.Fsm.of_extraction (extract name) in
      Fmt.pr "  %-12s %d state(s), %d transition(s)@." name (Nfactor.Fsm.state_count fsm)
        (Nfactor.Fsm.transition_count fsm))
    Nfs.Corpus.names;
  (* Symbolic end-to-end classes. *)
  Fmt.pr "@.header-space classes (symbolic reachability, initial state):@.";
  List.iter
    (fun name ->
      let ex = extract name in
      let classes =
        Verify.Symreach.classes
          [ (name, ex.Nfactor.Extract.model, Nfactor.Model_interp.initial_store ex) ]
      in
      Fmt.pr "  %-12s %d forwarding class(es)@." name (List.length classes))
    Nfs.Corpus.names

(* ------------------------------------------------------------------ *)
(* Scaling ablation                                                   *)
(* ------------------------------------------------------------------ *)

(* The cause behind the paper's snort row: original-program path
   explosion scales with the ruleset, the forwarding slice does not.
   This sweep regenerates the effect as a curve. *)
let scaling () =
  section "Scaling ablation: snort ruleset size vs path explosion (slice is flat)";
  Fmt.pr "%8s | %10s %12s | %8s %12s@." "rules" "EP orig" "SE orig (ms)" "EP slice" "SE slice (ms)";
  List.iter
    (fun rules ->
      let p = Nfs.Snort_lite.program_with ~rules () in
      let ex = Nfactor.Extract.run ~name:"snort" p in
      let budget = { Symexec.Explore.default_config with Symexec.Explore.max_paths = 1000 } in
      let (_, orig_stats), orig_t =
        Nfactor.Report.time (fun () -> Nfactor.Report.explore_original ~config:budget ex)
      in
      let (_, slice_stats), slice_t =
        Nfactor.Report.time (fun () -> Nfactor.Report.explore_slice ex)
      in
      let ep_orig =
        if orig_stats.Symexec.Explore.overflowed then
          Printf.sprintf ">%d" orig_stats.Symexec.Explore.paths
        else string_of_int orig_stats.Symexec.Explore.paths
      in
      Fmt.pr "%8d | %10s %12.2f | %8d %12.2f@." rules ep_orig (orig_t *. 1e3)
        slice_stats.Symexec.Explore.paths (slice_t *. 1e3))
    [ 0; 1; 2; 4; 8; 16; 64; 300 ]

(* ------------------------------------------------------------------ *)
(* Solver telemetry                                                   *)
(* ------------------------------------------------------------------ *)

(* The incremental/memoizing solver layer, measured on its own terms:
   each NF is extracted (slice exploration, manager-shared verdict
   cache), then the unsliced original is explored *sharing* that cache
   — the original re-decides the slice's branch conditions, so its
   checks hit. "baseline" is the pre-memoization accounting: two fresh
   full-pc solver calls per undecided branch. *)
type telemetry_row = {
  tr_name : string;
  tr_slice_paths : int;
  tr_orig_paths : int;
  tr_decides : int;
  tr_calls : int;
  tr_hits : int;
  tr_misses : int;
  tr_hit_rate : float;
  tr_solver_ms : float;
  tr_depth : int;
  tr_explore_slice_ms : float;  (** extraction's explore-stage wall-clock *)
  tr_explore_orig_ms : float;  (** shared-cache original exploration wall-clock *)
  tr_stage_ms : (string * float) list;
}

let solver_telemetry () =
  section "Solver telemetry: incremental context + memoized path-condition checks";
  Fmt.pr "%-12s | %7s %8s %7s | %6s %6s | %8s | %9s %5s@." "NF" "decides" "baseline" "calls"
    "hits" "misses" "hit-rate" "time(ms)" "depth";
  let rows =
    List.map
      (fun (e : Nfs.Corpus.entry) ->
        let name = e.Nfs.Corpus.name in
        let ex = extract name in
        let budget =
          { Symexec.Explore.default_config with Symexec.Explore.max_paths = 1000 }
        in
        let (_, o), orig_wall =
          Nfactor.Report.time (fun () ->
              Nfactor.Report.explore_original ~config:budget
                ~memo:ex.Nfactor.Extract.solver_memo ex)
        in
        let s = ex.Nfactor.Extract.stats in
        let open Symexec.Explore in
        let decides = s.decides + o.decides in
        let calls = s.solver_calls + o.solver_calls in
        let hits = s.solver_cache_hits + o.solver_cache_hits in
        let misses = s.solver_cache_misses + o.solver_cache_misses in
        let checks = hits + misses in
        let rate = if checks = 0 then 0. else 100. *. float_of_int hits /. float_of_int checks in
        let solver_ms = (s.solver_time_s +. o.solver_time_s) *. 1e3 in
        let depth = max s.max_fork_depth o.max_fork_depth in
        Fmt.pr "%-12s | %7d %8d %7d | %6d %6d | %7.1f%% | %9.2f %5d@." name decides (2 * decides)
          calls hits misses rate solver_ms depth;
        if name = "balance" || name = "snort" then
          Fmt.pr "%14s fork depth histogram (slice): %s@." ""
            (String.concat " "
               (List.map
                  (fun (d, n) -> Printf.sprintf "%d:%d" d n)
                  (Imap.bindings s.fork_depths)));
        let stage_ms =
          List.map (fun (st, t) -> (st, t *. 1e3)) ex.Nfactor.Extract.stage_times
        in
        {
          tr_name = name;
          tr_slice_paths = s.paths;
          tr_orig_paths = o.paths;
          tr_decides = decides;
          tr_calls = calls;
          tr_hits = hits;
          tr_misses = misses;
          tr_hit_rate = rate;
          tr_solver_ms = solver_ms;
          tr_depth = depth;
          tr_explore_slice_ms =
            (try List.assoc "explore" stage_ms with Not_found -> 0.);
          tr_explore_orig_ms = orig_wall *. 1e3;
          tr_stage_ms = stage_ms;
        })
      Nfs.Corpus.all
  in
  Fmt.pr "@.(decides = undecided branches; baseline = pre-memoization cost of 2 fresh@.";
  Fmt.pr " full-pc checks per branch; calls = actual decision-procedure runs after@.";
  Fmt.pr " the ¬sat_t ⇒ sat_f short-circuit and cache; slice + shared-cache original.)@.";
  rows

(* ------------------------------------------------------------------ *)
(* Runtime dataplane throughput                                        *)
(* ------------------------------------------------------------------ *)

(* Interpreter vs compiled engine on identical seeded traffic. Both
   sides run over a pre-materialized packet array/list so generation
   cost stays out of the measurement; each side takes the best of
   three runs. The replay asserts output equality in-bench — a timing
   number for a wrong dataplane is worthless. *)
type rt_row = {
  rt_name : string;
  rt_n : int;
  rt_interp_ms : float;
  rt_engine_ms : float;
  rt_speedup : float;
  rt_equal : bool;
  rt_fsm_hits : int;
  rt_index_hits : int;
  rt_tree_hits : int;
  rt_scan_hits : int;
  rt_evictions : int;
}

let best_of_3 f =
  let one () =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  min (one ()) (min (one ()) (one ()))

let runtime_throughput ~smoke () =
  section "Runtime dataplane: interpreter vs compiled engine, same seeded traffic";
  Fmt.pr "%-12s %8s | %12s %12s %8s | %9s %9s %9s %9s | %s@." "NF" "pkts" "interp(ms)"
    "engine(ms)" "speedup" "fsm-hit" "index-hit" "tree-hit" "scan-hit" "equal";
  (* Per-NF packet budgets: the paper's subjects get the full 100k;
     NFs whose *interpreter* is quadratic in flow-table size (every
     random packet inserts a flow, every lookup rescans the sorted
     assoc list) get smaller counts so the reference side finishes —
     which is itself the point of the compiled engine. *)
  let budget = [ ("snort", 100_000); ("balance", 100_000); ("portknock", 100_000); ("lb", 20_000); ("nat", 10_000) ] in
  let rows =
    List.map
      (fun (name, n_full) ->
        let n = if smoke then min 20_000 (n_full / 5) else n_full in
        let ex = extract name in
        let model = ex.Nfactor.Extract.model in
        let store = Nfactor.Model_interp.initial_store ex in
        let pkts = Packet.Traffic.random_stream ~seed:2016 ~n () in
        let arr = Array.of_list pkts in
        let plan = Nfactor_runtime.Compile.compile model ~config:store in
        let interp_s =
          best_of_3 (fun () -> ignore (Nfactor.Model_interp.run model ~store ~pkts))
        in
        let engine_s =
          best_of_3 (fun () ->
              let eng = Nfactor_runtime.Engine.create plan ~store in
              ignore (Nfactor_runtime.Engine.run_batch eng arr))
        in
        (* correctness of the measured artifact, on the same traffic *)
        let ref_store, ref_out = Nfactor.Model_interp.run model ~store ~pkts in
        let eng = Nfactor_runtime.Engine.create plan ~store in
        let outs = Nfactor_runtime.Engine.run_batch eng arr in
        let equal =
          List.for_all2
            (fun r (o : Nfactor_runtime.Engine.outcome) ->
              List.length r = List.length o.Nfactor_runtime.Engine.outputs
              && List.for_all2 Packet.Pkt.equal r o.Nfactor_runtime.Engine.outputs)
            ref_out (Array.to_list outs)
          && Nfactor.Model_interp.Smap.equal Symexec.Value.equal ref_store
               (Nfactor_runtime.Engine.snapshot eng)
        in
        let s = eng.Nfactor_runtime.Engine.stats in
        let row =
          {
            rt_name = name;
            rt_n = n;
            rt_interp_ms = interp_s *. 1e3;
            rt_engine_ms = engine_s *. 1e3;
            rt_speedup = (if engine_s > 0. then interp_s /. engine_s else 0.);
            rt_equal = equal;
            rt_fsm_hits = s.Nfactor_runtime.Engine.fsm_hits;
            rt_index_hits = s.Nfactor_runtime.Engine.index_hits;
            rt_tree_hits = s.Nfactor_runtime.Engine.tree_hits;
            rt_scan_hits = s.Nfactor_runtime.Engine.scan_hits;
            rt_evictions = Nfactor_runtime.Flowstate.evictions eng.Nfactor_runtime.Engine.state;
          }
        in
        Fmt.pr "%-12s %8d | %12.2f %12.2f %7.1fx | %9d %9d %9d %9d | %s@." name n
          row.rt_interp_ms row.rt_engine_ms row.rt_speedup row.rt_fsm_hits
          row.rt_index_hits row.rt_tree_hits row.rt_scan_hits
          (if equal then "yes" else "NO — MISMATCH");
        row)
      budget
  in
  Fmt.pr "@.(speedup = Model_interp.run / Engine.run_batch on the same seeded traffic;@.";
  Fmt.pr " equality covers per-packet outputs and the final state store.)@.";
  rows

(* ------------------------------------------------------------------ *)
(* Sharded dataplane scaling                                           *)
(* ------------------------------------------------------------------ *)

(* Flow-key domain sharding under the churn workload (a constant pool
   of concurrent conversations with unbounded turnover). Exactness is
   asserted unconditionally — a 2-shard run must reproduce the single
   engine packet-for-packet (outputs, merged store, merged counters) —
   while the timed scaling points only run when the machine actually
   has the cores: speedups measured by timesharing domains on fewer
   cores say nothing about the dataplane, so they are recorded as
   skipped instead. The gate is machine-normalized by construction:
   the baseline engine and the sharded runs time identical churn
   streams in the same process, so machine speed cancels out of the
   speedup ratio. *)
type scale_point = {
  sp_shards : int;
  sp_ms : float;
  sp_speedup : float;
  sp_deferred_pct : float;
  sp_gate : float;
  sp_gate_ok : bool;
}

type scale_row = {
  sc_name : string;
  sc_exact : bool;
  sc_base_ms : float;
  sc_base_mpps : float;
  sc_points : scale_point list;
  sc_skipped : string option;
}

type scale_result = {
  sr_cores : int;
  sr_concurrent : int;
  sr_n : int;
  sr_rows : scale_row list;
}

let scale_gates = [ (2, 1.6); (4, 2.5) ]

(* The scaling subjects: the paper's IDS (stateless matching, sharded
   by the default 4-tuple) and the NAT (per-flow tables plus a global
   reverse map — the hard case for the serial phase). *)
let scale_nfs = [ "snort"; "nat" ]

let shard_scaling ~smoke () =
  section "Sharded dataplane: flow-key domain scaling under churn";
  let cores = Domain.recommended_domain_count () in
  let concurrent = if smoke then 20_000 else 1_000_000 in
  let n = if smoke then 100_000 else 2_000_000 in
  Fmt.pr "cores %d; %d concurrent flow(s), %d packet(s) per point@.@." cores concurrent n;
  Fmt.pr "%-12s %7s | %12s %8s | %8s %9s | %s@." "NF" "shards" "time(ms)" "Mpps"
    "speedup" "deferred" "verdicts";
  let rows =
    List.map
      (fun name ->
        let ex = extract name in
        let model = ex.Nfactor.Extract.model in
        let store = Nfactor.Model_interp.initial_store ex in
        let plan = Nfactor_runtime.Compile.compile model ~config:store in
        (* Exactness first, at verification scale (run_batch keeps every
           outcome, so this stays off the million-flow budget). *)
        let exact =
          let ch = Packet.Traffic.churn_gen ~concurrent:5_000 ~seed:11 () in
          let pkts = Array.init 30_000 (fun _ -> Packet.Traffic.churn_next ch) in
          let eng = Nfactor_runtime.Engine.create plan ~store in
          let expected = Nfactor_runtime.Engine.run_batch eng pkts in
          let sh = Nfactor_runtime.Shard.create ~nshards:2 model ~config:store in
          Fun.protect
            ~finally:(fun () -> Nfactor_runtime.Shard.shutdown sh)
            (fun () ->
              let got = Nfactor_runtime.Shard.run_batch sh pkts in
              let ok = ref true in
              Array.iteri
                (fun i (e : Nfactor_runtime.Engine.outcome) ->
                  let g = got.(i) in
                  if
                    e.fired <> g.fired
                    || List.length e.outputs <> List.length g.outputs
                    || not (List.for_all2 Packet.Pkt.equal e.outputs g.outputs)
                  then ok := false)
                expected;
              !ok
              && Nfactor.Model_interp.Smap.equal Symexec.Value.equal
                   (Nfactor_runtime.Engine.snapshot eng)
                   (Nfactor_runtime.Shard.snapshot sh)
              && Nfactor_runtime.Engine.stats_json_of ~nf:name ~plan ~evictions:0
                   (Nfactor_runtime.Shard.merged_stats sh)
                 = Nfactor_runtime.Engine.stats_json eng)
        in
        (* Baseline: the single-threaded engine on the same stream. *)
        let base_s =
          let ch = Packet.Traffic.churn_gen ~concurrent ~seed:2016 () in
          let eng = Nfactor_runtime.Engine.create plan ~store in
          Packet.Traffic.time_batches
            ~next:(fun () -> Packet.Traffic.churn_next ch)
            ~n (Nfactor_runtime.Engine.run_batch eng)
        in
        let base_mpps = if base_s > 0. then float_of_int n /. base_s /. 1e6 else 0. in
        Fmt.pr "%-12s %7d | %12.2f %8.2f | %8s %9s | exact: %s@." name 1 (base_s *. 1e3)
          base_mpps "1.00x" "-"
          (if exact then "yes" else "NO — MISMATCH");
        let points =
          List.filter_map
            (fun (k, gate) ->
              if cores < k then None
              else
                let ch = Packet.Traffic.churn_gen ~concurrent ~seed:2016 () in
                let sh = Nfactor_runtime.Shard.create ~nshards:k model ~config:store in
                Fun.protect
                  ~finally:(fun () -> Nfactor_runtime.Shard.shutdown sh)
                  (fun () ->
                    let s =
                      Packet.Traffic.time_batches
                        ~next:(fun () -> Packet.Traffic.churn_next ch)
                        ~n (Nfactor_runtime.Shard.run_batch sh)
                    in
                    let speedup = if s > 0. then base_s /. s else 0. in
                    let deferred_pct =
                      100.
                      *. float_of_int (Nfactor_runtime.Shard.deferred sh)
                      /. float_of_int n
                    in
                    let p =
                      {
                        sp_shards = k;
                        sp_ms = s *. 1e3;
                        sp_speedup = speedup;
                        sp_deferred_pct = deferred_pct;
                        sp_gate = gate;
                        sp_gate_ok = speedup >= gate;
                      }
                    in
                    Fmt.pr "%-12s %7d | %12.2f %8.2f | %7.2fx %8.1f%% | gate >= %.1fx: %s@."
                      name k p.sp_ms
                      (if s > 0. then float_of_int n /. s /. 1e6 else 0.)
                      speedup deferred_pct gate
                      (if p.sp_gate_ok then "ok" else "FAIL");
                    Some p))
            scale_gates
        in
        let skipped =
          match List.filter (fun (k, _) -> cores < k) scale_gates with
          | [] -> None
          | missing ->
              let s =
                Printf.sprintf "skipped insufficient cores (have %d, need %s)" cores
                  (String.concat "/" (List.map (fun (k, _) -> string_of_int k) missing))
              in
              Fmt.pr "%-12s %7s | scaling gate %s@." name "-" s;
              Some s
        in
        {
          sc_name = name;
          sc_exact = exact;
          sc_base_ms = base_s *. 1e3;
          sc_base_mpps = base_mpps;
          sc_points = points;
          sc_skipped = skipped;
        })
      scale_nfs
  in
  Fmt.pr "@.(baseline = single engine on the same churn stream; exactness compares a@.";
  Fmt.pr " 2-shard run against it packet-for-packet: outputs, merged store, counters.)@.";
  { sr_cores = cores; sr_concurrent = concurrent; sr_n = n; sr_rows = rows }

let add_scale_sections buf sr =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "  \"scale\": {\n";
  add "    \"cores\": %d, \"concurrent_flows\": %d, \"packets\": %d,\n" sr.sr_cores
    sr.sr_concurrent sr.sr_n;
  add "    \"gates\": { %s },\n"
    (String.concat ", "
       (List.map (fun (k, g) -> Printf.sprintf "\"%d\": %.1f" k g) scale_gates));
  add "    \"nfs\": [\n";
  List.iteri
    (fun i r ->
      add "      { \"name\": %S, \"exact\": %b, \"base_ms\": %.3f, \"base_mpps\": %.3f,\n"
        r.sc_name r.sc_exact r.sc_base_ms r.sc_base_mpps;
      (match r.sc_skipped with
      | Some s -> add "        \"gate_status\": %S,\n" s
      | None -> add "        \"gate_status\": \"measured\",\n");
      add "        \"points\": [%s] }%s\n"
        (String.concat ", "
           (List.map
              (fun p ->
                Printf.sprintf
                  "{ \"shards\": %d, \"ms\": %.3f, \"speedup\": %.2f, \
                   \"deferred_pct\": %.1f, \"gate\": %.1f, \"gate_ok\": %b }"
                  p.sp_shards p.sp_ms p.sp_speedup p.sp_deferred_pct p.sp_gate
                  p.sp_gate_ok)
              r.sc_points))
        (if i = List.length sr.sr_rows - 1 then "" else ","))
    sr.sr_rows;
  add "    ],\n";
  let exact_ok = List.for_all (fun r -> r.sc_exact) sr.sr_rows in
  let gates_ok =
    List.for_all (fun r -> List.for_all (fun p -> p.sp_gate_ok) r.sc_points) sr.sr_rows
  in
  add "    \"shard_exact_ok\": %b,\n" exact_ok;
  add "    \"scale_ok\": %b\n" (exact_ok && gates_ok);
  add "  }"

(* ------------------------------------------------------------------ *)
(* Compiled service chains                                             *)
(* ------------------------------------------------------------------ *)

(* The linked chain dataplane (Chainplan/Chainengine) vs the reference
   interpreter chain (Verify.Network.run) on identical seeded traffic.
   The compiled side takes the best of three runs; the interpreter side
   runs ONCE and that same run doubles as the exactness reference —
   per-hop assoc-list stores make it quadratic in flow count (minutes
   at 100k packets), which is precisely the gap this subsystem closes.
   The ≥5x gate is machine-normalized by construction: both sides time
   the same pre-materialized stream on this machine. *)
type chain_row = {
  ch_chain : string;
  ch_n : int;
  ch_interp_ms : float;
  ch_fused_ms : float;
  ch_speedup : float;
  ch_exact : bool;
  ch_fused_entries : int;
  ch_fused_walks : int;
  ch_handoffs : int;
}

type chain_inv_row = {
  ci_chain : string;
  ci_invariant : string;
  ci_status : string;
  ci_reproduces : bool option;
      (* counterexample replayed through the compiled chain *)
}

let chain_gate = 5.0

let chain_nodes names =
  List.map
    (fun name ->
      let ex = extract name in
      (name, ex.Nfactor.Extract.model, Nfactor.Model_interp.initial_store ex))
    names

let chain_bench ~smoke () =
  section "Compiled service chains: linked dataplane vs interpreter chain";
  Fmt.pr "%-22s %8s | %12s %12s %9s | %7s %11s %9s | %s@." "chain" "pkts" "interp(ms)"
    "fused(ms)" "speedup" "fusedE" "fused-walks" "handoffs" "exact";
  let budget =
    [
      (* acceptance chain: full 100k unless smoke *)
      ([ "firewall"; "nat"; "snort" ], 100_000);
      (* fusion showcase: nat's static ip_src rewrite pre-decides the
         firewall dispatch. nat in front sees the whole stream, so the
         interpreter side gets the quadratic-budget treatment. *)
      ([ "nat"; "firewall" ], 20_000);
      ([ "mirror"; "lb" ], 20_000);
    ]
  in
  let rows =
    List.map
      (fun (names, n_full) ->
        let n = if smoke then min 20_000 (n_full / 5) else n_full in
        let nodes = chain_nodes names in
        let cp = Nfactor_runtime.Chainplan.link nodes in
        let pkts = Packet.Traffic.random_stream ~seed:2016 ~n () in
        let arr = Array.of_list pkts in
        let fused_s =
          best_of_3 (fun () ->
              let eng = Nfactor_runtime.Chainengine.create cp in
              ignore (Nfactor_runtime.Chainengine.run_batch eng arr))
        in
        (* One interpreter pass: the timing sample and the exactness
           reference are the same run. *)
        let ref_chain =
          Verify.Network.chain
            (List.map (fun (id, m, s) -> Verify.Network.node id m s) nodes)
        in
        let t0 = Unix.gettimeofday () in
        let ref_results = Verify.Network.run ref_chain pkts in
        let interp_s = Unix.gettimeofday () -. t0 in
        let eng = Nfactor_runtime.Chainengine.create cp in
        let outs = Nfactor_runtime.Chainengine.run_batch eng arr in
        let exact =
          List.for_all2
            (fun (ref_pkts, _) got ->
              List.length ref_pkts = List.length got
              && List.for_all2 Packet.Pkt.equal ref_pkts got)
            ref_results (Array.to_list outs)
          && List.for_all2
               (fun (node : Verify.Network.node) (_, got) ->
                 Nfactor.Model_interp.Smap.equal Symexec.Value.equal
                   node.Verify.Network.store got)
               ref_chain.Verify.Network.nodes
               (Nfactor_runtime.Chainengine.snapshot_hops eng)
        in
        let row =
          {
            ch_chain = String.concat "," names;
            ch_n = n;
            ch_interp_ms = interp_s *. 1e3;
            ch_fused_ms = fused_s *. 1e3;
            ch_speedup = (if fused_s > 0. then interp_s /. fused_s else 0.);
            ch_exact = exact;
            ch_fused_entries = cp.Nfactor_runtime.Chainplan.fused_entries;
            ch_fused_walks = eng.Nfactor_runtime.Chainengine.fused_walks;
            ch_handoffs = eng.Nfactor_runtime.Chainengine.handoffs;
          }
        in
        Fmt.pr "%-22s %8d | %12.1f %12.1f %8.1fx | %7d %11d %9d | %s@." row.ch_chain n
          row.ch_interp_ms row.ch_fused_ms row.ch_speedup row.ch_fused_entries
          row.ch_fused_walks row.ch_handoffs
          (if exact then "yes" else "NO — MISMATCH");
        row)
      budget
  in
  (* Invariant smoke: one proven, one violated whose counterexample
     must reproduce through the compiled chain. *)
  let invariants =
    [
      ([ "snort"; "firewall" ], "never-reaches:ip_ttl<=0", "proven");
      ([ "snort"; "firewall" ], "never-reaches:dport=80", "violated");
    ]
  in
  let inv_rows =
    List.map
      (fun (names, spec, _expected) ->
        let nodes = chain_nodes names in
        let prop =
          match String.index_opt spec ':' with
          | Some i ->
              Result.get_ok
                (Verify.Invariant.parse_prop
                   (String.sub spec (i + 1) (String.length spec - i - 1)))
          | None -> assert false
        in
        let o = Verify.Invariant.never_reaches nodes prop in
        let reproduces =
          match o.Verify.Invariant.counterexample with
          | None -> None
          | Some cex ->
              let eng =
                Nfactor_runtime.Chainengine.create (Nfactor_runtime.Chainplan.link nodes)
              in
              Some
                (List.exists (Verify.Invariant.holds_on prop)
                   (Nfactor_runtime.Chainengine.step eng cex))
        in
        let row =
          {
            ci_chain = String.concat "," names;
            ci_invariant = spec;
            ci_status = Verify.Invariant.status_string o.Verify.Invariant.status;
            ci_reproduces = reproduces;
          }
        in
        Fmt.pr "@.invariant %-28s on %-16s: %s%s@." spec row.ci_chain row.ci_status
          (match reproduces with
          | Some true -> " (counterexample reproduces through the compiled chain)"
          | Some false -> " (counterexample does NOT reproduce — BUG)"
          | None -> "");
        row)
      invariants
  in
  Fmt.pr "@.(speedup = Network.run / Chainengine.run_batch on the same stream; gate: the@.";
  Fmt.pr " 3-NF chain must be exact and >=%.0fx; exactness covers outputs + per-hop stores.)@."
    chain_gate;
  (rows, inv_rows)

let add_chain_sections buf (rows, inv_rows) =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "  \"chain\": {\n";
  add "    \"gate\": %.1f,\n" chain_gate;
  add "    \"chains\": [\n";
  List.iteri
    (fun i r ->
      add
        "      { \"chain\": %S, \"packets\": %d, \"interp_ms\": %.3f, \"fused_ms\": \
         %.3f, \"speedup\": %.2f, \"exact\": %b, \"fused_entries\": %d, \
         \"fused_walks\": %d, \"handoffs\": %d }%s\n"
        r.ch_chain r.ch_n r.ch_interp_ms r.ch_fused_ms r.ch_speedup r.ch_exact
        r.ch_fused_entries r.ch_fused_walks r.ch_handoffs
        (if i = List.length rows - 1 then "" else ","))
    rows;
  add "    ],\n";
  add "    \"invariants\": [\n";
  List.iteri
    (fun i r ->
      add "      { \"chain\": %S, \"invariant\": %S, \"status\": %S, \"reproduces\": %s }%s\n"
        r.ci_chain r.ci_invariant r.ci_status
        (match r.ci_reproduces with
        | Some b -> string_of_bool b
        | None -> "null")
        (if i = List.length inv_rows - 1 then "" else ","))
    inv_rows;
  add "    ],\n";
  let acceptance =
    List.exists
      (fun r -> r.ch_chain = "firewall,nat,snort" && r.ch_exact && r.ch_speedup >= chain_gate)
      rows
  in
  let fusion_live = List.exists (fun r -> r.ch_fused_walks > 0) rows in
  let invariants_ok =
    List.for_all
      (fun r ->
        match r.ci_status with
        | "proven" -> r.ci_reproduces = None
        | "violated" -> r.ci_reproduces = Some true
        | _ -> false)
      inv_rows
  in
  add "    \"exact_ok\": %b,\n" (List.for_all (fun r -> r.ch_exact) rows);
  add "    \"fusion_live\": %b,\n" fusion_live;
  add "    \"invariants_ok\": %b,\n" invariants_ok;
  add "    \"chain_ok\": %b\n"
    (acceptance && fusion_live && invariants_ok
    && List.for_all (fun r -> r.ch_exact) rows);
  add "  }"

(* ------------------------------------------------------------------ *)
(* Pass pipeline: cold synthesis vs warm cache replay                  *)
(* ------------------------------------------------------------------ *)

(* The content-addressed pipeline measured end-to-end: a cold pass
   synthesizes the whole corpus into an empty artifact store, then a
   warm pass replays it through a *fresh* manager (the stand-in for a
   new process) over the populated store. Sources are materialized
   outside the timed regions; warm takes the best of three runs, and
   correctness is asserted in-bench: every warm pass must be a disk
   hit and every warm model byte-identical to its cold counterpart. *)
type pipeline_row = {
  pc_nfs : int;
  pc_passes : int;
  pc_cold_ms : float;
  pc_warm_ms : float;
  pc_speedup : float;
  pc_warm_misses : int;
  pc_warm_hit_rate : float;
  pc_models_identical : bool;
  pc_stage_cold_ms : (string * float) list;
  pc_stage_warm_ms : (string * float) list;
}

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun entry -> rm_rf (Filename.concat p entry)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

let pipeline_cache () =
  section "Pass pipeline: cold synthesis vs warm cache replay (--cache-dir)";
  (* Flush floating garbage so earlier sections' major-GC debt is not
     collected inside the timed regions. *)
  Gc.full_major ();
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nfactor-bench-cache.%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let sources =
    List.map (fun (e : Nfs.Corpus.entry) -> (e.Nfs.Corpus.name, e.Nfs.Corpus.source ())) Nfs.Corpus.all
  in
  let run_all m =
    List.map (fun (name, src) -> (name, Pipeline.Manager.extract_source m ~name src)) sources
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let synth_passes = List.filter (fun p -> p <> "compile") Pipeline.Manager.passes in
  let stage_ms traces =
    List.map
      (fun pass ->
        ( pass,
          1e3
          *. List.fold_left
               (fun acc (tr : Pipeline.Trace.t) ->
                 if tr.Pipeline.Trace.pass = pass then acc +. tr.Pipeline.Trace.wall_s else acc)
               0. traces ))
      synth_passes
  in
  let count_misses traces =
    List.length
      (List.filter (fun (tr : Pipeline.Trace.t) -> tr.Pipeline.Trace.status = Pipeline.Trace.Miss) traces)
  in
  (* cold: populate the empty store *)
  let cold_m = Pipeline.Manager.create ~cache_dir:dir () in
  let cold_exs, cold_s = timed (fun () -> run_all cold_m) in
  let cold_traces = Pipeline.Manager.traces cold_m in
  (* warm: fresh manager over the populated store, best of 3 *)
  let warm_once () =
    let m = Pipeline.Manager.create ~cache_dir:dir () in
    let exs, w = timed (fun () -> run_all m) in
    (Pipeline.Manager.traces m, exs, w)
  in
  let w1 = warm_once () and w2 = warm_once () and w3 = warm_once () in
  let warm_traces, warm_exs, _ = w1 in
  let warm_s = List.fold_left (fun acc (_, _, w) -> min acc w) infinity [ w1; w2; w3 ] in
  rm_rf dir;
  let model_str (_, ex) = Nfactor.Model_io.to_string ex.Nfactor.Extract.model in
  let models_identical =
    List.for_all2 (fun c w -> fst c = fst w && model_str c = model_str w) cold_exs warm_exs
  in
  let row =
    {
      pc_nfs = List.length sources;
      pc_passes = List.length cold_traces;
      pc_cold_ms = cold_s *. 1e3;
      pc_warm_ms = warm_s *. 1e3;
      pc_speedup = (if warm_s > 0. then cold_s /. warm_s else 0.);
      pc_warm_misses = count_misses warm_traces;
      pc_warm_hit_rate = Pipeline.Trace.hit_rate warm_traces;
      pc_models_identical = models_identical;
      pc_stage_cold_ms = stage_ms cold_traces;
      pc_stage_warm_ms = stage_ms warm_traces;
    }
  in
  Fmt.pr "%-14s | %10s %10s@." "stage" "cold (ms)" "warm (ms)";
  List.iter2
    (fun (pass, c) (_, w) -> Fmt.pr "%-14s | %10.3f %10.3f@." pass c w)
    row.pc_stage_cold_ms row.pc_stage_warm_ms;
  Fmt.pr "%-14s | %10.3f %10.3f@." "end-to-end" row.pc_cold_ms row.pc_warm_ms;
  Fmt.pr "@.%d NFs, %d passes; warm replay %.1fx faster; warm hit rate %.0f%% (%d misses); \
          models byte-identical: %b@."
    row.pc_nfs row.pc_passes row.pc_speedup row.pc_warm_hit_rate row.pc_warm_misses
    row.pc_models_identical;
  row

(* ------------------------------------------------------------------ *)
(* Machine-readable telemetry (BENCH_pr5.json)                         *)
(* ------------------------------------------------------------------ *)

(* PR-2 telemetry on the same harness and budgets (BENCH_pr2.json as
   recorded when PR 2 landed): the reference the interpreter-side
   numbers are held against — this PR adds a compiled dataplane, it
   must not regress extraction or solving. *)
let pr2_baseline =
  [
    (* name, (decides, calls, hits, rate, recorded solver ms, recorded SE-orig ms) *)
    ("snort", (33496, 3420, 54415, 94.1, 13.403, 227.717));
    ("balance", (53, 80, 18, 18.4, 0.079, 0.227));
  ]

(* PR-3 runtime telemetry as recorded when PR 3 landed (BENCH_pr3.json):
   the dataplane reference this PR's runtime section is read against —
   the pipeline refactor must not regress the compiled engine. *)
let pr3_baseline =
  [
    (* name, (packets, engine ms recorded, speedup recorded) *)
    ("snort", (100_000, 64.337, 7.17));
    ("balance", (100_000, 47.736, 224.39));
    ("portknock", (100_000, 65.902, 13.39));
    ("lb", (20_000, 26.077, 221.61));
    ("nat", (10_000, 21.442, 537.12));
  ]

(* PR-5 runtime telemetry as recorded when PR 5 landed (BENCH_pr5.json):
   the engine this PR's dispatch rewrite replaces. The dispatch gate
   compares *speedup ratios* (engine-vs-interpreter from the same run,
   divided by the recorded speedup) so machine speed cancels and the
   gate is meaningful on other hardware. *)
let pr5_baseline =
  [
    (* name, (packets, engine ms recorded, speedup recorded) *)
    ("snort", (100_000, 72.501, 6.64));
    ("balance", (100_000, 54.230, 148.48));
    ("portknock", (100_000, 82.237, 11.70));
    ("lb", (20_000, 30.733, 127.35));
    ("nat", (10_000, 17.437, 547.19));
  ]

(* PR-6 runtime telemetry as recorded when PR 6 landed (BENCH_pr6.json):
   carried forward for the record — the sharded dataplane reuses the
   single-threaded engine per shard, so its single-engine numbers are
   read against this recording (the gate itself stays on the PR-5
   ratios, whose noise rationale still applies). *)
let pr6_baseline =
  [
    (* name, (packets, engine ms recorded, speedup recorded) *)
    ("snort", (100_000, 30.250, 19.85));
    ("balance", (100_000, 51.973, 161.61));
    ("portknock", (100_000, 23.596, 46.67));
    ("lb", (20_000, 14.955, 284.60));
    ("nat", (10_000, 7.922, 990.76));
  ]

(* NFs whose per-packet work goes through flow state — where the old
   ordered scan actually cost something and the FSM/tree dispatch is
   the fix. [snort]'s matching is stateless, so it is reported but not
   gated. *)
let stateful_nfs = [ "portknock"; "balance"; "lb"; "nat" ]

(* Runtime telemetry sections shared by the full-bench JSON and the
   [--rt --json] runtime-only JSON (the CI dispatch gate runs the
   latter: gate verdicts are only meaningful at full packet budgets,
   which the smoke bench does not use). No trailing comma after the
   last section — callers continue or close the object. *)
let add_rt_sections buf rt_rows =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "  \"baseline_pr5_runtime\": {\n";
  List.iteri
    (fun i (name, (pkts, engine_rec, speedup_rec)) ->
      add "    %S: { \"packets\": %d, \"engine_ms_recorded\": %.3f, \"speedup_recorded\": %.2f }%s\n"
        name pkts engine_rec speedup_rec
        (if i = List.length pr5_baseline - 1 then "" else ","))
    pr5_baseline;
  add "  },\n";
  add "  \"baseline_pr6_runtime\": {\n";
  List.iteri
    (fun i (name, (pkts, engine_rec, speedup_rec)) ->
      add "    %S: { \"packets\": %d, \"engine_ms_recorded\": %.3f, \"speedup_recorded\": %.2f }%s\n"
        name pkts engine_rec speedup_rec
        (if i = List.length pr6_baseline - 1 then "" else ","))
    pr6_baseline;
  add "  },\n";
  add "  \"runtime\": [\n";
  List.iteri
    (fun i r ->
      add
        "    { \"name\": %S, \"packets\": %d, \"interp_ms\": %.3f, \"engine_ms\": %.3f,\n"
        r.rt_name r.rt_n r.rt_interp_ms r.rt_engine_ms;
      add
        "      \"speedup\": %.2f, \"speedup_ok\": %b, \"outputs_and_state_equal\": %b,\n"
        r.rt_speedup (r.rt_speedup >= 5.) r.rt_equal;
      add
        "      \"fsm_hits\": %d, \"index_hits\": %d, \"tree_hits\": %d, \"scan_hits\": %d, \
         \"scan_ok\": %b, \"evictions\": %d }%s\n"
        r.rt_fsm_hits r.rt_index_hits r.rt_tree_hits r.rt_scan_hits
        (r.rt_scan_hits = 0) r.rt_evictions
        (if i = List.length rt_rows - 1 then "" else ","))
    rt_rows;
  add "  ],\n";
  (* Dispatch gate. Compares machine-normalized speedup ratios: this
     run's engine-vs-interpreter speedup over the PR-5 recording, per
     stateful NF (interpreter and engine time the same traffic in the
     same process, so machine speed cancels out of each ratio). The
     measured geomean when this gate was recorded was ~2.0x; the gate
     holds the geomean at >= 1.25 with a per-NF floor of 0.7 because
     single-run timing noise on both sides of a ratio is +/-25% in
     isolation and worse on a contended CI runner (a loaded run was
     observed at geomean 1.49 with balance at 0.84) — a gate pinned
     near the measured value would flake, while 1.25 still fails any
     real dispatch regression: reverting to the ordered scan drops
     portknock's ratio alone to ~0.3. *)
  add "  \"dispatch_vs_pr5\": {\n";
  let ratios =
    List.filter_map
      (fun r ->
        if not (List.mem r.rt_name stateful_nfs) then None
        else
          match List.assoc_opt r.rt_name pr5_baseline with
          | Some (_, _, speedup_rec) when speedup_rec > 0. ->
              Some (r.rt_name, r.rt_speedup /. speedup_rec)
          | _ -> None)
      rt_rows
  in
  List.iter
    (fun (name, ratio) ->
      add "    %S: { \"speedup_ratio\": %.2f, \"ratio_ok\": %b },\n" name ratio
        (ratio >= 0.7))
    ratios;
  let geomean =
    match ratios with
    | [] -> 0.
    | _ ->
        exp
          (List.fold_left (fun acc (_, r) -> acc +. log r) 0. ratios
          /. float_of_int (List.length ratios))
  in
  let dispatch_ok =
    geomean >= 1.25 && List.for_all (fun (_, r) -> r >= 0.7) ratios
  in
  add "    \"geomean\": %.2f, \"dispatch_ok\": %b\n" geomean dispatch_ok;
  add "  }"

(* ------------------------------------------------------------------ *)
(* Static analyzer: lint + proof-validated table minimization         *)
(* ------------------------------------------------------------------ *)

type an_row = {
  an_name : string;
  an_before : int;
  an_after : int;
  an_reduction_pct : float;
  an_dead : int;
  an_shadowed : int;
  an_merged : int;
  an_widened : int;
  an_errors : int;
  an_warnings : int;
  an_infos : int;
  an_post_clean : bool;
  an_verified : bool;
  an_n : int;
  an_orig_ms : float;
  an_min_ms : float;
  an_speedup : float;  (** original-plan time / minimized-plan time *)
  an_equal : bool;  (** compiled replay: outputs + final store identical *)
}

(* Whole-corpus analyzer pass: lint, minimize, then compile BOTH the
   original and the minimized model and replay the same seeded traffic
   through each compiled engine. [an_equal] is the strongest runtime
   check in the harness — the minimizer's rewrites survive compilation
   to the FSM/decision-tree dispatch plans, packet-for-packet and
   store-exact. The speedup gate is machine-normalized by construction
   (both engines time identical traffic in the same process). *)
let analysis_bench ~smoke () =
  section "Static analyzer: lints + Equiv-gated table minimization, compiled replay";
  Fmt.pr "%-18s %7s %5s %6s | %13s | %5s | %10s %10s %8s | %s@." "NF" "entries" "min"
    "red%" "lint(E/W/I)" "gate" "orig(ms)" "min(ms)" "speedup" "equal";
  let rows =
    List.map
      (fun (e : Nfs.Corpus.entry) ->
        let name = e.Nfs.Corpus.name in
        let ex = extract name in
        let store = Nfactor.Model_interp.initial_store ex in
        let pre, (o : Analysis.Minimize.outcome), post = Pipeline.Manager.analyze mgr ex in
        let errors, warnings, infos = Analysis.Lint.counts pre in
        let before = Nfactor.Model.entry_count o.Analysis.Minimize.original in
        let after = Nfactor.Model.entry_count o.Analysis.Minimize.minimized in
        (* Engine-only replay, so the budget can be generous: at 20k
           packets a run is ~5ms and best-of-3 still jitters past the
           throughput gate; 100k puts every NF in the tens of
           milliseconds where the ratio is stable. *)
        let n = if smoke then 20_000 else 100_000 in
        let arr = Array.of_list (Packet.Traffic.random_stream ~seed:909 ~n ()) in
        let orig_plan =
          Nfactor_runtime.Compile.compile o.Analysis.Minimize.original ~config:store
        in
        let min_plan =
          Nfactor_runtime.Compile.compile o.Analysis.Minimize.minimized ~config:store
        in
        (* Interleaved best-of-5: alternating the two plans inside each
           round means GC phase and cache state drift hits both sides
           equally, instead of whichever plan happens to run second. *)
        let one plan =
          Gc.minor ();
          let t0 = Unix.gettimeofday () in
          let eng = Nfactor_runtime.Engine.create plan ~store in
          ignore (Nfactor_runtime.Engine.run_batch eng arr);
          Unix.gettimeofday () -. t0
        in
        let orig_s = ref infinity and min_s = ref infinity in
        for _ = 1 to 5 do
          orig_s := Float.min !orig_s (one orig_plan);
          min_s := Float.min !min_s (one min_plan)
        done;
        let orig_s = !orig_s and min_s = !min_s in
        let eng_a = Nfactor_runtime.Engine.create orig_plan ~store in
        let eng_b = Nfactor_runtime.Engine.create min_plan ~store in
        let outs_a = Nfactor_runtime.Engine.run_batch eng_a arr in
        let outs_b = Nfactor_runtime.Engine.run_batch eng_b arr in
        let equal =
          Array.length outs_a = Array.length outs_b
          && Array.for_all2
               (fun (a : Nfactor_runtime.Engine.outcome)
                    (b : Nfactor_runtime.Engine.outcome) ->
                 List.length a.Nfactor_runtime.Engine.outputs
                 = List.length b.Nfactor_runtime.Engine.outputs
                 && List.for_all2 Packet.Pkt.equal a.Nfactor_runtime.Engine.outputs
                      b.Nfactor_runtime.Engine.outputs)
               outs_a outs_b
          && Nfactor.Model_interp.Smap.equal Symexec.Value.equal
               (Nfactor_runtime.Engine.snapshot eng_a)
               (Nfactor_runtime.Engine.snapshot eng_b)
        in
        let row =
          {
            an_name = name;
            an_before = before;
            an_after = after;
            an_reduction_pct = 100. *. Analysis.Minimize.reduction o;
            an_dead = o.Analysis.Minimize.deleted_dead;
            an_shadowed = o.Analysis.Minimize.deleted_shadowed;
            an_merged = o.Analysis.Minimize.merged;
            an_widened = o.Analysis.Minimize.widened_literals;
            an_errors = errors;
            an_warnings = warnings;
            an_infos = infos;
            an_post_clean = Analysis.Lint.is_clean post;
            an_verified = o.Analysis.Minimize.verified;
            an_n = n;
            an_orig_ms = orig_s *. 1e3;
            an_min_ms = min_s *. 1e3;
            an_speedup = (if min_s > 0. then orig_s /. min_s else 0.);
            an_equal = equal;
          }
        in
        Fmt.pr "%-18s %7d %5d %5.1f%% | %5d/%d/%d     | %5s | %10.2f %10.2f %7.2fx | %s@."
          name before after row.an_reduction_pct errors warnings infos
          (if row.an_verified then "exact" else "FAIL")
          row.an_orig_ms row.an_min_ms row.an_speedup
          (if equal then "yes" else "NO — MISMATCH");
        row)
      Nfs.Corpus.all
  in
  Fmt.pr "@.(speedup = original-plan / minimized-plan Engine.run_batch on the same seeded@.";
  Fmt.pr " traffic; equality covers per-packet outputs and the final state store; gate =@.";
  Fmt.pr " the minimizer's Equiv differential replay.)@.";
  rows

(* Analyzer telemetry: per-NF reduction and lint counts plus the PR-9
   gates — the deliberately-redundant NF must shrink by at least 20%,
   every minimization must pass its differential gate and its compiled
   replay, and the minimized plan must not regress throughput (0.85
   floor absorbs timer noise on the small tables; the expectation is
   >= 1). *)
let add_analysis_sections buf (rows : an_row list) =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "  \"analysis\": {\n";
  List.iter
    (fun r ->
      add
        "    %S: { \"entries\": %d, \"min_entries\": %d, \"reduction_pct\": %.1f, \
         \"deleted_dead\": %d, \"deleted_shadowed\": %d, \"merged\": %d, \
         \"widened_literals\": %d, \"lint_errors\": %d, \"lint_warnings\": %d, \
         \"lint_infos\": %d, \"post_clean\": %b, \"verified\": %b, \"packets\": %d, \
         \"orig_ms\": %.3f, \"min_ms\": %.3f, \"speedup\": %.2f, \"replay_equal\": %b \
         },\n"
        r.an_name r.an_before r.an_after r.an_reduction_pct r.an_dead r.an_shadowed
        r.an_merged r.an_widened r.an_errors r.an_warnings r.an_infos r.an_post_clean
        r.an_verified r.an_n r.an_orig_ms r.an_min_ms r.an_speedup r.an_equal)
    rows;
  let redundant = List.find_opt (fun r -> r.an_name = "firewall_redundant") rows in
  let red_pct = match redundant with Some r -> r.an_reduction_pct | None -> 0. in
  let all_verified = List.for_all (fun r -> r.an_verified) rows in
  let all_equal = List.for_all (fun r -> r.an_equal) rows in
  let all_post_clean = List.for_all (fun r -> r.an_post_clean) rows in
  let geomean =
    match rows with
    | [] -> 0.
    | _ ->
        exp
          (List.fold_left (fun acc r -> acc +. log r.an_speedup) 0. rows
          /. float_of_int (List.length rows))
  in
  (* "Zero throughput regression", measured: the corpus geomean must
     not dip below parity minus timer noise, and no single NF may lose
     more than 25% — the dispatch counters are identical pre/post
     minimization, so anything past that is a real plan pessimization,
     not jitter. *)
  let throughput_ok =
    geomean >= 0.93 && List.for_all (fun r -> r.an_speedup >= 0.75) rows
  in
  add
    "    \"gates\": { \"redundant_reduction_pct\": %.1f, \"redundant_reduction_ok\": %b, \
     \"all_verified\": %b, \"all_replays_equal\": %b, \"all_post_clean\": %b, \
     \"speedup_geomean\": %.2f, \"throughput_ok\": %b, \"analysis_ok\": %b }\n"
    red_pct (red_pct >= 20.) all_verified all_equal all_post_clean geomean throughput_ok
    (red_pct >= 20. && all_verified && all_equal && all_post_clean && throughput_ok);
  add "  }"

(* ------------------------------------------------------------------ *)
(* Worklist explorer: join-point merging vs naive enumeration (PR 10)  *)
(* ------------------------------------------------------------------ *)

type ex_row = {
  ex_name : string;
  ex_paths : int;  (** merged exploration: completed paths *)
  ex_merges : int;
  ex_prunes : int;
  ex_calls : int;  (** merged exploration: solver calls *)
  ex_decides : int;
  ex_merged_ms : float;  (** merged explore-stage wall clock *)
  ex_naive_paths : int;  (** unmerged enumeration (raised budget for dpi) *)
  ex_naive_calls : int;
  ex_naive_ms : float;
  ex_model_equal : bool;  (** merged model == unmerged model *)
  ex_byte_identical : bool;  (** equality shown byte-for-byte (vs differentially) *)
}

(* PR-9 recordings of the recursive forker on the pre-merge corpus:
   (paths, solver calls) per NF. Counters are machine-independent, so
   the worklist engine is gated on reproducing them exactly — same
   path census, no extra solver traffic — with no normalization
   needed; wall-clock is gated separately on the same-process
   merged/naive ratio. *)
let pr9_explore_recorded =
  [
    ("lb", (5, 8));
    ("balance", (11, 20));
    ("snort", (6, 10));
    ("nat", (5, 8));
    ("firewall", (6, 10));
    ("firewall_redundant", (8, 14));
    ("ratelimiter", (5, 8));
    ("ips", (10, 18));
    ("synguard", (10, 18));
    ("acl", (5, 8));
    ("mirror", (3, 4));
    ("portknock", (11, 20));
  ]

let explore_bench ~smoke () =
  section "Worklist explorer: join-point path merging + eager UNSAT pruning";
  Fmt.pr "%-18s %6s %6s %6s %6s %8s | %6s %6s %8s | %s@." "NF" "paths" "merges" "prunes"
    "calls" "expl(ms)" "naive" "calls" "naive(ms)" "model";
  let explore_ms (ex : Nfactor.Extract.result) =
    try List.assoc "explore" ex.Nfactor.Extract.stage_times *. 1e3 with Not_found -> 0.
  in
  let rows =
    List.map
      (fun (e : Nfs.Corpus.entry) ->
        let name = e.Nfs.Corpus.name in
        let p () = e.Nfs.Corpus.program () in
        let merged = Nfactor.Extract.run ~merge:true ~name (p ()) in
        (* The naive enumeration needs room for dpi's 2^13 paths. *)
        let naive_config =
          if name = Nfs.Dpi.name then
            { Symexec.Explore.default_config with Symexec.Explore.max_paths = 20_000 }
          else Symexec.Explore.default_config
        in
        let naive = Nfactor.Extract.run ~config:naive_config ~merge:false ~name (p ()) in
        let ms = merged.Nfactor.Extract.stats and ns = naive.Nfactor.Extract.stats in
        (* Below the profitability threshold the engines must agree
           byte-for-byte; where merging fired, observational equality
           is checked differentially (palette-free: seeded random +
           flow churn). *)
        let byte_identical = ms.Symexec.Explore.merges = 0 in
        let model_equal =
          if byte_identical then
            String.equal
              (Nfactor.Model_io.to_string naive.Nfactor.Extract.model)
              (Nfactor.Model_io.to_string merged.Nfactor.Extract.model)
          else begin
            let n = if smoke then 100 else 300 in
            let ch = Packet.Traffic.churn_gen ~concurrent:24 ~seed:1010 () in
            let pkts =
              Packet.Traffic.random_stream ~seed:1011 ~n ()
              @ List.init (n / 3) (fun _ -> Packet.Traffic.churn_next ch)
            in
            let store = Nfactor.Model_interp.initial_store merged in
            let v, stores_equal =
              Nfactor.Equiv.model_differential ~store ~pkts naive.Nfactor.Extract.model
                merged.Nfactor.Extract.model
            in
            v.Nfactor.Equiv.mismatches = [] && stores_equal
          end
        in
        let row =
          {
            ex_name = name;
            ex_paths = ms.Symexec.Explore.paths;
            ex_merges = ms.Symexec.Explore.merges;
            ex_prunes = ms.Symexec.Explore.prunes;
            ex_calls = ms.Symexec.Explore.solver_calls;
            ex_decides = ms.Symexec.Explore.decides;
            ex_merged_ms = explore_ms merged;
            ex_naive_paths = ns.Symexec.Explore.paths;
            ex_naive_calls = ns.Symexec.Explore.solver_calls;
            ex_naive_ms = explore_ms naive;
            ex_model_equal = model_equal;
            ex_byte_identical = byte_identical;
          }
        in
        Fmt.pr "%-18s %6d %6d %6d %6d %8.2f | %6d %6d %8.2f | %s@." name row.ex_paths
          row.ex_merges row.ex_prunes row.ex_calls row.ex_merged_ms row.ex_naive_paths
          row.ex_naive_calls row.ex_naive_ms
          (if not model_equal then "NO — MISMATCH"
           else if byte_identical then "identical"
           else "diff-equal");
        row)
      Nfs.Corpus.all
  in
  Fmt.pr "@.(naive = the unmerged enumeration in the same process; dpi's naive run uses a@.";
  Fmt.pr " raised 20k-path budget — under the default 4096 budget it overflows, so join-@.";
  Fmt.pr " point merging is what makes that NF synthesizable at all.)@.";
  rows

(* Explorer telemetry and the PR-10 gates: every NF the PR-9 forker
   explored must reproduce its recorded path census and solver-call
   count exactly (counters, so machine-independent); the exponential
   NF must collapse from >= 2^12 naive paths to at most 4x its branch
   count; merged and naive models must agree corpus-wide; and the
   merged exploration must not cost wall-clock vs the naive one in the
   same process (the only timing gate, normalized by construction). *)
let add_explore_sections buf (rows : ex_row list) =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "  \"explore\": {\n";
  List.iter
    (fun r ->
      let recorded = List.assoc_opt r.ex_name pr9_explore_recorded in
      let rec_json =
        match recorded with
        | Some (p, c) ->
            Printf.sprintf "\"pr9_paths\": %d, \"pr9_solver_calls\": %d, " p c
        | None -> ""
      in
      add
        "    %S: { \"paths\": %d, \"merges\": %d, \"prunes\": %d, \"solver_calls\": %d, \
         \"decides\": %d, \"explore_ms\": %.3f, \"naive_paths\": %d, \
         \"naive_solver_calls\": %d, \"naive_explore_ms\": %.3f, %s\"model_equal\": %b, \
         \"byte_identical\": %b },\n"
        r.ex_name r.ex_paths r.ex_merges r.ex_prunes r.ex_calls r.ex_decides
        r.ex_merged_ms r.ex_naive_paths r.ex_naive_calls r.ex_naive_ms rec_json
        r.ex_model_equal r.ex_byte_identical)
    rows;
  let recorded_ok =
    List.for_all
      (fun (name, (paths, calls)) ->
        match List.find_opt (fun r -> r.ex_name = name) rows with
        | Some r ->
            r.ex_paths = paths && r.ex_calls <= calls && r.ex_merges = 0
            && r.ex_byte_identical && r.ex_model_equal
        | None -> false)
      pr9_explore_recorded
  in
  let all_equal = List.for_all (fun r -> r.ex_model_equal) rows in
  let dpi = List.find_opt (fun r -> r.ex_name = Nfs.Dpi.name) rows in
  let exponential_ok =
    match dpi with
    | Some r ->
        r.ex_naive_paths >= 4096
        && r.ex_paths <= 4 * r.ex_decides
        && r.ex_merges > 0
    | None -> false
  in
  let merged_total = List.fold_left (fun a r -> a +. r.ex_merged_ms) 0. rows in
  let naive_total = List.fold_left (fun a r -> a +. r.ex_naive_ms) 0. rows in
  (* Same-process ratio: merging must not cost wall-clock corpus-wide
     (1.10 absorbs timer noise on the sub-millisecond legacy runs). *)
  let wall_ok = merged_total <= (naive_total *. 1.10) +. 1. in
  add
    "    \"gates\": { \"pr9_counters_reproduced\": %b, \"all_models_equal\": %b, \
     \"exponential_nf_ok\": %b, \"merged_explore_ms\": %.3f, \"naive_explore_ms\": %.3f, \
     \"wall_ok\": %b, \"explore_ok\": %b }\n"
    recorded_ok all_equal exponential_ok merged_total naive_total wall_ok
    (recorded_ok && all_equal && exponential_ok && wall_ok);
  add "  }"

(* The section-only JSON behind [--rt]/[--scale]/[--chain]/[--analysis]/
   [--explore]: any subset of the sections, same shape as the
   corresponding pieces of the full-bench JSON (BENCH_pr7.json is
   rt+scale at full budgets; BENCH_pr8.json is the chain section at
   full budgets; BENCH_pr9.json is the analysis section at full
   budgets; BENCH_pr10.json is the explore section). *)
let emit_sections_json path ?rt_rows ?scale ?chain ?analysis ?explore () =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  if explore <> None then begin
    add "  \"pr\": 10,\n";
    add "  \"subject\": \"worklist symbolic explorer: join-point path merging + eager UNSAT pruning\",\n"
  end
  else if analysis <> None then begin
    add "  \"pr\": 9,\n";
    add "  \"subject\": \"static model analyzer: shadowing/reachability lints + Equiv-gated table minimization\",\n"
  end
  else if chain <> None then begin
    add "  \"pr\": 8,\n";
    add "  \"subject\": \"compiled service-chain dataplane: static linking, hop fusion, chain invariants\",\n"
  end
  else begin
    add "  \"pr\": 7,\n";
    add "  \"subject\": \"sharded multicore dataplane: flow-key domain sharding with RCU plan swap\",\n"
  end;
  (match rt_rows with
  | Some rt ->
      add_rt_sections buf rt;
      if scale <> None || chain <> None || analysis <> None || explore <> None then
        add ",\n"
  | None -> ());
  (match scale with
  | Some sr ->
      add_scale_sections buf sr;
      if chain <> None || analysis <> None || explore <> None then add ",\n"
  | None -> ());
  (match chain with
  | Some c ->
      add_chain_sections buf c;
      if analysis <> None || explore <> None then add ",\n"
  | None -> ());
  (match analysis with
  | Some rows ->
      add_analysis_sections buf rows;
      if explore <> None then add ",\n"
  | None -> ());
  (match explore with Some rows -> add_explore_sections buf rows | None -> ());
  add "\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "@.telemetry written to %s@." path

let emit_json path rows rt_rows sr pc =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"pr\": 7,\n";
  add "  \"subject\": \"sharded multicore dataplane: flow-key domain sharding with RCU plan swap\",\n";
  add "  \"budgets\": { \"se_orig_max_paths\": 1000 },\n";
  add "  \"pipeline\": {\n";
  add "    \"nfs\": %d, \"passes\": %d,\n" pc.pc_nfs pc.pc_passes;
  add "    \"cold_ms\": %.3f, \"warm_ms\": %.3f, \"speedup\": %.2f, \"speedup_ok\": %b,\n"
    pc.pc_cold_ms pc.pc_warm_ms pc.pc_speedup (pc.pc_speedup >= 5.);
  add "    \"warm_hit_rate_pct\": %.1f, \"warm_misses\": %d, \"models_byte_identical\": %b,\n"
    pc.pc_warm_hit_rate pc.pc_warm_misses pc.pc_models_identical;
  let stage_obj stages =
    String.concat ", " (List.map (fun (st, t) -> Printf.sprintf "%S: %.3f" st t) stages)
  in
  add "    \"stage_cold_ms\": { %s },\n" (stage_obj pc.pc_stage_cold_ms);
  add "    \"stage_warm_ms\": { %s }\n" (stage_obj pc.pc_stage_warm_ms);
  add "  },\n";
  add "  \"baseline_pr2\": {\n";
  List.iteri
    (fun i (name, (decides, calls, hits, rate, solver_rec, orig_rec)) ->
      add
        "    %S: { \"decides\": %d, \"solver_calls\": %d, \"memo_hits\": %d, \
         \"hit_rate_pct\": %.1f,\n"
        name decides calls hits rate;
      add
        "           \"solver_time_ms_recorded\": %.3f, \"explore_orig_ms_recorded\": %.3f }%s\n"
        solver_rec orig_rec
        (if i = List.length pr2_baseline - 1 then "" else ","))
    pr2_baseline;
  add "  },\n";
  add "  \"baseline_pr3_runtime\": {\n";
  List.iteri
    (fun i (name, (pkts, engine_rec, speedup_rec)) ->
      add "    %S: { \"packets\": %d, \"engine_ms_recorded\": %.3f, \"speedup_recorded\": %.2f }%s\n"
        name pkts engine_rec speedup_rec
        (if i = List.length pr3_baseline - 1 then "" else ","))
    pr3_baseline;
  add "  },\n";
  add_rt_sections buf rt_rows;
  add ",\n";
  add_scale_sections buf sr;
  add ",\n";
  add "  \"nfs\": [\n";
  List.iteri
    (fun i r ->
      add "    { \"name\": %S, \"paths_slice\": %d, \"paths_orig\": %d,\n" r.tr_name
        r.tr_slice_paths r.tr_orig_paths;
      add
        "      \"decides\": %d, \"solver_calls\": %d, \"memo_hits\": %d, \"memo_misses\": %d, \
         \"hit_rate_pct\": %.1f,\n"
        r.tr_decides r.tr_calls r.tr_hits r.tr_misses r.tr_hit_rate;
      add
        "      \"solver_time_ms\": %.3f, \"max_fork_depth\": %d, \"explore_slice_ms\": %.3f, \
         \"explore_orig_ms\": %.3f,\n"
        r.tr_solver_ms r.tr_depth r.tr_explore_slice_ms r.tr_explore_orig_ms;
      add "      \"stage_ms\": { %s } }%s\n"
        (String.concat ", "
           (List.map (fun (st, t) -> Printf.sprintf "%S: %.3f" st t) r.tr_stage_ms))
        (if i = List.length rows - 1 then "" else ","))
    rows;
  add "  ],\n";
  (* Acceptance comparison: interpreter-side numbers (solver time,
     SE-on-original wall-clock) no worse than the PR-2 recording on the
     paper's two subjects, with 15% headroom for machine noise. *)
  add "  \"comparison_vs_pr2\": {\n";
  List.iteri
    (fun i (name, (_, _, _, _, base_solver_ms, base_orig_ms)) ->
      match List.find_opt (fun r -> r.tr_name = name) rows with
      | None -> ()
      | Some r ->
          add
            "    %S: { \"solver_time_ms\": %.3f, \"baseline_ms\": %.3f, \"solver_ok\": %b,\n"
            name r.tr_solver_ms base_solver_ms
            (r.tr_solver_ms <= base_solver_ms *. 1.15);
          add
            "           \"explore_orig_ms\": %.3f, \"baseline_orig_ms\": %.3f, \
             \"explore_ok\": %b }%s\n"
            r.tr_explore_orig_ms base_orig_ms
            (r.tr_explore_orig_ms <= base_orig_ms *. 1.15)
            (if i = List.length pr2_baseline - 1 then "" else ","))
    pr2_baseline;
  add "  }\n";
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "@.machine-readable telemetry written to %s@." path

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                          *)
(* ------------------------------------------------------------------ *)

let slice_only program () =
  let p = Nfl.Transform.canonicalize program in
  ignore (Statealyzer.Varclass.analyze p)

let explore_orig ex config () = ignore (Nfactor.Report.explore_original ~config ex)

let micro_tests () =
  let lb = corpus_entry "lb" and snort = corpus_entry "snort" and balance = corpus_entry "balance" in
  let lb_p = lb.Nfs.Corpus.program () in
  let snort_p = snort.Nfs.Corpus.program () in
  let balance_p = balance.Nfs.Corpus.program () in
  let lb_ex = extract "lb" in
  let small_budget b = { Symexec.Explore.default_config with Symexec.Explore.max_paths = b } in
  (* Pre-extract for the exploration benches so only the measured stage
     runs inside the staged closure. *)
  let balance_ex = extract "balance" in
  let snort_ex = extract "snort" in
  let differential_100 =
    let pkts = Packet.Traffic.random_stream ~seed:9 ~n:100 () in
    fun () -> ignore (Nfactor.Equiv.differential lb_ex ~pkts)
  in
  Test.make_grouped ~name:"nfactor"
    [
      (* Table 1 *)
      Test.make ~name:"table1/statealyzer:lb" (Staged.stage (fun () -> slice_only lb_p ()));
      (* Table 2, slicing column *)
      Test.make ~name:"table2/slicing:snort" (Staged.stage (fun () -> slice_only snort_p ()));
      Test.make ~name:"table2/slicing:balance" (Staged.stage (fun () -> slice_only balance_p ()));
      (* Table 2, SE-on-slice column (full extraction includes it) *)
      Test.make ~name:"table2/extract:snort"
        (Staged.stage (fun () -> ignore (Nfactor.Extract.run ~name:"snort" snort_p)));
      Test.make ~name:"table2/extract:balance"
        (Staged.stage (fun () -> ignore (Nfactor.Extract.run ~name:"balance" balance_p)));
      (* Table 2, SE-on-original column (budget-capped, like ">1000") *)
      Test.make ~name:"table2/se-orig:balance"
        (Staged.stage (explore_orig balance_ex (small_budget 1000)));
      Test.make ~name:"table2/se-orig:snort-capped64"
        (Staged.stage (explore_orig snort_ex (small_budget 64)));
      (* Figure 6 *)
      Test.make ~name:"fig6/extract+render:balance"
        (Staged.stage (fun () ->
             ignore
               (Nfactor.Model.to_string
                  (Nfactor.Extract.run ~name:"balance" balance_p).Nfactor.Extract.model)));
      (* Accuracy *)
      Test.make ~name:"accuracy/differential-100:lb" (Staged.stage differential_100);
      (* Section-4 applications *)
      Test.make ~name:"apps/fsm:balance"
        (Staged.stage (fun () -> ignore (Nfactor.Fsm.of_extraction balance_ex)));
      Test.make ~name:"apps/export+import:lb"
        (Staged.stage (fun () ->
             ignore
               (Nfactor.Model_io.of_string
                  (Nfactor.Model_io.to_string lb_ex.Nfactor.Extract.model))));
      Test.make ~name:"apps/symreach-classes:snort+firewall"
        (Staged.stage
           (let nodes =
              List.map
                (fun name ->
                  let ex = extract name in
                  (name, ex.Nfactor.Extract.model, Nfactor.Model_interp.initial_store ex))
                [ "snort"; "firewall" ]
            in
            fun () -> ignore (Verify.Symreach.classes nodes)));
      Test.make ~name:"apps/testgen:firewall"
        (Staged.stage
           (let fw_ex = extract "firewall" in
            fun () -> ignore (Verify.Testgen.cover fw_ex)));
      (* Ablations: loop bound sensitivity of the slice exploration. *)
      Test.make ~name:"ablation/loop-bound-1:balance"
        (Staged.stage (fun () ->
             ignore
               (Nfactor.Extract.run
                  ~config:{ Symexec.Explore.default_config with Symexec.Explore.loop_bound = 1 }
                  ~name:"balance" balance_p)));
      Test.make ~name:"ablation/loop-bound-4:balance"
        (Staged.stage (fun () ->
             ignore
               (Nfactor.Extract.run
                  ~config:{ Symexec.Explore.default_config with Symexec.Explore.loop_bound = 4 }
                  ~name:"balance" balance_p)));
    ]

let run_micro () =
  section "Bechamel micro-benchmarks (per-stage timings and ablations)";
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est = match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> Float.nan in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  Fmt.pr "%-48s %14s@." "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Fmt.pr "%-48s %14s@." name human)
    rows

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

(* [--smoke] runs the fast sections only (CI gate); [--rt] runs just
   the runtime-dataplane table (fast iteration on engine changes);
   [--scale] runs just the sharded-dataplane scaling section (the CI
   shard gate); [--json PATH] writes the machine-readable telemetry
   next to the printed tables. *)
let () =
  (* Same batch-tool GC tuning as the CLI: synthesis and cache replay
     are allocation-rate-bound; the default nursery halves warm-replay
     throughput with minor collections. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let smoke = ref false in
  let rt_only = ref false in
  let scale_only = ref false in
  let chain_only = ref false in
  let analysis_only = ref false in
  let explore_only = ref false in
  let json_path = ref None in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--rt" :: rest ->
        rt_only := true;
        parse rest
    | "--scale" :: rest ->
        scale_only := true;
        parse rest
    | "--chain" :: rest ->
        chain_only := true;
        parse rest
    | "--analysis" :: rest ->
        analysis_only := true;
        parse rest
    | "--explore" :: rest ->
        explore_only := true;
        parse rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | arg :: _ ->
        prerr_endline
          ("usage: bench [--smoke] [--rt] [--scale] [--chain] [--analysis] [--explore] \
            [--json PATH]; unknown argument "
         ^ arg);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !rt_only || !scale_only || !chain_only || !analysis_only || !explore_only then begin
    let rt_rows = if !rt_only then Some (runtime_throughput ~smoke:!smoke ()) else None in
    let sr = if !scale_only then Some (shard_scaling ~smoke:!smoke ()) else None in
    let ch = if !chain_only then Some (chain_bench ~smoke:!smoke ()) else None in
    let an = if !analysis_only then Some (analysis_bench ~smoke:!smoke ()) else None in
    let ex = if !explore_only then Some (explore_bench ~smoke:!smoke ()) else None in
    Option.iter
      (fun path ->
        emit_sections_json path ?rt_rows ?scale:sr ?chain:ch ?analysis:an ?explore:ex ())
      !json_path;
    Fmt.pr "@.done.@.";
    exit 0
  end;
  (* First, on a quiet heap: the pipeline cold/warm comparison. *)
  let pc = pipeline_cache () in
  table1 ();
  figure6 ();
  if not !smoke then begin
    table2 ();
    accuracy ()
  end;
  path_equivalence ();
  if not !smoke then begin
    applications ();
    scaling ()
  end;
  let rt_rows = runtime_throughput ~smoke:!smoke () in
  let sr = shard_scaling ~smoke:!smoke () in
  let rows = solver_telemetry () in
  Option.iter (fun path -> emit_json path rows rt_rows sr pc) !json_path;
  if not !smoke then run_micro ();
  Fmt.pr "@.done.@."
