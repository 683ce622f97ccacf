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
    - {b Gated sections} — pipeline cache, runtime engine and shard
      scaling (also under [--smoke]), plus [--rt], [--scale], [--chain],
      [--analysis] and [--explore]. Each returns its acceptance gates;
      the run ends with one [gate] line per gate and exits 1 if any
      failed.

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
(* Acceptance gates                                                   *)
(* ------------------------------------------------------------------ *)

(* A gated section returns its gates as values; the entry point prints
   them after every requested table and exits 1 if any failed. *)
type gate = { name : string; measured : string; need : string; ok : bool }

let num v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.2f" v

let compare_gate name ok v op t = { name; measured = num v; need = Printf.sprintf "%s %g" op t; ok }

let at_least name v t = compare_gate name (v >= t) v ">=" t

let at_most name v t = compare_gate name (v <= t) v "<=" t

let exactly name v t = compare_gate name (v = t) v "=" t

let holds name b = { name; measured = string_of_bool b; need = "= true"; ok = b }

(* Every exactness gate: [obs] must agree with [reference] in every
   part both observe; a disagreement prints the verdict. *)
let agree ~reference obs =
  let v = Nfactor_runtime.Differential.compare ~reference obs in
  if not (Nfactor_runtime.Differential.ok v) then
    Fmt.pr "mismatch: %a@." Nfactor_runtime.Differential.pp_verdict v;
  Nfactor_runtime.Differential.ok v

let count p l = List.length (List.filter p l)

let geomean = function
  | [] -> 0.
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

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
      let row =
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
      (* A fresh manager: its own solver memo, as a first synthesis. *)
      let ex = Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name:"snort" p in
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
let solver_telemetry () =
  section "Solver telemetry: incremental context + memoized path-condition checks";
  Fmt.pr "%-12s | %7s %8s %7s | %6s %6s | %8s | %9s %5s@." "NF" "decides" "baseline" "calls"
    "hits" "misses" "hit-rate" "time(ms)" "depth";
  List.iter
    (fun (e : Nfs.Corpus.entry) ->
      let name = e.Nfs.Corpus.name in
      let ex = extract name in
      let budget = { Symexec.Explore.default_config with Symexec.Explore.max_paths = 1000 } in
      let _, o =
        Nfactor.Report.explore_original ~config:budget ~memo:ex.Nfactor.Extract.solver_memo ex
      in
      let s = ex.Nfactor.Extract.stats in
      let open Symexec.Explore in
      let decides = s.decides + o.decides in
      let hits = s.solver_cache_hits + o.solver_cache_hits in
      let misses = s.solver_cache_misses + o.solver_cache_misses in
      let checks = hits + misses in
      let rate = if checks = 0 then 0. else 100. *. float_of_int hits /. float_of_int checks in
      Fmt.pr "%-12s | %7d %8d %7d | %6d %6d | %7.1f%% | %9.2f %5d@." name decides (2 * decides)
        (s.solver_calls + o.solver_calls)
        hits misses rate
        ((s.solver_time_s +. o.solver_time_s) *. 1e3)
        (max s.max_fork_depth o.max_fork_depth);
      if name = "balance" || name = "snort" then
        Fmt.pr "%14s fork depth histogram (slice): %s@." ""
          (String.concat " "
             (List.map (fun (d, n) -> Printf.sprintf "%d:%d" d n) (Imap.bindings s.fork_depths))))
    Nfs.Corpus.all;
  Fmt.pr "@.(decides = undecided branches; baseline = pre-memoization cost of 2 fresh@.";
  Fmt.pr " full-pc checks per branch; calls = actual decision-procedure runs after@.";
  Fmt.pr " the ¬sat_t ⇒ sat_f short-circuit and cache; slice + shared-cache original.)@."

(* ------------------------------------------------------------------ *)
(* Runtime dataplane throughput                                        *)
(* ------------------------------------------------------------------ *)

(* Interpreter vs compiled engine on identical seeded traffic. Both
   sides run over a pre-materialized packet array/list so generation
   cost stays out of the measurement; each side takes the best of
   three runs. The replay asserts output equality in-bench — a timing
   number for a wrong dataplane is worthless. *)
let best_of_3 f =
  let one () =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  min (one ()) (min (one ()) (one ()))

(* Engine-vs-interpreter speedups of the engine that the
   FSM/decision-tree dispatch replaced, as recorded in EXPERIMENTS.md
   ("Historical recordings").
   The dispatch gate compares *speedup ratios* (engine-vs-interpreter
   from the same run, divided by the recorded speedup) so machine speed
   cancels and the gate is meaningful on other hardware. *)
let pr5_baseline =
  [
    (* name, speedup recorded *)
    ("snort", 6.64);
    ("balance", 148.48);
    ("portknock", 11.70);
    ("lb", 127.35);
    ("nat", 547.19);
  ]

(* NFs whose per-packet work goes through flow state — where the old
   ordered scan actually cost something and the FSM/tree dispatch is
   the fix. [snort]'s matching is stateless, so it is reported but not
   gated. *)
let stateful_nfs = [ "portknock"; "balance"; "lb"; "nat" ]

(* Gates: per NF, the engine beats the interpreter >= 5x, agrees with it
   on outputs and final store, and never falls back to the ordered scan.
   At full budgets only (speedups are budget-dependent), the dispatch
   gate compares each stateful NF's speedup against the recording
   above. Interpreter and engine time the same traffic in the same
   process, so machine speed cancels out of each ratio. The measured
   geomean when this gate was recorded was ~2.0x; the gate holds the
   geomean at >= 1.25 with a per-NF floor of 0.7 because single-run
   timing noise on both sides of a ratio is +/-25% in isolation and
   worse on a contended CI runner (a loaded run was observed at
   geomean 1.49 with balance at 0.84) — a gate pinned near the
   measured value would flake, while 1.25 still fails any real
   dispatch regression: reverting to the ordered scan drops
   portknock's ratio alone to ~0.3. *)
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
        let eng = Nfactor_runtime.Engine.create plan ~store in
        let equal =
          agree
            ~reference:(Nfactor_runtime.Differential.interp model ~store arr)
            (Nfactor_runtime.Differential.engine eng arr)
        in
        let s = eng.Nfactor_runtime.Engine.stats in
        let speedup = if engine_s > 0. then interp_s /. engine_s else 0. in
        Fmt.pr "%-12s %8d | %12.2f %12.2f %7.1fx | %9d %9d %9d %9d | %s@." name n
          (interp_s *. 1e3) (engine_s *. 1e3) speedup s.Nfactor_runtime.Engine.fsm_hits
          s.Nfactor_runtime.Engine.index_hits s.Nfactor_runtime.Engine.tree_hits
          s.Nfactor_runtime.Engine.scan_hits
          (if equal then "yes" else "NO — MISMATCH");
        ( (name, speedup),
          [
            at_least (name ^ ".speedup") speedup 5.;
            holds (name ^ ".outputs_and_state_equal") equal;
            exactly (name ^ ".scan_hits") (float_of_int s.Nfactor_runtime.Engine.scan_hits) 0.;
          ] ))
      budget
  in
  Fmt.pr "@.(speedup = Model_interp.run / Engine.run_batch on the same seeded traffic;@.";
  Fmt.pr " equality covers per-packet outputs, fired entries and the final state store.)@.";
  let dispatch =
    if smoke then []
    else
      let ratios =
        List.filter_map
          (fun ((name, speedup), _) ->
            if List.mem name stateful_nfs then
              Some (name, speedup /. List.assoc name pr5_baseline)
            else None)
          rows
      in
      List.map (fun (name, r) -> at_least (name ^ ".dispatch_ratio") r 0.7) ratios
      @ [ at_least "dispatch_geomean" (geomean (List.map snd ratios)) 1.25 ]
  in
  List.concat_map snd rows @ dispatch

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
  let gates =
    List.concat_map
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
          let sh = Nfactor_runtime.Shard.create ~nshards:2 model ~config:store in
          agree
            ~reference:
              (Nfactor_runtime.Differential.engine (Nfactor_runtime.Engine.create plan ~store) pkts)
            (Fun.protect
               ~finally:(fun () -> Nfactor_runtime.Shard.shutdown sh)
               (fun () -> Nfactor_runtime.Differential.shard sh pkts))
        in
        (* Baseline: the single-threaded engine on the same stream. *)
        let base_s =
          let ch = Packet.Traffic.churn_gen ~concurrent ~seed:2016 () in
          let eng = Nfactor_runtime.Engine.create plan ~store in
          Packet.Traffic.time_batches
            ~next:(fun () -> Packet.Traffic.churn_next ch)
            ~n (Nfactor_runtime.Engine.run_batch eng)
        in
        let mpps s = if s > 0. then float_of_int n /. s /. 1e6 else 0. in
        Fmt.pr "%-12s %7d | %12.2f %8.2f | %8s %9s | exact: %s@." name 1 (base_s *. 1e3)
          (mpps base_s) "1.00x" "-"
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
                    Fmt.pr "%-12s %7d | %12.2f %8.2f | %7.2fx %8.1f%% | gate >= %.1fx: %s@."
                      name k (s *. 1e3) (mpps s) speedup deferred_pct gate
                      (if speedup >= gate then "ok" else "FAIL");
                    Some (at_least (Printf.sprintf "%s.speedup_%d_shards" name k) speedup gate)))
            scale_gates
        in
        (match List.filter (fun (k, _) -> cores < k) scale_gates with
        | [] -> ()
        | missing ->
            Fmt.pr "%-12s %7s | scaling gate skipped insufficient cores (have %d, need %s)@."
              name "-" cores
              (String.concat "/" (List.map (fun (k, _) -> string_of_int k) missing)));
        holds (name ^ ".exact") exact :: points)
      scale_nfs
  in
  Fmt.pr "@.(baseline = single engine on the same churn stream; exactness compares a@.";
  Fmt.pr " 2-shard run against it packet-for-packet: outputs, merged store, counters.)@.";
  gates

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
let chain_gate = 5.0

let acceptance_chain = "firewall,nat,snort"

let chain_nodes names =
  List.map
    (fun name ->
      let ex = extract name in
      (name, ex.Nfactor.Extract.model, Nfactor.Model_interp.initial_store ex))
    names

(* Gates: every chain is exact, the 3-NF acceptance chain is >= 5x the
   interpreter chain, fusion fires somewhere, and each invariant is
   either proven or violated by a counterexample that reproduces
   through the compiled chain. *)
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
        let exact =
          agree
            ~reference:(Nfactor_runtime.Differential.of_network_run ref_chain ref_results)
            (Nfactor_runtime.Differential.chain eng arr)
        in
        let chain = String.concat "," names in
        let speedup = if fused_s > 0. then interp_s /. fused_s else 0. in
        let fused_walks = eng.Nfactor_runtime.Chainengine.fused_walks in
        Fmt.pr "%-22s %8d | %12.1f %12.1f %8.1fx | %7d %11d %9d | %s@." chain n
          (interp_s *. 1e3) (fused_s *. 1e3) speedup cp.Nfactor_runtime.Chainplan.fused_entries
          fused_walks eng.Nfactor_runtime.Chainengine.handoffs
          (if exact then "yes" else "NO — MISMATCH");
        let speedup_gate =
          if chain = acceptance_chain then [ at_least (chain ^ ".speedup") speedup chain_gate ]
          else []
        in
        (fused_walks, holds (chain ^ ".exact") exact :: speedup_gate))
      budget
  in
  (* Invariant smoke: one proven, one violated whose counterexample
     must reproduce through the compiled chain. *)
  let invariants = [ ([ "snort"; "firewall" ], "ip_ttl<=0"); ([ "snort"; "firewall" ], "dport=80") ] in
  let inv_gates =
    List.map
      (fun (names, body) ->
        let nodes = chain_nodes names in
        let spec = "never-reaches:" ^ body in
        let prop = Result.get_ok (Verify.Invariant.parse_prop body) in
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
        let chain = String.concat "," names in
        let status = Verify.Invariant.status_string o.Verify.Invariant.status in
        let repro =
          match reproduces with
          | Some true -> " (counterexample reproduces through the compiled chain)"
          | Some false -> " (counterexample does NOT reproduce — BUG)"
          | None -> ""
        in
        Fmt.pr "@.invariant %-28s on %-16s: %s%s@." spec chain status repro;
        {
          name = chain ^ "." ^ spec;
          measured =
            (match reproduces with
            | Some r -> status ^ (if r then ", reproduces" else ", does not reproduce")
            | None -> status);
          need = "proven, or violated, reproduces";
          ok =
            (match status with
            | "proven" -> reproduces = None
            | "violated" -> reproduces = Some true
            | _ -> false);
        })
      invariants
  in
  Fmt.pr "@.(speedup = Network.run / Chainengine.run_batch on the same stream; gate: the@.";
  Fmt.pr " 3-NF chain must be exact and >=%.0fx; exactness covers outputs + per-hop stores.)@."
    chain_gate;
  let fused_walks = List.fold_left (fun acc (w, _) -> acc + w) 0 rows in
  List.concat_map snd rows @ (at_least "fused_walks" (float_of_int fused_walks) 1. :: inv_gates)

(* ------------------------------------------------------------------ *)
(* Pass pipeline: cold synthesis vs warm cache replay                  *)
(* ------------------------------------------------------------------ *)

(* The content-addressed pipeline measured end-to-end: a cold pass
   synthesizes the whole corpus into an empty artifact store, then a
   warm pass replays it through a *fresh* manager (the stand-in for a
   new process) over the populated store. Sources are materialized
   outside the timed regions; warm takes the best of three runs, and
   correctness is asserted in-bench: every warm pass must be a disk
   hit and every warm model byte-identical to its cold counterpart.
   Gate: warm replay >= 5x faster than cold synthesis. *)
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
  let speedup = if warm_s > 0. then cold_s /. warm_s else 0. in
  Fmt.pr "%-14s | %10s %10s@." "stage" "cold (ms)" "warm (ms)";
  List.iter2
    (fun (pass, c) (_, w) -> Fmt.pr "%-14s | %10.3f %10.3f@." pass c w)
    (stage_ms cold_traces) (stage_ms warm_traces);
  Fmt.pr "%-14s | %10.3f %10.3f@." "end-to-end" (cold_s *. 1e3) (warm_s *. 1e3);
  Fmt.pr "@.%d NFs, %d passes; warm replay %.1fx faster; warm hit rate %.0f%% (%d misses); \
          models byte-identical: %b@."
    (List.length sources) (List.length cold_traces) speedup
    (Pipeline.Trace.hit_rate warm_traces)
    (count (fun (tr : Pipeline.Trace.t) -> tr.Pipeline.Trace.status = Pipeline.Trace.Miss) warm_traces)
    models_identical;
  [ at_least "speedup" speedup 5. ]

(* ------------------------------------------------------------------ *)
(* Static analyzer: lint + proof-validated table minimization         *)
(* ------------------------------------------------------------------ *)

type an_row = {
  an_name : string;
  an_reduction_pct : float;
  an_post_clean : bool;
  an_verified : bool;
  an_speedup : float;  (** original-plan time / minimized-plan time *)
  an_equal : bool;  (** compiled replay: outputs + final store identical *)
}

(* Whole-corpus analyzer pass: lint, minimize, then compile BOTH the
   original and the minimized model and replay the same seeded traffic
   through each compiled engine. [an_equal] is the strongest runtime
   check in the harness — the minimizer's rewrites survive compilation
   to the FSM/decision-tree dispatch plans, packet-for-packet and
   store-exact. The speedup gate is machine-normalized by construction
   (both engines time identical traffic in the same process).

   Gates: the deliberately-redundant NF shrinks by at least 20%, every
   minimization passes its differential gate and its compiled replay,
   every minimized NF lints clean, and the minimized plan does not
   regress throughput: the corpus geomean must not dip below parity
   minus timer noise (0.93), and no single NF may lose more than 25%
   (0.75 floor) — the dispatch counters are identical pre/post
   minimization, so anything past that is a real plan pessimization,
   not jitter. *)
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
        (* The two plans number their entries differently, so only
           outputs and stores are comparable. *)
        let observe plan =
          let o =
            Nfactor_runtime.Differential.engine (Nfactor_runtime.Engine.create plan ~store) arr
          in
          { o with Nfactor_runtime.Differential.fired = None; counters = None }
        in
        let equal = agree ~reference:(observe orig_plan) (observe min_plan) in
        let row =
          {
            an_name = name;
            an_reduction_pct = 100. *. Analysis.Minimize.reduction o;
            an_post_clean = Analysis.Lint.is_clean post;
            an_verified = o.Analysis.Minimize.verified;
            an_speedup = (if min_s > 0. then orig_s /. min_s else 0.);
            an_equal = equal;
          }
        in
        Fmt.pr "%-18s %7d %5d %5.1f%% | %5d/%d/%d     | %5s | %10.2f %10.2f %7.2fx | %s@."
          name before after row.an_reduction_pct errors warnings infos
          (if row.an_verified then "exact" else "FAIL")
          (orig_s *. 1e3) (min_s *. 1e3) row.an_speedup
          (if equal then "yes" else "NO — MISMATCH");
        row)
      Nfs.Corpus.all
  in
  Fmt.pr "@.(speedup = original-plan / minimized-plan Engine.run_batch on the same seeded@.";
  Fmt.pr " traffic; equality covers per-packet outputs and the final state store; gate =@.";
  Fmt.pr " the minimizer's Equiv differential replay.)@.";
  let redundant = List.find_opt (fun r -> r.an_name = "firewall_redundant") rows in
  let nfs = float_of_int (List.length rows) in
  let every name p = exactly name (float_of_int (count p rows)) nfs in
  let speedups = List.map (fun r -> r.an_speedup) rows in
  [
    at_least "firewall_redundant.reduction_pct"
      (match redundant with Some r -> r.an_reduction_pct | None -> 0.)
      20.;
    every "nfs_verified" (fun r -> r.an_verified);
    every "nfs_replay_equal" (fun r -> r.an_equal);
    every "nfs_post_clean" (fun r -> r.an_post_clean);
    at_least "speedup_geomean" (geomean speedups) 0.93;
    at_least "speedup_min" (List.fold_left Float.min infinity speedups) 0.75;
  ]

(* ------------------------------------------------------------------ *)
(* Worklist explorer: join-point merging vs naive enumeration          *)
(* ------------------------------------------------------------------ *)

type ex_row = {
  ex_name : string;
  ex_paths : int;  (** merged exploration: completed paths *)
  ex_merges : int;
  ex_decides : int;
  ex_merged_ms : float;  (** merged explore-stage wall clock *)
  ex_naive_paths : int;  (** unmerged enumeration (raised budget for dpi) *)
  ex_naive_ms : float;
  ex_model_equal : bool;  (** merged model == unmerged model *)
}

(* Gates: merged and naive models agree corpus-wide; the exponential
   NF collapses from >= 2^12 naive paths to at most 4x its branch count
   with merging live; and the merged exploration does not cost
   wall-clock against the naive one in the same process (the only
   timing gate, normalized by construction; 1.10 + 1 ms absorbs timer
   noise on the sub-millisecond legacy runs). The legacy NFs' path and
   solver-call census is a counter, so it is pinned by the tier-1
   tests (test_merge) rather than here. *)
let explore_bench ~smoke () =
  section "Worklist explorer: join-point path merging + eager UNSAT pruning";
  Fmt.pr "%-18s %6s %6s %6s %6s %8s | %6s %6s %8s | %s@." "NF" "paths" "merges" "prunes"
    "calls" "expl(ms)" "naive" "calls" "naive(ms)" "model";
  (* A cold extraction and its explore pass's wall clock. *)
  let extract_timed ?config ~merge ~name p =
    let m = Pipeline.Manager.create () in
    let ex = Pipeline.Manager.extract ?config ~merge m ~name p in
    let explore =
      List.find (fun t -> t.Pipeline.Trace.pass = "explore") (Pipeline.Manager.traces m)
    in
    (ex, explore.Pipeline.Trace.wall_s *. 1e3)
  in
  let rows =
    List.map
      (fun (e : Nfs.Corpus.entry) ->
        let name = e.Nfs.Corpus.name in
        let p () = e.Nfs.Corpus.program () in
        let merged, merged_ms = extract_timed ~merge:true ~name (p ()) in
        (* The naive enumeration needs room for dpi's 2^13 paths. *)
        let naive_config =
          if name = Nfs.Dpi.name then
            { Symexec.Explore.default_config with Symexec.Explore.max_paths = 20_000 }
          else Symexec.Explore.default_config
        in
        let naive, naive_ms = extract_timed ~config:naive_config ~merge:false ~name (p ()) in
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
            ex_decides = ms.Symexec.Explore.decides;
            ex_merged_ms = merged_ms;
            ex_naive_paths = ns.Symexec.Explore.paths;
            ex_naive_ms = naive_ms;
            ex_model_equal = model_equal;
          }
        in
        Fmt.pr "%-18s %6d %6d %6d %6d %8.2f | %6d %6d %8.2f | %s@." name row.ex_paths
          row.ex_merges ms.Symexec.Explore.prunes ms.Symexec.Explore.solver_calls
          row.ex_merged_ms row.ex_naive_paths ns.Symexec.Explore.solver_calls row.ex_naive_ms
          (if not model_equal then "NO — MISMATCH"
           else if byte_identical then "identical"
           else "diff-equal");
        row)
      Nfs.Corpus.all
  in
  Fmt.pr "@.(naive = the unmerged enumeration in the same process; dpi's naive run uses a@.";
  Fmt.pr " raised 20k-path budget — under the default 4096 budget it overflows, so join-@.";
  Fmt.pr " point merging is what makes that NF synthesizable at all.)@.";
  let dpi = List.find (fun r -> r.ex_name = Nfs.Dpi.name) rows in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
  let naive_ms = total (fun r -> r.ex_naive_ms) in
  [
    exactly "nfs_models_equal"
      (float_of_int (count (fun r -> r.ex_model_equal) rows))
      (float_of_int (List.length rows));
    at_least "dpi.naive_paths" (float_of_int dpi.ex_naive_paths) 4096.;
    at_most "dpi.paths" (float_of_int dpi.ex_paths) (float_of_int (4 * dpi.ex_decides));
    at_least "dpi.merges" (float_of_int dpi.ex_merges) 1.;
    at_most "merged_explore_ms" (total (fun r -> r.ex_merged_ms)) ((naive_ms *. 1.10) +. 1.);
  ]

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
  (* Rows that extract do so through a fresh manager each time: nothing
     is served from a cache and every exploration starts a new memo. *)
  Test.make_grouped ~name:"nfactor"
    [
      (* Table 1 *)
      Test.make ~name:"table1/statealyzer:lb" (Staged.stage (fun () -> slice_only lb_p ()));
      (* Table 2, slicing column *)
      Test.make ~name:"table2/slicing:snort" (Staged.stage (fun () -> slice_only snort_p ()));
      Test.make ~name:"table2/slicing:balance" (Staged.stage (fun () -> slice_only balance_p ()));
      (* Table 2, SE-on-slice column (full extraction includes it) *)
      Test.make ~name:"table2/extract:snort"
        (Staged.stage (fun () ->
             ignore (Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name:"snort" snort_p)));
      Test.make ~name:"table2/extract:balance"
        (Staged.stage (fun () ->
             ignore (Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name:"balance" balance_p)));
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
                  (Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name:"balance"
                     balance_p)
                    .Nfactor.Extract.model)));
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
               (Pipeline.Manager.extract (Pipeline.Manager.create ())
                  ~config:{ Symexec.Explore.default_config with Symexec.Explore.loop_bound = 1 }
                  ~name:"balance" balance_p)));
      Test.make ~name:"ablation/loop-bound-4:balance"
        (Staged.stage (fun () ->
             ignore
               (Pipeline.Manager.extract (Pipeline.Manager.create ())
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

(* [--smoke] runs the fast sections at reduced budgets (the CI smoke
   run); [--rt], [--scale], [--chain], [--analysis] and [--explore] run
   just those sections. Every gate of every section that ran is printed
   as one [gate] line at the end; any failure makes the exit status 1. *)
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
    | arg :: _ ->
        prerr_endline
          ("usage: bench [--smoke] [--rt] [--scale] [--chain] [--analysis] [--explore]; \
            unknown argument "
         ^ arg);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let smoke = !smoke in
  let gates =
    if !rt_only || !scale_only || !chain_only || !analysis_only || !explore_only then
      List.filter_map
        (fun (on, name, run) -> if on then Some (name, run ()) else None)
        [
          (!rt_only, "runtime", runtime_throughput ~smoke);
          (!scale_only, "scale", shard_scaling ~smoke);
          (!chain_only, "chain", chain_bench ~smoke);
          (!analysis_only, "analysis", analysis_bench ~smoke);
          (!explore_only, "explore", explore_bench ~smoke);
        ]
    else begin
      (* First, on a quiet heap: the pipeline cold/warm comparison. *)
      let pc = pipeline_cache () in
      table1 ();
      figure6 ();
      if not smoke then begin
        table2 ();
        accuracy ()
      end;
      path_equivalence ();
      if not smoke then begin
        applications ();
        scaling ()
      end;
      let rt = runtime_throughput ~smoke () in
      let sc = shard_scaling ~smoke () in
      solver_telemetry ();
      if not smoke then run_micro ();
      [ ("pipeline", pc); ("runtime", rt); ("scale", sc) ]
    end
  in
  section "Acceptance gates";
  List.iter
    (fun (sec, gs) ->
      List.iter
        (fun g ->
          Fmt.pr "gate %s.%s: %s (measured %s, need %s)@." sec g.name
            (if g.ok then "ok" else "FAIL")
            g.measured g.need)
        gs)
    gates;
  if List.exists (fun (_, gs) -> List.exists (fun g -> not g.ok) gs) gates then exit 1;
  Fmt.pr "@.done.@."
