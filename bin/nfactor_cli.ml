(** [nfactor] — command-line front end.

    Subcommands mirror the pipeline stages: [list]/[show] browse the
    corpus, [classify] prints the StateAlyzer table, [slice] renders
    the packet+state slice over the source, [extract] prints the
    synthesized model, [paths] the exploration statistics, [report]
    the Table-2 metrics, [accuracy] runs the differential experiment
    and [testgen] emits a model-covering packet sequence. NF arguments
    are corpus names or paths to [.nfl] source files. *)

open Cmdliner

(* Every user-facing failure prints [error: ...] and exits 1. *)
let fail fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "error: %s@." msg;
      exit 1)
    fmt

(* The one reader and the one writer for user files: a missing,
   unreadable or unwritable path (a directory, a missing parent) is an
   error, not an uncaught [Sys_error]. *)
let file_error path msg =
  if String.starts_with ~prefix:path msg then fail "%s" msg else fail "%s: %s" path msg

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> file_error path msg

let write_file path text =
  try Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)
  with Sys_error msg -> file_error path msg

let load_nf arg =
  match Nfs.Corpus.find arg with
  | Some e -> (arg, e.Nfs.Corpus.source (), e.Nfs.Corpus.program ())
  | None -> (
      if not (Sys.file_exists arg) then
        fail "unknown NF %S (corpus: %s)" arg (String.concat ", " Nfs.Corpus.names);
      let src = read_file arg in
      match Nfl.Parser.program src with
      | p -> (Filename.remove_extension (Filename.basename arg), src, p)
      | exception (Nfl.Parser.Error (m, pos) | Nfl.Lexer.Error (m, pos)) ->
          fail "%s:%d:%d: %s" arg pos.Nfl.Ast.line pos.Nfl.Ast.col m)

let nf_arg =
  let doc = "NF to analyze: a corpus name or a path to an .nfl file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NF" ~doc)

(* Every synthesizing command funnels through one pass manager per
   invocation: repeated extractions of the same NF dedup in memory, and
   --cache-dir persists stage artifacts so later invocations replay
   unchanged stages instead of recomputing them. *)
let cache_dir_arg =
  let doc =
    "Persist pipeline artifacts (canonical program, classification, slices, paths, model) \
     in $(docv); subsequent runs replay unchanged stages from the cache."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let manager ?cache_dir () = Pipeline.Manager.create ?cache_dir ()

let with_nf f arg =
  let name, src, p = load_nf arg in
  f name src p

(* Extract every named NF through one manager: an NF named twice is
   synthesized once. *)
let extract_all ?cache_dir names =
  let m = manager ?cache_dir () in
  List.map
    (fun n ->
      let name, _, p = load_nf n in
      (name, Pipeline.Manager.extract m ~name p))
    names

(* A verifier/chain node: name, model and extraction-time store. *)
let node_of (name, (ex : Nfactor.Extract.result)) =
  (name, ex.Nfactor.Extract.model, Nfactor.Model_interp.initial_store ex)

(* ------------------------------------------------------------------ *)
(* Commands                                                           *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Fmt.pr "%-12s %-18s %-8s %s@." "NAME" "STRUCTURE" "IN-PAPER" "DESCRIPTION";
    List.iter
      (fun (e : Nfs.Corpus.entry) ->
        Fmt.pr "%-12s %-18s %-8s %s@." e.Nfs.Corpus.name e.Nfs.Corpus.structure
          (if e.Nfs.Corpus.in_paper then "yes" else "no")
          e.Nfs.Corpus.description)
      Nfs.Corpus.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the NF corpus.") Term.(const run $ const ())

let show_cmd =
  let run = with_nf (fun _ src _ -> print_string src) in
  Cmd.v (Cmd.info "show" ~doc:"Print an NF's NFL source.") Term.(const run $ nf_arg)

let classify_cmd =
  let run =
    with_nf (fun name _ p ->
        let p = Nfl.Transform.canonicalize p in
        let t = Statealyzer.Varclass.analyze p in
        Fmt.pr "StateAlyzer classification for %s:@.%a" name Statealyzer.Varclass.pp t)
  in
  Cmd.v (Cmd.info "classify" ~doc:"Print the StateAlyzer variable classification (Table 1).")
    Term.(const run $ nf_arg)

let slice_cmd =
  let run cache_dir =
    with_nf (fun name _ p ->
        let m = manager ?cache_dir () in
        let ex = Pipeline.Manager.extract m ~name p in
        Fmt.pr "# packet+state slice of %s (pruned statements commented)@." name;
        print_string (Nfl.Pretty.program ~slice:ex.Nfactor.Extract.union_slice ex.Nfactor.Extract.program))
  in
  Cmd.v
    (Cmd.info "slice" ~doc:"Render the canonical source with non-slice statements pruned.")
    Term.(const run $ cache_dir_arg $ nf_arg)

(* Exploration + solver telemetry, shared by `extract --stats` and
   `paths --stats`. The baseline is the historical 2-calls-per-branch
   accounting (every undecided branch checked both sides afresh). *)
let pp_traces m =
  let traces = Pipeline.Manager.traces m in
  Fmt.pr "@.pass pipeline%s:@."
    (match Pipeline.Manager.cache_dir m with
    | Some d -> Printf.sprintf " (cache: %s)" d
    | None -> "");
  List.iter (fun t -> Fmt.pr "  %a@." Pipeline.Trace.pp t) traces;
  Fmt.pr "  hit rate %.0f%%, total %.2fms@."
    (Pipeline.Trace.hit_rate traces)
    (Pipeline.Trace.total_wall_s traces *. 1e3)

let pp_telemetry ?m name (ex : Nfactor.Extract.result) =
  let s = ex.Nfactor.Extract.stats in
  let open Symexec.Explore in
  Fmt.pr "@.solver telemetry for %s:@." name;
  Fmt.pr "  branch decisions    %d (%d fork(s), max pc depth %d)@." s.decides s.forks
    s.max_fork_depth;
  Fmt.pr "  merges/prunes       %d state(s) folded at join points, %d side(s) pruned UNSAT@."
    s.merges s.prunes;
  Fmt.pr "  solver calls        %d (baseline 2 per branch: %d)@." s.solver_calls
    (2 * s.decides);
  Fmt.pr "  cache hits/misses   %d/%d@." s.solver_cache_hits s.solver_cache_misses;
  let per_branch =
    if s.decides = 0 then 0. else s.solver_time_s *. 1e6 /. float_of_int s.decides
  in
  Fmt.pr "  solver time         %.3f ms (%.1f us per branch)@." (s.solver_time_s *. 1e3)
    per_branch;
  Fmt.pr "  fork depth histogram %s@."
    (if Imap.is_empty s.fork_depths then "-"
     else
       String.concat " "
         (List.map
            (fun (d, n) -> Printf.sprintf "%d:%d" d n)
            (Imap.bindings s.fork_depths)));
  Option.iter pp_traces m

let stats_flag =
  Arg.(value & flag & info [ "stats" ] ~doc:"Also print exploration and solver telemetry.")

let extract_cmd =
  let run stats cache_dir =
    with_nf (fun name _ p ->
        let m = manager ?cache_dir () in
        let ex = Pipeline.Manager.extract m ~name p in
        Fmt.pr "%a" Nfactor.Model.pp ex.Nfactor.Extract.model;
        if stats then pp_telemetry ~m name ex)
  in
  Cmd.v (Cmd.info "extract" ~doc:"Synthesize and print the forwarding model (Figure 6).")
    Term.(const run $ stats_flag $ cache_dir_arg $ nf_arg)

let paths_cmd =
  let run stats cache_dir =
    with_nf (fun name _ p ->
        let m = manager ?cache_dir () in
        let ex = Pipeline.Manager.extract m ~name p in
        let s = ex.Nfactor.Extract.stats in
        Fmt.pr "%s: %d path(s), %d truncated, %d fork(s), %d solver call(s)%s@." name
          s.Symexec.Explore.paths s.Symexec.Explore.truncated_paths s.Symexec.Explore.forks
          s.Symexec.Explore.solver_calls
          (if s.Symexec.Explore.overflowed then " [budget exceeded]" else "");
        List.iteri
          (fun i (path : Symexec.Explore.path) ->
            Fmt.pr "path %d: %d stmt(s), %d literal(s), %s@." i
              (List.length (List.sort_uniq compare path.Symexec.Explore.trace))
              (List.length path.Symexec.Explore.pc)
              (match path.Symexec.Explore.sends with
              | [] -> "drop"
              | l -> Printf.sprintf "%d send(s)" (List.length l)))
          ex.Nfactor.Extract.paths;
        if stats then pp_telemetry ~m name ex)
  in
  Cmd.v (Cmd.info "paths" ~doc:"Show execution paths of the slice union.")
    Term.(const run $ stats_flag $ cache_dir_arg $ nf_arg)

let report_cmd =
  let budget =
    Arg.(value & opt int 1000 & info [ "se-budget" ] ~doc:"Path budget for the original program.")
  in
  let run budget cache_dir =
    let m = manager ?cache_dir () in
    print_endline Nfactor.Report.header;
    List.iter
      (fun (e : Nfs.Corpus.entry) ->
        let name = e.Nfs.Corpus.name in
        let ex = Pipeline.Manager.extract_source m ~name (e.Nfs.Corpus.source ()) in
        let row =
          Nfactor.Report.measure ~se_budget:budget ~ex ~name
            ~source:(e.Nfs.Corpus.source ()) (e.Nfs.Corpus.program ())
        in
        print_endline (Nfactor.Report.row_to_string row))
      Nfs.Corpus.all
  in
  Cmd.v (Cmd.info "report" ~doc:"Table-2 metrics for the whole corpus.")
    Term.(const run $ budget $ cache_dir_arg)

let accuracy_cmd =
  let trials = Arg.(value & opt int 1000 & info [ "trials" ] ~doc:"Random packets per NF.") in
  let seed = Arg.(value & opt int 2016 & info [ "seed" ] ~doc:"Traffic seed.") in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc:"Replay a packet trace FILE instead of random traffic.")
  in
  let run trials seed trace cache_dir arg =
    with_nf
      (fun name _ p ->
        let ex = Pipeline.Manager.extract (manager ?cache_dir ()) ~name p in
        let v, source =
          match trace with
          | Some file ->
              let pkts =
                try Packet.Codec.of_string (read_file file)
                with Invalid_argument msg -> fail "%s: %s" file msg
              in
              (Nfactor.Equiv.differential ex ~pkts, "packets from " ^ file)
          | None -> (Nfactor.Equiv.random_testing ~seed ~trials ex, "random packets")
        in
        if Nfactor.Equiv.ok v then
          Fmt.pr "%s: %d/%d %s agree (program == model)@." name v.Nfactor.Equiv.trials
            v.Nfactor.Equiv.trials source
        else begin
          Fmt.pr "%s: %d mismatch(es) out of %d:@." name
            (List.length v.Nfactor.Equiv.mismatches)
            v.Nfactor.Equiv.trials;
          List.iter (Fmt.pr "%a" Nfactor.Equiv.pp_mismatch) v.Nfactor.Equiv.mismatches;
          exit 1
        end)
      arg
  in
  Cmd.v
    (Cmd.info "accuracy"
       ~doc:"Differential testing: program vs model on random or replayed traffic.")
    Term.(const run $ trials $ seed $ trace $ cache_dir_arg $ nf_arg)

let gen_trace_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.") in
  let n = Arg.(value & opt int 100 & info [ "n" ] ~doc:"Random packets (ignored with --flows).") in
  let flows =
    Arg.(value & opt (some int) None & info [ "flows" ] ~doc:"Generate N full TCP conversations instead.")
  in
  let out = Arg.(required & opt (some string) None & info [ "o"; "output" ] ~doc:"Output FILE.") in
  let run seed n flows out =
    let pkts =
      match flows with
      | Some f -> Packet.Traffic.flow_stream ~seed ~flows:f ~data_pkts:3 ()
      | None -> Packet.Traffic.random_stream ~seed ~n ()
    in
    write_file out (Packet.Codec.to_string pkts);
    Fmt.pr "%d packet(s) written to %s@." (List.length pkts) out
  in
  Cmd.v (Cmd.info "gen-trace" ~doc:"Generate a reproducible packet trace file.")
    Term.(const run $ seed $ n $ flows $ out)

let testgen_cmd =
  let run cache_dir =
    with_nf (fun name _ p ->
        let ex = Pipeline.Manager.extract (manager ?cache_dir ()) ~name p in
        let c = Verify.Testgen.cover ex in
        Fmt.pr "%s: %a@." name Verify.Testgen.pp_coverage c;
        List.iteri (fun i pk -> Fmt.pr "  #%d %a@." i Packet.Pkt.pp pk) c.Verify.Testgen.pkts;
        let v = Verify.Testgen.compliance ex c in
        Fmt.pr "compliance replay: %s@."
          (if Nfactor.Equiv.ok v then "program matches model on all generated packets" else "MISMATCH"))
  in
  Cmd.v (Cmd.info "testgen" ~doc:"Generate model-covering test packets (BUZZ-style).")
    Term.(const run $ cache_dir_arg $ nf_arg)

(* The traffic flags of [run] and [chain run], defined once and
   checked as they are parsed. *)
type traffic = { n : int; seed : int; capacity : int option; shards : int; churn : int option }

let traffic_term =
  let n = Arg.(value & opt int 100_000 & info [ "n" ] ~doc:"Packets to replay.") in
  let seed = Arg.(value & opt int 2016 & info [ "seed" ] ~doc:"Traffic seed.") in
  let capacity =
    Arg.(value & opt (some int) None & info [ "capacity" ] ~doc:"Per-flow-table capacity bound (LRU eviction). Unbounded by default.")
  in
  let shards =
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc:"Run across N shard domains (a chain only when its fused plan's shard spec allows it); 1 (default) runs the single-threaded engine.")
  in
  let churn =
    Arg.(value & opt (some int) None & info [ "churn" ] ~docv:"FLOWS" ~doc:"Replace uniform random traffic with the churn workload: a constant pool of FLOWS concurrent conversations with unbounded turnover.")
  in
  let make n seed capacity shards churn =
    if shards < 1 then fail "--shards must be >= 1";
    (match churn with Some c when c < 1 -> fail "--churn must be >= 1" | _ -> ());
    (match capacity with Some c when c < 1 -> fail "--capacity must be >= 1" | _ -> ());
    { n; seed; capacity; shards; churn }
  in
  Term.(const make $ n $ seed $ capacity $ shards $ churn)

(* One packet source per traffic command, shared by the timed run and
   by --check: seeded uniform random packets, or the churn workload
   under --churn. Each call restarts the stream from [seed]. *)
let packet_source tr =
  match tr.churn with
  | Some concurrent ->
      let ch = Packet.Traffic.churn_gen ~concurrent ~seed:tr.seed () in
      fun () -> Packet.Traffic.churn_next ch
  | None ->
      let rng = Packet.Rng.create tr.seed in
      fun () -> Packet.Traffic.random_pkt rng Packet.Traffic.default_profile

let packet_stream tr =
  let next = packet_source tr in
  Array.init tr.n (fun _ -> next ())

let time_traffic tr consume =
  Packet.Traffic.time_batches ~next:(packet_source tr) ~n:tr.n consume

let mpps tr secs = if secs > 0. then float_of_int tr.n /. secs /. 1e6 else 0.

(* Every --check: compare [obs] against [reference]; say what agreed
   when they do, else print the verdict and exit 1. *)
let check_against ~reference obs pair parts =
  let v = Nfactor_runtime.Differential.compare ~reference obs in
  if Nfactor_runtime.Differential.ok v then
    Fmt.pr "check: %s on %d packets (%s)@." pair v.Nfactor_runtime.Differential.packets parts
  else begin
    Fmt.epr "check FAILED: %a@." Nfactor_runtime.Differential.pp_verdict v;
    exit 1
  end

let run_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Print engine counters as JSON.") in
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Compare against a reference on the same traffic: the interpreter for a single engine, a single engine for a sharded run (outputs, final state, counters).")
  in
  let run ({ n; capacity; shards; _ } as tr) json check cache_dir arg =
    with_nf
      (fun name _ p ->
        let m = manager ?cache_dir () in
        let ex = Pipeline.Manager.extract m ~name p in
        let model = ex.Nfactor.Extract.model in
        let store = Nfactor.Model_interp.initial_store ex in
        let plan = Pipeline.Manager.plan m ex in
        if shards = 1 then begin
          let eng = Nfactor_runtime.Engine.create ?capacity plan ~store in
          let secs = time_traffic tr (Nfactor_runtime.Engine.run_batch eng) in
          if json then print_endline (Nfactor_runtime.Engine.stats_json eng)
          else begin
            Fmt.pr "plan: %a@." Nfactor_runtime.Compile.pp_plan plan;
            Fmt.pr "%a@." Nfactor_runtime.Engine.pp_stats eng;
            Fmt.pr "%d packets in %.3f ms (%.2f Mpps)@." n (secs *. 1e3) (mpps tr secs)
          end
        end
        else begin
          let sh =
            Nfactor_runtime.Shard.create ?capacity ~nshards:shards model ~config:store
          in
          Fun.protect
            ~finally:(fun () -> Nfactor_runtime.Shard.shutdown sh)
            (fun () ->
              let secs = time_traffic tr (Nfactor_runtime.Shard.run_batch sh) in
              if json then print_endline (Nfactor_runtime.Shard.stats_json sh ~nf:name)
              else begin
                Fmt.pr "sharding: %a@." Nfactor_runtime.Shardplan.pp
                  (Nfactor_runtime.Shard.spec sh);
                Fmt.pr "%a@."
                  (Nfactor_runtime.Engine.pp_stats_of
                     ~evictions:(Nfactor_runtime.Shard.evictions sh))
                  (Nfactor_runtime.Shard.merged_stats sh);
                Fmt.pr "deferred %d packet(s) to the serial phase over %d batch(es)@."
                  (Nfactor_runtime.Shard.deferred sh)
                  (Nfactor_runtime.Shard.batches sh);
                Fmt.pr "%d packets in %.3f ms (%.2f Mpps, %d shards)@." n (secs *. 1e3)
                  (mpps tr secs) shards
              end)
        end;
        if check then begin
          if capacity <> None then
            fail "--check requires an unbounded store (%s by design)"
              (if shards = 1 then "LRU eviction diverges from the reference interpreter"
               else "eviction order differs across shard clocks");
          let pkts = packet_stream tr in
          let engine =
            Nfactor_runtime.Differential.engine (Nfactor_runtime.Engine.create plan ~store) pkts
          in
          if shards = 1 then
            check_against
              ~reference:(Nfactor_runtime.Differential.interp model ~store pkts)
              engine "engine == interpreter" "outputs and final state"
          else
            let sh = Nfactor_runtime.Shard.create ~nshards:shards model ~config:store in
            check_against ~reference:engine
              (Fun.protect
                 ~finally:(fun () -> Nfactor_runtime.Shard.shutdown sh)
                 (fun () -> Nfactor_runtime.Differential.shard sh pkts))
              (Printf.sprintf "%d shards == single engine" shards)
              "outputs, merged state, merged counters"
        end)
      arg
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compile the model into the runtime dataplane and replay seeded traffic through it, optionally sharded across domains.")
    Term.(const run $ traffic_term $ json $ check $ cache_dir_arg $ nf_arg)

let fsm_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.") in
  let run dot cache_dir arg =
    with_nf
      (fun name _ p ->
        let ex = Pipeline.Manager.extract (manager ?cache_dir ()) ~name p in
        let fsm = Nfactor.Fsm.of_extraction ex in
        if dot then print_string (Nfactor.Fsm.to_dot ~name fsm)
        else Fmt.pr "per-flow FSM for %s:@.%a" name Nfactor.Fsm.pp fsm)
      arg
  in
  Cmd.v (Cmd.info "fsm" ~doc:"Derive the per-flow finite state machine from the model.")
    Term.(const run $ dot $ cache_dir_arg $ nf_arg)

let export_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Write to FILE.")
  in
  let run out cache_dir arg =
    with_nf
      (fun name _ p ->
        let ex = Pipeline.Manager.extract (manager ?cache_dir ()) ~name p in
        let text = Nfactor.Model_io.to_string ex.Nfactor.Extract.model in
        match out with
        | None -> print_endline text
        | Some file ->
            write_file file (text ^ "\n");
            Fmt.pr "model written to %s@." file)
      arg
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Serialize the model to the interchange format (what a vendor ships an operator).")
    Term.(const run $ out $ cache_dir_arg $ nf_arg)

let import_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Model file.") in
  let run file =
    match Nfactor.Model_io.of_string (String.trim (read_file file)) with
    | m -> Fmt.pr "%a" Nfactor.Model.pp m
    | exception Nfactor.Model_io.Parse_error msg -> fail "%s" msg
  in
  Cmd.v (Cmd.info "import" ~doc:"Parse and display a serialized model.") Term.(const run $ file)

let classes_cmd =
  let nfs =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"NF..." ~doc:"Chain of NFs, in order.")
  in
  let run cache_dir names =
    let nodes = List.map node_of (extract_all ?cache_dir names) in
    let classes = Verify.Symreach.classes nodes in
    Fmt.pr "%d end-to-end forwarding class(es) through [%a]:@.@." (List.length classes)
      Fmt.(list ~sep:(any " -> ") string)
      names;
    List.iteri
      (fun i c ->
        Fmt.pr "-- class %d --@.%a@." i Verify.Symreach.pp_cls c)
      classes
  in
  Cmd.v
    (Cmd.info "classes"
       ~doc:"Header-space style end-to-end forwarding classes of an NF chain.")
    Term.(const run $ cache_dir_arg $ nfs)

let compose_cmd =
  let nfs =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"NF..." ~doc:"NFs to order.")
  in
  let run cache_dir names =
    let models =
      List.map
        (fun (name, ex) -> (name, ex.Nfactor.Extract.model))
        (extract_all ?cache_dir names)
    in
    Fmt.pr "orders ranked by model-derived interference:@.";
    List.iter
      (fun r -> Fmt.pr "  %a@." Verify.Chain.pp_ranking r)
      (Verify.Chain.rank_orders models)
  in
  Cmd.v
    (Cmd.info "compose" ~doc:"Rank service-chain orders by interference (PGA-style).")
    Term.(const run $ cache_dir_arg $ nfs)

(* ------------------------------------------------------------------ *)
(* chain — compiled service-chain dataplane + invariant verifier      *)
(* ------------------------------------------------------------------ *)

let chain_nodes ?cache_dir spec =
  let names =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if names = [] then fail "empty chain (expected NF,NF,...)";
  List.map node_of (extract_all ?cache_dir names)

let chain_arg =
  let doc = "Service chain as comma-separated NFs in traversal order, e.g. firewall,nat,snort." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CHAIN" ~doc)

let chain_run_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Print chain counters as JSON.") in
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Differential check on the same traffic: the interpreter chain (Verify.Network.run) for a single engine (outputs and per-hop final stores), a single chain engine for a sharded run (outputs, per-hop final stores and counters).")
  in
  let run ({ n; capacity; shards; _ } as tr) json check cache_dir spec =
    if check && capacity <> None then
      fail "--check requires an unbounded store (LRU eviction diverges from the reference interpreter by design)";
    let nodes = chain_nodes ?cache_dir spec in
    let cp = Nfactor_runtime.Chainplan.link nodes in
    if shards = 1 then begin
      let eng = Nfactor_runtime.Chainengine.create ?capacity cp in
      let secs = time_traffic tr (Nfactor_runtime.Chainengine.run_batch eng) in
      if json then print_endline (Nfactor_runtime.Chainengine.stats_json eng)
      else begin
        Fmt.pr "%a@." Nfactor_runtime.Chainplan.pp cp;
        Fmt.pr "%a@." Nfactor_runtime.Chainengine.pp_stats eng;
        Fmt.pr "%d packets in %.3f ms (%.2f Mpps)@." n (secs *. 1e3) (mpps tr secs)
      end
    end
    else begin
      match Nfactor_runtime.Chainengine.shard ?capacity cp ~nshards:shards with
      | Error e -> fail "chain does not shard: %s" e
      | Ok sh ->
          let secs = Nfactor_runtime.Chainengine.shard_replay sh ~pkts:(packet_stream tr) in
          if json then
            Printf.printf
              "{\"chain\": %s, \"nshards\": %d, \"injected\": %d, \"fused_walks\": %d, \"wall_ms\": %.3f}\n"
              (Nfactor.Json.quote spec) shards
              (Nfactor_runtime.Chainengine.shard_injected sh)
              (Nfactor_runtime.Chainengine.shard_fused_walks sh)
              (secs *. 1e3)
          else
            Fmt.pr "%d packets in %.3f ms (%.2f Mpps, %d shards)@." n (secs *. 1e3)
              (mpps tr secs) shards
    end;
    if check then begin
      let pkts = packet_stream tr in
      let single =
        Nfactor_runtime.Differential.chain (Nfactor_runtime.Chainengine.create cp) pkts
      in
      if shards = 1 then
        check_against ~reference:(Nfactor_runtime.Differential.network nodes pkts) single
          "fused chain == interpreter chain" "outputs and per-hop final stores"
      else
        match Nfactor_runtime.Chainengine.shard cp ~nshards:shards with
        | Error e -> fail "%s" e
        | Ok sh ->
            check_against ~reference:single
              (Nfactor_runtime.Differential.sharded_chain sh pkts)
              (Printf.sprintf "%d shards == single chain engine" shards)
              "outputs, per-hop stores and counters"
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Link the chain's compiled plans into one dataplane and replay seeded traffic through it.")
    Term.(const run $ traffic_term $ json $ check $ cache_dir_arg $ chain_arg)

type chain_invariant =
  | Inv_never of Verify.Invariant.prop
  | Inv_drop of Verify.Invariant.prop * string * string
  | Inv_order of string

let parse_invariant s =
  let strip prefix =
    if String.starts_with ~prefix s then
      Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
    else None
  in
  match strip "never-reaches:" with
  | Some body -> (
      match Verify.Invariant.parse_prop body with
      | Ok p -> Ok (Inv_never p)
      | Error e -> Error e)
  | None -> (
      match strip "state-implies-drop:" with
      | Some body -> (
          match String.index_opt body '@' with
          | None -> Error "state-implies-drop needs PROP@FROM..TO"
          | Some i -> (
              let prop = String.sub body 0 i in
              let range = String.sub body (i + 1) (String.length body - i - 1) in
              match
                ( Verify.Invariant.parse_prop prop,
                  String.split_on_char '.' range |> List.filter (fun s -> s <> "") )
              with
              | Ok p, [ from_; to_ ] -> Ok (Inv_drop (p, from_, to_))
              | Error e, _ -> Error e
              | _, _ -> Error "state-implies-drop needs PROP@FROM..TO"))
      | None -> (
          match strip "order-equiv:" with
          | Some other -> Ok (Inv_order other)
          | None ->
              Error
                (Printf.sprintf
                   "unknown invariant %S (expected never-reaches:..., state-implies-drop:..., order-equiv:...)"
                   s)))

(* Does the counterexample reproduce through the *compiled* chain?
   [other] is the alternate order's nodes, for order-equiv. *)
let compiled_reproduces ?(other = []) inv nodes (o : Verify.Invariant.outcome) =
  match o.Verify.Invariant.counterexample with
  | None -> None
  | Some p ->
      let run ns pkt =
        Nfactor_runtime.Chainengine.step
          (Nfactor_runtime.Chainengine.create (Nfactor_runtime.Chainplan.link ns))
          pkt
      in
      Some
        (match inv with
        | Inv_never prop -> List.exists (Verify.Invariant.holds_on prop) (run nodes p)
        | Inv_drop (prop, from_, to_) ->
            let ids = List.map (fun (id, _, _) -> id) nodes in
            let pos name =
              match List.find_index (String.equal name) ids with
              | Some i -> i
              | None -> -1
            in
            let i = pos from_ and j = pos to_ in
            let sub = List.filteri (fun k _ -> k >= i && k <= j) nodes in
            Verify.Invariant.holds_on prop p && run sub p <> []
        | Inv_order _ ->
            let sort = List.sort Packet.Pkt.compare in
            not (List.equal Packet.Pkt.equal (sort (run nodes p)) (sort (run other p))))

let chain_verify_cmd =
  let invariant =
    Arg.(required & opt (some string) None
         & info [ "invariant" ] ~docv:"SPEC"
             ~doc:"Invariant to check: never-reaches:PROP, state-implies-drop:PROP@FROM..TO, or order-equiv:NF,NF,... (the alternate order). PROP is a conjunction field OP value [& ...] with OP one of = != < <= > >=.")
  in
  let expect =
    Arg.(value & opt (some (enum [ ("proven", `Proven); ("violated", `Violated) ])) None
         & info [ "expect" ] ~docv:"VERDICT"
             ~doc:"Exit non-zero unless the verdict is VERDICT (proven|violated); violated also requires the counterexample to reproduce through the compiled chain.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Print the outcome as JSON.") in
  let run invariant expect json cache_dir spec =
    let nodes = chain_nodes ?cache_dir spec in
    match parse_invariant invariant with
    | Error e -> fail "%s" e
    | Ok inv ->
        let other =
          match inv with
          | Inv_order other -> chain_nodes ?cache_dir other
          | _ -> []
        in
        let o =
          match inv with
          | Inv_never prop -> Verify.Invariant.never_reaches nodes prop
          | Inv_drop (prop, from_, to_) ->
              Verify.Invariant.state_implies_drop nodes ~from_ ~to_ ~cls:prop
          | Inv_order _ -> Verify.Invariant.order_equiv nodes other
        in
        let repro = compiled_reproduces ~other inv nodes o in
        if json then
          Printf.printf "{\"chain\": %s, \"invariant\": %s, \"compiled_reproduces\": %s, \"outcome\": %s}\n"
            (Nfactor.Json.quote spec) (Nfactor.Json.quote invariant)
            (match repro with
            | Some true -> "true"
            | Some false -> "false"
            | None -> "null")
            (Verify.Invariant.json_of_outcome o)
        else begin
          Fmt.pr "%s | %s@." spec invariant;
          Fmt.pr "%a@." Verify.Invariant.pp_outcome o;
          match repro with
          | Some r -> Fmt.pr "compiled chain reproduces: %s@." (if r then "yes" else "NO")
          | None -> ()
        end;
        let status = o.Verify.Invariant.status in
        (match expect with
        | Some `Proven when status <> Verify.Invariant.Proven -> exit 1
        | Some `Violated
          when status <> Verify.Invariant.Violated || repro <> Some true ->
            exit 1
        | _ -> ())
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check a named chain invariant symbolically; violations ship a concrete counterexample packet validated through the reference interpreter and replayed through the compiled chain.")
    Term.(const run $ invariant $ expect $ json $ cache_dir_arg $ chain_arg)

let chain_lint_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Print findings as JSON.") in
  let run json cache_dir spec =
    let nodes = chain_nodes ?cache_dir spec in
    let findings =
      Analysis.Lint.chain_dead_writes (List.map (fun (n, m, _) -> (n, m)) nodes)
    in
    if json then
      Printf.printf "{\"chain\": %s, \"findings\": [%s]}\n" (Nfactor.Json.quote spec)
        (String.concat ", " (List.map Analysis.Lint.finding_to_json findings))
    else if findings = [] then
      Fmt.pr "%s: no cross-hop dead writes@." spec
    else
      List.iter (fun f -> Fmt.pr "%a@." Analysis.Lint.pp_finding f) findings
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Cross-hop dead-store analysis: flag header rewrites that the immediate next hop \
          provably masks (never reads the field, and every forwarding entry re-binds it).")
    Term.(const run $ json $ cache_dir_arg $ chain_arg)

let chain_cmd =
  Cmd.group
    (Cmd.info "chain"
       ~doc:"Compiled service-chain dataplane (statically linked plans, hop fusion) and network-wide invariant verifier.")
    [ chain_run_cmd; chain_verify_cmd; chain_lint_cmd ]

(* ------------------------------------------------------------------ *)
(* lint / minimize — the static model analyzer                        *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Print the report as JSON.") in
  let fix =
    Arg.(value & flag
         & info [ "fix" ]
             ~doc:"Run the minimizer first and lint the $(i,minimized) table — the report \
                   a deployment of the fixed model would see.")
  in
  let expect =
    Arg.(value & opt (some (enum [ ("clean", `Clean); ("dirty", `Dirty) ])) None
         & info [ "expect" ] ~docv:"VERDICT"
             ~doc:"Exit non-zero unless the report is VERDICT: clean (no errors or \
                   warnings) or dirty (at least one).")
  in
  let run json fix expect cache_dir =
    with_nf (fun name _src p ->
        let m = manager ?cache_dir () in
        let ex = Pipeline.Manager.extract m ~name p in
        let report =
          if fix then
            let _pre, outcome, post = Pipeline.Manager.analyze m ex in
            if not outcome.Analysis.Minimize.verified then
              fail "minimizer differential gate failed for %s" name;
            post
          else Analysis.Lint.run ex
        in
        if json then print_endline (Analysis.Lint.report_to_json report)
        else Fmt.pr "%a@." Analysis.Lint.pp_report report;
        match expect with
        | Some `Clean when not (Analysis.Lint.is_clean report) -> exit 1
        | Some `Dirty when Analysis.Lint.is_clean report -> exit 1
        | _ -> ())
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically lint the synthesized model: dead and shadowed entries, action \
          overlaps, unreachable FSM states, unwritable state guards and dead state \
          writes. Dead/Shadowed findings are emitted only when the implication lattice \
          proves them; witnesses are pre-validated against the interpreter.")
    Term.(const run $ json $ fix $ expect $ cache_dir_arg $ nf_arg)

let minimize_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Print the outcome as JSON.") in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the minimized model (Model_io s-expression) to FILE.")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Widen the differential gate to 10k random packets plus flow and churn \
                   workloads; exit non-zero if any rewrite fails to verify.")
  in
  let run json output check cache_dir =
    with_nf (fun name _src p ->
        let m = manager ?cache_dir () in
        let ex = Pipeline.Manager.extract m ~name p in
        let store = Nfactor.Model_interp.initial_store ex in
        let model = ex.Nfactor.Extract.model in
        let pkts =
          if check then
            let ch = Packet.Traffic.churn_gen ~concurrent:64 ~seed:4244 () in
            Verify.Testgen.base_palette
            @ Packet.Traffic.random_stream ~seed:4242 ~n:10_000 ()
            @ Packet.Traffic.flow_stream ~seed:4243 ~flows:200 ~data_pkts:5 ()
            @ List.init 2_000 (fun _ -> Packet.Traffic.churn_next ch)
          else Analysis.Minimize.default_pkts ()
        in
        let o = Analysis.Minimize.run ~pkts ~store model in
        let before = Nfactor.Model.entry_count o.Analysis.Minimize.original in
        let after = Nfactor.Model.entry_count o.Analysis.Minimize.minimized in
        if json then
          Printf.printf
            "{\"nf\": %s, \"entries_before\": %d, \"entries_after\": %d, \
             \"reduction_pct\": %.1f, \"deleted_dead\": %d, \"deleted_shadowed\": %d, \
             \"merged\": %d, \"widened_literals\": %d, \"iterations\": %d, \
             \"verified\": %s, \"trials\": %d}\n"
            (Nfactor.Json.quote name) before after
            (100. *. Analysis.Minimize.reduction o)
            o.Analysis.Minimize.deleted_dead o.Analysis.Minimize.deleted_shadowed
            o.Analysis.Minimize.merged o.Analysis.Minimize.widened_literals
            o.Analysis.Minimize.iterations
            (if o.Analysis.Minimize.verified then "true" else "false")
            o.Analysis.Minimize.trials
        else begin
          Fmt.pr "%s: %d -> %d entries (%.1f%% reduction) in %d iteration(s)@." name
            before after
            (100. *. Analysis.Minimize.reduction o)
            o.Analysis.Minimize.iterations;
          Fmt.pr
            "  dead deleted: %d, shadowed deleted: %d, merged: %d, literals widened: %d@."
            o.Analysis.Minimize.deleted_dead o.Analysis.Minimize.deleted_shadowed
            o.Analysis.Minimize.merged o.Analysis.Minimize.widened_literals;
          Fmt.pr "  differential gate: %s (%d packets)@."
            (if o.Analysis.Minimize.verified then "exact" else "FAILED — original returned")
            o.Analysis.Minimize.trials
        end;
        (match output with
        | Some file ->
            write_file file (Nfactor.Model_io.to_string o.Analysis.Minimize.minimized);
            if not json then Fmt.pr "  minimized model written to %s@." file
        | None -> ());
        if check && not o.Analysis.Minimize.verified then exit 1)
  in
  Cmd.v
    (Cmd.info "minimize"
       ~doc:
         "Superoptimize the model's entry table: delete dead and shadowed entries, merge \
          adjacent same-action entries, widen matches. Every rewrite is proof-validated \
          and the result is gated by a store-exact differential replay; on any failure \
          the original model is returned unchanged.")
    Term.(const run $ json $ output $ check $ cache_dir_arg $ nf_arg)

let synth_all_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the run as JSON (for CI gates).") in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Also run the analyzer pass per NF: lint severity counts, minimized \
                   entry counts and analyzer cache hits.")
  in
  let run json stats cache_dir =
    let m = manager ?cache_dir () in
    let t0 = Unix.gettimeofday () in
    let results =
      List.map
        (fun (e : Nfs.Corpus.entry) ->
          let name = e.Nfs.Corpus.name in
          let ex = Pipeline.Manager.extract_source m ~name (e.Nfs.Corpus.source ()) in
          let text = Nfactor.Model_io.to_string ex.Nfactor.Extract.model in
          let analysis = if stats then Some (Pipeline.Manager.analyze m ex) else None in
          (name, Digest.to_hex (Digest.string text), ex, analysis))
        Nfs.Corpus.all
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let traces = Pipeline.Manager.traces m in
    let misses = List.length (List.filter (fun t -> not (Pipeline.Trace.is_hit t)) traces) in
    if json then begin
      let nf_json =
        List.map
          (fun (name, digest, ex, analysis) ->
            let extra =
              match analysis with
              | None -> ""
              | Some (pre, (o : Analysis.Minimize.outcome), _post) ->
                  let e, w, i = Analysis.Lint.counts pre in
                  Printf.sprintf
                    ", \"lint\": { \"errors\": %d, \"warnings\": %d, \"infos\": %d }, \
                     \"min_entries\": %d, \"min_verified\": %s"
                    e w i
                    (Nfactor.Model.entry_count o.Analysis.Minimize.minimized)
                    (if o.Analysis.Minimize.verified then "true" else "false")
            in
            Printf.sprintf
              "    { \"name\": %s, \"model_md5\": %s, \"entries\": %d, \"paths\": %d%s }"
              (Nfactor.Json.quote name) (Nfactor.Json.quote digest)
              (List.length ex.Nfactor.Extract.model.Nfactor.Model.entries)
              ex.Nfactor.Extract.stats.Symexec.Explore.paths extra)
          results
      in
      let trace_json = List.map (fun t -> "    " ^ Pipeline.Trace.to_json t) traces in
      Printf.printf
        "{\n\
        \  \"cache_dir\": %s,\n\
        \  \"nfs\": [\n%s\n  ],\n\
        \  \"traces\": [\n%s\n  ],\n\
        \  \"passes\": %d,\n\
        \  \"misses\": %d,\n\
        \  \"hit_rate_pct\": %.1f,\n\
        \  \"wall_ms\": %.3f\n\
         }\n"
        (match Pipeline.Manager.cache_dir m with
        | Some d -> Nfactor.Json.quote d
        | None -> "null")
        (String.concat ",\n" nf_json)
        (String.concat ",\n" trace_json)
        (List.length traces) misses
        (Pipeline.Trace.hit_rate traces)
        (wall_s *. 1e3)
    end
    else begin
      if stats then
        Fmt.pr "%-18s %-34s %7s %5s  %-11s %4s@." "NF" "MODEL-MD5" "ENTRIES" "PATHS"
          "LINT(E/W/I)" "MIN"
      else Fmt.pr "%-18s %-34s %7s %5s@." "NF" "MODEL-MD5" "ENTRIES" "PATHS";
      List.iter
        (fun (name, digest, ex, analysis) ->
          let entries = List.length ex.Nfactor.Extract.model.Nfactor.Model.entries in
          let paths = ex.Nfactor.Extract.stats.Symexec.Explore.paths in
          match analysis with
          | Some (pre, (o : Analysis.Minimize.outcome), _post) ->
              let e, w, i = Analysis.Lint.counts pre in
              Fmt.pr "%-18s %-34s %7d %5d  %3d/%d/%d     %4d@." name digest entries paths
                e w i
                (Nfactor.Model.entry_count o.Analysis.Minimize.minimized)
          | None -> Fmt.pr "%-18s %-34s %7d %5d@." name digest entries paths)
        results;
      pp_traces m;
      if stats then begin
        let analyze_traces =
          List.filter (fun t -> t.Pipeline.Trace.pass = "analyze") traces
        in
        let hits = List.length (List.filter Pipeline.Trace.is_hit analyze_traces) in
        Fmt.pr "@.analyzer: %d run(s), %d cache hit(s)@." (List.length analyze_traces) hits
      end;
      Fmt.pr "@.%d NF(s) synthesized in %.1fms (%d pass(es), %d recomputed)@."
        (List.length results) (wall_s *. 1e3) (List.length traces) misses
    end
  in
  Cmd.v
    (Cmd.info "synth-all"
       ~doc:
         "Synthesize the whole corpus through one pass manager, printing per-pass cache \
          traces and model digests. With --cache-dir, a second run replays every stage \
          from the cache.")
    Term.(const run $ json $ stats $ cache_dir_arg)

let main =
  let doc = "Automatic synthesis of NF forwarding models by program analysis (HotNets'16)." in
  Cmd.group (Cmd.info "nfactor" ~version:"1.0.0" ~doc)
    [
      list_cmd; show_cmd; classify_cmd; slice_cmd; extract_cmd; paths_cmd; report_cmd;
      accuracy_cmd; run_cmd; gen_trace_cmd; testgen_cmd; fsm_cmd; export_cmd; import_cmd;
      classes_cmd; compose_cmd; chain_cmd; lint_cmd; minimize_cmd; synth_all_cmd;
    ]

(* Batch-tool GC tuning: synthesis (solver terms, path envs) and cache
   replay (artifact decoding) are allocation-rate-bound, and the
   default 256k-word minor heap spends half the warm-path time in
   collections. A 4M-word nursery is the knee of the curve here. *)
let () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 }
let () = exit (Cmd.eval main)
