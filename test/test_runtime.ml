(* The compiled dataplane (lib/runtime) against the reference
   interpreter: same entry fires, same outputs, same final state, on
   every corpus NF — plus the engine-only behaviors (plan shape, miss
   counters, LRU-bounded stores, the timed batch driver). *)

open Symexec
open Nfactor_runtime

let extractions : (string, Nfactor.Extract.result) Hashtbl.t = Hashtbl.create 16

let extraction name =
  match Hashtbl.find_opt extractions name with
  | Some ex -> ex
  | None ->
      let e = Option.get (Nfs.Corpus.find name) in
      let ex =
        Pipeline.Manager.extract (Pipeline.Manager.create ())
          ~name (e.Nfs.Corpus.program ())
      in
      Hashtbl.add extractions name ex;
      ex

let check_agree = Test_differential.check_agree

(* Engine vs interpreter on seeded traffic: fired entry and emitted
   packets per packet, final store, through the one differential
   check. *)
let differential name ~seed ~n () =
  let ex = extraction name in
  let model = ex.Nfactor.Extract.model in
  let store = Nfactor.Model_interp.initial_store ex in
  let pkts = Array.of_list (Packet.Traffic.random_stream ~seed ~n ()) in
  check_agree name
    ~reference:(Differential.interp model ~store pkts)
    (Differential.engine (Engine.of_model model ~config:store ~store) pkts)

(* The one timed driver ([Packet.Traffic.time_batches]) feeding an
   executor's [run_batch] — the path every throughput number the CLI
   and bench print goes through — must leave the same stores and
   counters (packet counts included) as one [run_batch] over the
   materialized stream, for the single engine, the 2-domain sharded
   engine and a chain (whose counters carry fused walks and injected
   packets). The batch size does not divide [n], so a short last chunk
   is covered too. A subject runs [feed] against a fresh executor,
   [feed] handing it packet arrays through the executor's [run_batch],
   then observes the executor as it stands (an empty batch). *)
let engine_subject name feed =
  let ex = extraction name in
  let store = Nfactor.Model_interp.initial_store ex in
  let e = Engine.create (Compile.compile ex.Nfactor.Extract.model ~config:store) ~store in
  feed (fun pkts -> ignore (Engine.run_batch e pkts));
  Differential.engine e [||]

let shard_subject name feed =
  let ex = extraction name in
  let sh =
    Shard.create ~nshards:2 ex.Nfactor.Extract.model
      ~config:(Nfactor.Model_interp.initial_store ex)
  in
  Fun.protect
    ~finally:(fun () -> Shard.shutdown sh)
    (fun () ->
      feed (fun pkts -> ignore (Shard.run_batch sh pkts));
      Differential.shard sh [||])

let chain_subject names feed =
  let node name =
    let ex = extraction name in
    (name, ex.Nfactor.Extract.model, Nfactor.Model_interp.initial_store ex)
  in
  let c = Chainengine.create (Chainplan.link (List.map node names)) in
  feed (fun pkts -> ignore (Chainengine.run_batch c pkts));
  Differential.chain c [||]

let test_replay_matches_batch () =
  let n = 1000 and seed = 7 in
  let churn () =
    let ch = Packet.Traffic.churn_gen ~concurrent:50 ~seed () in
    fun () -> Packet.Traffic.churn_next ch
  in
  let sources =
    [
      ( "random",
        (fun () ->
          let rng = Packet.Rng.create seed in
          fun () -> Packet.Traffic.random_pkt rng Packet.Traffic.default_profile),
        fun () -> Array.of_list (Packet.Traffic.random_stream ~seed ~n ()) );
      ( "churn",
        churn,
        fun () ->
          let next = churn () in
          Array.init n (fun _ -> next ()) );
    ]
  in
  List.iter
    (fun (subject, run) ->
      List.iter
        (fun (src, next, stream) ->
          let timed =
            run (fun consume ->
                ignore
                  (Packet.Traffic.time_batches ~batch:384 ~next:(next ()) ~n consume))
          in
          let batch = run (fun consume -> consume (stream ())) in
          check_agree (Printf.sprintf "%s, %s traffic" subject src) ~reference:batch timed)
        sources)
    [
      ("engine lb", engine_subject "lb");
      ("engine portknock", engine_subject "portknock");
      ("2-shard nat", shard_subject "nat");
      ("chain firewall,nat,snort", chain_subject [ "firewall"; "nat"; "snort" ]);
    ]

(* Partial evaluation must only ever drop entries whose config is
   statically false; the plan totals have to account for every entry. *)
let test_plan_accounting () =
  List.iter
    (fun (e : Nfs.Corpus.entry) ->
      let name = e.Nfs.Corpus.name in
      let ex = extraction name in
      let model = ex.Nfactor.Extract.model in
      let store = Nfactor.Model_interp.initial_store ex in
      let plan = Compile.compile model ~config:store in
      Alcotest.(check int)
        (name ^ ": live + dropped = entries")
        (Nfactor.Model.entry_count model)
        (plan.Compile.live + plan.Compile.dropped_static);
      let actives = Nfactor.Model_interp.actives model store in
      Alcotest.(check int)
        (name ^ ": live = interpreter actives")
        (List.length actives) plan.Compile.live)
    Nfs.Corpus.all

(* snort's rule dispatch is pure equality tests over cfg-derived
   values: the compiler must index it (that's where the throughput
   comes from), and balance's flow tables likewise. *)
let test_index_used () =
  List.iter
    (fun name ->
      let ex = extraction name in
      let model = ex.Nfactor.Extract.model in
      let store = Nfactor.Model_interp.initial_store ex in
      let plan = Compile.compile model ~config:store in
      Alcotest.(check bool) (name ^ ": some entries indexed") true (plan.Compile.indexed > 0))
    [ "snort"; "balance"; "lb" ]

(* Miss-reason bookkeeping, both in the interpreter and the engine. *)
let test_miss_reasons () =
  let ex = extraction "lb" in
  let model = ex.Nfactor.Extract.model in
  let store = Nfactor.Model_interp.initial_store ex in
  let pkt = List.hd (Packet.Traffic.random_stream ~seed:1 ~n:1 ()) in
  (* no entries at all *)
  let empty = { model with Nfactor.Model.entries = [] } in
  let r = Nfactor.Model_interp.step empty store pkt in
  Alcotest.(check bool) "no entries -> No_entries" true
    (r.Nfactor.Model_interp.miss = Some Nfactor.Model_interp.No_entries);
  (* only the statically-dead entries: config can never hold *)
  let dead =
    List.filter
      (fun (e : Nfactor.Model.entry) ->
        not
          (List.exists
             (fun (a : Nfactor.Model_interp.active) ->
               a.Nfactor.Model_interp.a_entry == e)
             (Nfactor.Model_interp.actives model store)))
      model.Nfactor.Model.entries
  in
  Alcotest.(check bool) "lb has a statically-dead entry" true (dead <> []);
  let dead_model = { model with Nfactor.Model.entries = dead } in
  let r = Nfactor.Model_interp.step dead_model store pkt in
  Alcotest.(check bool) "dead config -> No_active_config" true
    (r.Nfactor.Model_interp.miss = Some Nfactor.Model_interp.No_active_config);
  let eng = Engine.of_model dead_model ~config:store ~store in
  let o = Engine.step eng pkt in
  Alcotest.(check (option int)) "engine drops" None o.Engine.fired;
  Alcotest.(check int) "engine counts miss_no_config" 1
    eng.Engine.stats.Engine.miss_no_config;
  (* a live entry that doesn't match this packet *)
  let live =
    List.filter (fun (e : Nfactor.Model.entry) -> not (List.memq e dead)) model.Nfactor.Model.entries
  in
  let one = { model with Nfactor.Model.entries = [ List.hd live ] } in
  let miss_pkt =
    (* dport 1 matches no lb virtual service *)
    Packet.Pkt.make ~ip_src:(Packet.Addr.ip 10 0 0 1) ~ip_dst:(Packet.Addr.ip 10 0 0 2)
      ~sport:1 ~dport:1 ()
  in
  let r = Nfactor.Model_interp.step one store miss_pkt in
  Alcotest.(check bool) "no match -> No_flow_state_match" true
    (r.Nfactor.Model_interp.miss = Some Nfactor.Model_interp.No_flow_state_match
    || r.Nfactor.Model_interp.matched <> None);
  (match r.Nfactor.Model_interp.miss with
  | Some Nfactor.Model_interp.No_flow_state_match ->
      let eng = Engine.of_model one ~config:store ~store in
      let o = Engine.step eng miss_pkt in
      Alcotest.(check (option int)) "engine drops too" None o.Engine.fired;
      Alcotest.(check int) "engine counts miss_no_match" 1
        eng.Engine.stats.Engine.miss_no_match
  | _ -> ())

(* compile_expr must be extensionally equal to Model_interp.eval —
   exercised on every literal of every corpus model under live stores
   and random packets. *)
let test_compile_expr_parity () =
  List.iter
    (fun (e : Nfs.Corpus.entry) ->
      let name = e.Nfs.Corpus.name in
      let ex = extraction name in
      let model = ex.Nfactor.Extract.model in
      let pkt_var = model.Nfactor.Model.pkt_var in
      let store = Nfactor.Model_interp.initial_store ex in
      let pkts = Packet.Traffic.random_stream ~seed:11 ~n:50 () in
      let atoms =
        List.concat_map
          (fun (en : Nfactor.Model.entry) ->
            List.map
              (fun (l : Solver.literal) -> l.Solver.atom)
              (en.Nfactor.Model.config @ en.Nfactor.Model.flow_match
             @ en.Nfactor.Model.state_match @ en.Nfactor.Model.residual_match))
          model.Nfactor.Model.entries
      in
      let fs = Flowstate.create store in
      List.iter
        (fun atom ->
          let compiled = Compile.compile_expr ~pkt_var atom in
          List.iter
            (fun pkt ->
              let reference =
                match Nfactor.Model_interp.eval ~pkt_var store pkt atom with
                | v -> Ok v
                | exception Nfactor.Model_interp.Unresolved _ -> Error "unresolved"
                | exception Value.Type_error _ -> Error "type"
              in
              let got =
                match compiled fs pkt with
                | v -> Ok v
                | exception Nfactor.Model_interp.Unresolved _ -> Error "unresolved"
                | exception Value.Type_error _ -> Error "type"
              in
              let same =
                match (reference, got) with
                | Ok a, Ok b -> Value.equal a b
                | Error a, Error b -> a = b
                | _ -> false
              in
              if not same then
                Alcotest.failf "%s: compile_expr diverges on %s" name (Sexpr.to_string atom))
            pkts)
        atoms)
    Nfs.Corpus.all

(* Counter JSON is JSON: a model name with a quote and non-ASCII
   bytes comes out escaped per RFC 8259, UTF-8 kept as is. *)
let test_stats_json_escapes_name () =
  let ex = extraction "lb" in
  let model = { ex.Nfactor.Extract.model with Nfactor.Model.nf_name = "caf\"é" } in
  let store = Nfactor.Model_interp.initial_store ex in
  let eng = Engine.create (Compile.compile model ~config:store) ~store in
  let json = Engine.stats_json eng in
  let needle = "\"nf\": \"caf\\\"é\"" in
  let nl = String.length needle in
  let rec at i = i + nl <= String.length json && (String.sub json i nl = needle || at (i + 1)) in
  if not (at 0) then Alcotest.failf "expected %s in %s" needle json

(* Randomized seeds: full-corpus engine == interpreter as a law. *)
let prop_engine_agrees =
  QCheck.Test.make ~name:"property: engine == interpreter on random seeds" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun name ->
          let ex = extraction name in
          let model = ex.Nfactor.Extract.model in
          let store = Nfactor.Model_interp.initial_store ex in
          let pkts = Array.of_list (Packet.Traffic.random_stream ~seed ~n:120 ()) in
          Differential.ok
            (Differential.compare
               ~reference:(Differential.interp model ~store pkts)
               (Differential.engine (Engine.of_model model ~config:store ~store) pkts)))
        [ "lb"; "balance"; "snort"; "nat"; "portknock" ])

let corpus_cases =
  List.concat_map
    (fun (e : Nfs.Corpus.entry) ->
      let name = e.Nfs.Corpus.name in
      [
        Alcotest.test_case (name ^ " differential 1000") `Slow (differential name ~seed:2016 ~n:1000);
        Alcotest.test_case (name ^ " final state 1000") `Slow (differential name ~seed:4242 ~n:1000);
      ])
    Nfs.Corpus.all

let suite =
  corpus_cases
  @ [
      Alcotest.test_case "replay == batch" `Quick test_replay_matches_batch;
      Alcotest.test_case "plan accounting" `Quick test_plan_accounting;
      Alcotest.test_case "index used on snort/balance/lb" `Quick test_index_used;
      Alcotest.test_case "miss reasons" `Quick test_miss_reasons;
      Alcotest.test_case "compile_expr == eval" `Quick test_compile_expr_parity;
      Alcotest.test_case "stats_json escapes the NF name" `Quick test_stats_json_escapes_name;
      QCheck_alcotest.to_alcotest prop_engine_agrees;
    ]
