(* The match compiler's decision structure (lib/runtime/compile): the
   per-flow FSM level, the interval-splitting value dispatch, scan
   survival for residual-match entries, and first-match-wins — each
   checked both structurally (plan node counts, hit counters) and
   differentially against the reference interpreter. *)

open Symexec
open Nfactor_runtime

let smap_of kvs =
  List.fold_left
    (fun acc (k, v) -> Nfactor.Model_interp.Smap.add k v acc)
    Nfactor.Model_interp.Smap.empty kvs

let lit e = Solver.lit e true
let cmp op a b = lit (Sexpr.mk_bin op a b)
let dport = Sexpr.sym "pkt.dport"
let sport = Sexpr.sym "pkt.sport"

let entry ?(config = []) ?(flow = []) ?(state = []) ?(residual = [])
    ?(action = Nfactor.Model.Forward [ [] ]) ?(update = []) () =
  {
    Nfactor.Model.config;
    flow_match = flow;
    state_match = state;
    residual_match = residual;
    pkt_action = action;
    state_update = update;
    path_sids = [];
    truncated = false;
  }

let model entries =
  {
    Nfactor.Model.nf_name = "synthetic";
    pkt_var = "pkt";
    cfg_vars = [];
    ois_vars = [];
    entries;
  }

(* forward, tagging the packet's sport so outputs identify the entry *)
let tag n = Nfactor.Model.Forward [ [ ("sport", Sexpr.int n) ] ]

let pkt ?(sport = 40000) ~dport () =
  Packet.Pkt.make ~ip_src:(Packet.Addr.ip 10 0 0 1)
    ~ip_dst:(Packet.Addr.ip 10 0 0 2) ~sport ~dport ()

(* Step the interpreter and the engine on the same packet and insist on
   identical fired entry and outputs. Stateless models only — the store
   is not threaded. *)
let check_agree ?(msg = "") m store eng p =
  let r = Nfactor.Model_interp.step m store p in
  let o = Engine.step eng p in
  Alcotest.(check (option int))
    (Printf.sprintf "%sfired (dport=%d)" msg p.Packet.Pkt.dport)
    r.Nfactor.Model_interp.matched o.Engine.fired;
  Alcotest.(check bool)
    (Printf.sprintf "%soutputs (dport=%d)" msg p.Packet.Pkt.dport)
    true
    (List.length r.Nfactor.Model_interp.outputs = List.length o.Engine.outputs
    && List.for_all2 Packet.Pkt.equal r.Nfactor.Model_interp.outputs
         o.Engine.outputs);
  o.Engine.fired

(* Ordered comparisons against integer constants must become one range
   node whose cuts split the line at every constant; the boundary
   packets walk every class (gap below, the cut itself, gap above) and
   must agree with the interpreter on each. *)
let test_interval_split () =
  let m =
    model
      [
        entry ~flow:[ cmp Nfl.Ast.Lt dport (Sexpr.int 100) ] ~action:(tag 1) ();
        entry
          ~flow:
            [ cmp Nfl.Ast.Ge dport (Sexpr.int 100); cmp Nfl.Ast.Le dport (Sexpr.int 999) ]
          ~action:(tag 2) ();
        entry ~flow:[ cmp Nfl.Ast.Eq dport (Sexpr.int 5000) ] ~action:(tag 3) ();
        entry ~flow:[ cmp Nfl.Ast.Gt dport (Sexpr.int 5000) ] ~action:(tag 4) ();
      ]
  in
  let store = smap_of [] in
  let plan = Compile.compile m ~config:store in
  Alcotest.(check bool) "a range node exists" true (plan.Compile.nodes.Compile.n_range >= 1);
  Alcotest.(check int) "all entries dispatched" 4 plan.Compile.indexed;
  let eng = Engine.create plan ~store in
  let boundaries = [ 0; 1; 99; 100; 101; 500; 999; 1000; 4999; 5000; 5001; 65535 ] in
  List.iter (fun d -> ignore (check_agree m store eng (pkt ~dport:d ()))) boundaries;
  (* spot-check the class → entry mapping itself *)
  let fired d = Engine.((step eng (pkt ~dport:d ())).fired) in
  Alcotest.(check (option int)) "dport 99 -> entry 0" (Some 0) (fired 99);
  Alcotest.(check (option int)) "dport 100 -> entry 1" (Some 1) (fired 100);
  Alcotest.(check (option int)) "dport 5000 -> entry 2" (Some 2) (fired 5000);
  Alcotest.(check (option int)) "dport 5001 -> entry 3" (Some 3) (fired 5001);
  Alcotest.(check (option int)) "dport 2000 -> miss" None (fired 2000);
  Alcotest.(check int) "no scan hits" 0 eng.Engine.stats.Engine.scan_hits;
  Alcotest.(check int) "no scan tests" 0 eng.Engine.stats.Engine.scan_tests

(* portknock's per-source stage is the FSM showcase: the plan must
   carry a state node, and under flow traffic every fired packet
   resolves through it — the ordered scan never runs. *)
let test_fsm_partition () =
  let e = Option.get (Nfs.Corpus.find "portknock") in
  let ex =
    Pipeline.Manager.extract (Pipeline.Manager.create ())
      ~name:"portknock" (e.Nfs.Corpus.program ())
  in
  let m = ex.Nfactor.Extract.model in
  let store = Nfactor.Model_interp.initial_store ex in
  let plan = Compile.compile m ~config:store in
  Alcotest.(check bool) "a state node exists" true (plan.Compile.nodes.Compile.n_state >= 1);
  let eng = Engine.create plan ~store in
  (* random traffic rarely hits a knock port — resolve at the dport
     hash; knock-directed traffic must walk the per-source state nodes *)
  let pkts = Packet.Traffic.random_stream ~seed:2016 ~n:2000 () in
  List.iter (fun p -> ignore (Engine.step eng p)) pkts;
  let knock n =
    match Nfactor.Model_interp.Smap.find ("knock" ^ string_of_int n) store with
    | Value.Int p -> p
    | _ -> Alcotest.fail "knock port not an int"
  in
  for i = 0 to 299 do
    ignore
      (Engine.step eng
         (Packet.Pkt.make
            ~ip_src:(Packet.Addr.ip 10 0 0 (1 + (i mod 5)))
            ~ip_dst:(Packet.Addr.ip 10 9 9 9) ~sport:4000
            ~dport:(knock (1 + (i mod 3)))
            ()))
  done;
  let s = eng.Engine.stats in
  Alcotest.(check int) "no scan hits" 0 s.Engine.scan_hits;
  Alcotest.(check int) "no scan tests" 0 s.Engine.scan_tests;
  Alcotest.(check bool) "knock traffic crosses state nodes" true (s.Engine.fsm_hits > 0)

(* Two overlapping entries: the dispatch must preserve entry order
   inside the shared leaf, so the earlier entry wins exactly as the
   interpreter's ordered walk does — in both orderings. *)
let test_first_match_wins () =
  let wide = entry ~flow:[ cmp Nfl.Ast.Lt dport (Sexpr.int 200) ] ~action:(tag 1) () in
  let narrow = entry ~flow:[ cmp Nfl.Ast.Lt dport (Sexpr.int 100) ] ~action:(tag 2) () in
  List.iter
    (fun entries ->
      let m = model entries in
      let store = smap_of [] in
      let eng = Engine.create (Compile.compile m ~config:store) ~store in
      List.iter
        (fun d -> ignore (check_agree m store eng (pkt ~dport:d ())))
        [ 50; 150; 250 ];
      Alcotest.(check (option int)) "overlap fires the first entry" (Some 0)
        Engine.((step eng (pkt ~dport:50 ())).fired))
    [ [ wide; narrow ]; [ narrow; wide ] ]

(* A residual_match marks an entry as not fully classified: it must
   ride through every dispatch class untouched and resolve only by the
   ordered scan (scan attribution), while classified entries around it
   still dispatch — and the interpreter, which ignores residuals, must
   agree on every verdict. *)
let test_residual_scan () =
  let m =
    model
      [
        entry
          ~flow:[ cmp Nfl.Ast.Lt dport (Sexpr.int 100) ]
          ~residual:[ cmp Nfl.Ast.Ge sport (Sexpr.int 0) ]
          ~action:(tag 1) ();
        entry ~flow:[ cmp Nfl.Ast.Ge dport (Sexpr.int 100) ] ~action:(tag 2) ();
      ]
  in
  let store = smap_of [] in
  let plan = Compile.compile m ~config:store in
  Alcotest.(check int) "one entry is scan-only" 1 plan.Compile.scanned;
  Alcotest.(check int) "one entry dispatched" 1 plan.Compile.indexed;
  let eng = Engine.create plan ~store in
  Alcotest.(check (option int)) "residual entry still fires" (Some 0)
    (check_agree m store eng (pkt ~dport:50 ()));
  Alcotest.(check int) "attributed to the scan" 1 eng.Engine.stats.Engine.scan_hits;
  Alcotest.(check (option int)) "classified entry dispatches" (Some 1)
    (check_agree m store eng (pkt ~dport:500 ()));
  Alcotest.(check int) "dispatch hit recorded" 1
    (eng.Engine.stats.Engine.tree_hits + eng.Engine.stats.Engine.index_hits)

(* Random synthetic comparison models: whatever tree the compiler
   builds from random cuts and polarities, it must agree with the
   interpreter packet by packet — constants and ports drawn from the
   same small range so boundaries actually get hit. *)
let prop_random_trees =
  QCheck.Test.make ~name:"property: random range models == interpreter" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let ops = [| Nfl.Ast.Lt; Nfl.Ast.Le; Nfl.Ast.Gt; Nfl.Ast.Ge; Nfl.Ast.Eq; Nfl.Ast.Ne |] in
      let fields = [| dport; sport |] in
      let rand_lit () =
        let op = ops.(Random.State.int rng (Array.length ops)) in
        let f = fields.(Random.State.int rng (Array.length fields)) in
        Solver.lit
          (Sexpr.mk_bin op f (Sexpr.int (Random.State.int rng 64)))
          (Random.State.bool rng)
      in
      let entries =
        List.init
          (1 + Random.State.int rng 4)
          (fun i ->
            entry
              ~flow:(List.init (1 + Random.State.int rng 2) (fun _ -> rand_lit ()))
              ~action:(tag (i + 1)) ())
      in
      let m = model entries in
      let store = smap_of [] in
      let eng = Engine.create (Compile.compile m ~config:store) ~store in
      List.for_all
        (fun _ ->
          let p =
            pkt
              ~sport:(Random.State.int rng 64)
              ~dport:(Random.State.int rng 64)
              ()
          in
          let r = Nfactor.Model_interp.step m store p in
          let o = Engine.step eng p in
          r.Nfactor.Model_interp.matched = o.Engine.fired
          && List.length r.Nfactor.Model_interp.outputs
             = List.length o.Engine.outputs
          && List.for_all2 Packet.Pkt.equal r.Nfactor.Model_interp.outputs
               o.Engine.outputs)
        (List.init 80 Fun.id))

(* Recompile-under-new-config: random knock sequences drive portknock's
   state machine through different FSM partitions; the engine must
   track the interpreter through full runs including the final store. *)
let prop_portknock_configs =
  QCheck.Test.make ~name:"property: portknock dispatch across random configs" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let e = Option.get (Nfs.Corpus.find "portknock") in
      let ex =
        Pipeline.Manager.extract (Pipeline.Manager.create ())
          ~name:"portknock" (e.Nfs.Corpus.program ())
      in
      let m = ex.Nfactor.Extract.model in
      let store0 = Nfactor.Model_interp.initial_store ex in
      let rng = Random.State.make [| seed |] in
      let k1 = 1 + Random.State.int rng 65535
      and k2 = 1 + Random.State.int rng 65535
      and k3 = 1 + Random.State.int rng 65535 in
      let store =
        List.fold_left
          (fun acc (name, v) -> Nfactor.Model_interp.Smap.add name (Value.Int v) acc)
          store0
          [ ("knock1", k1); ("knock2", k2); ("knock3", k3) ]
      in
      let eng = Engine.of_model m ~config:store ~store in
      (* traffic biased onto the knock ports so sequences complete *)
      let dports = [| k1; k2; k3; 22; 443 |] in
      let pkts =
        List.init 300 (fun i ->
            Packet.Pkt.make
              ~ip_src:(Packet.Addr.ip 10 0 0 (1 + (i mod 4)))
              ~ip_dst:(Packet.Addr.ip 10 9 9 9)
              ~sport:(1024 + Random.State.int rng 1000)
              ~dport:dports.(Random.State.int rng (Array.length dports))
              ())
      in
      let ref_store, ref_out = Nfactor.Model_interp.run m ~store ~pkts in
      let outs = Engine.run_batch eng (Array.of_list pkts) in
      List.for_all2
        (fun r (o : Engine.outcome) ->
          List.length r = List.length o.Engine.outputs
          && List.for_all2 Packet.Pkt.equal r o.Engine.outputs)
        ref_out (Array.to_list outs)
      && Nfactor.Model_interp.Smap.equal Value.equal ref_store (Engine.snapshot eng)
      && eng.Engine.stats.Engine.scan_hits = 0)

let suite =
  [
    Alcotest.test_case "interval splitting" `Quick test_interval_split;
    Alcotest.test_case "fsm partition on portknock" `Quick test_fsm_partition;
    Alcotest.test_case "first match wins" `Quick test_first_match_wins;
    Alcotest.test_case "residual entries scan" `Quick test_residual_scan;
    QCheck_alcotest.to_alcotest prop_random_trees;
    QCheck_alcotest.to_alcotest prop_portknock_configs;
  ]
