(* Cross-cutting property-based tests: randomized programs and inputs
   checking the semantic contracts between the analyses.

   The generators build NFL programs that are well-formed by
   construction (variables initialized before use, no division), so
   any failure is a real property violation, not a generator bug. *)

open Symexec

let vars = [ "a"; "b"; "c"; "d" ]

(* Random straight-line/branching packet program:
   - globals initialize every scratch variable and a state dict;
   - the loop body mixes scalar arithmetic, packet-field reads and
     writes, dictionary updates, log noise and conditional sends. *)
let gen_program rng =
  let stmt i =
    match Packet.Rng.int rng 8 with
    | 0 ->
        Printf.sprintf "%s = %s + %d;" (Packet.Rng.pick rng vars) (Packet.Rng.pick rng vars)
          (Packet.Rng.int rng 100)
    | 1 -> Printf.sprintf "%s = pkt.%s;" (Packet.Rng.pick rng vars)
             (Packet.Rng.pick rng [ "dport"; "sport"; "ip_len"; "ip_ttl" ])
    | 2 -> Printf.sprintf "pkt.%s = %s;" (Packet.Rng.pick rng [ "dport"; "ip_ttl" ])
             (Packet.Rng.pick rng vars)
    | 3 -> Printf.sprintf "logc = logc + %s;" (Packet.Rng.pick rng vars)
    | 4 -> Printf.sprintf "tbl[%s] = %s;" (Packet.Rng.pick rng vars) (Packet.Rng.pick rng vars)
    | 5 ->
        Printf.sprintf "if (%s < %d) { %s = %s + 1; }" (Packet.Rng.pick rng vars)
          (Packet.Rng.int rng 200) (Packet.Rng.pick rng vars) (Packet.Rng.pick rng vars)
    | 6 -> Printf.sprintf "log(\"x%d\", %s);" i (Packet.Rng.pick rng vars)
    | _ ->
        let key = Packet.Rng.pick rng vars in
        Printf.sprintf "if (%s in tbl) { %s = tbl[%s]; }" key (Packet.Rng.pick rng vars) key
  in
  let n = 4 + Packet.Rng.int rng 10 in
  let body = String.concat "\n      " (List.init n stmt) in
  let send_guard =
    match Packet.Rng.int rng 3 with
    | 0 -> "send(pkt);"
    | 1 -> Printf.sprintf "if (%s < %d) { send(pkt); }" (Packet.Rng.pick rng vars) (Packet.Rng.int rng 300)
    | _ -> Printf.sprintf "if (pkt.dport == %d) { send(pkt); } else { drop(); }" (Packet.Rng.int rng 100)
  in
  Printf.sprintf
    {|a = 0; b = 1; c = 2; d = 3;
      logc = 0;
      tbl = {};
      main {
        while (true) {
          pkt = recv();
          %s
          %s
        }
      }|}
    body send_guard

let random_packets seed n = Packet.Traffic.random_stream ~seed ~n ()

(* Property 1: the residual program over the packet+state slice sends
   exactly the packets the original sends. *)
let prop_slice_preserves_outputs =
  QCheck.Test.make ~name:"property: slice union preserves outputs" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Packet.Rng.create seed in
      let src = gen_program rng in
      let p = Nfl.Parser.program src in
      let ex = Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name:"rand" p in
      let residual =
        {
          ex.Nfactor.Extract.program with
          Nfl.Ast.main =
            Slicing.Slice.restrict_block ex.Nfactor.Extract.union_slice
              ex.Nfactor.Extract.program.Nfl.Ast.main;
        }
      in
      let pkts = random_packets (seed + 1) 40 in
      let orig = Interp.run ~max_steps:1_000_000 ex.Nfactor.Extract.program ~inputs:pkts in
      let slim = Interp.run ~max_steps:1_000_000 residual ~inputs:pkts in
      List.length orig.Interp.outputs = List.length slim.Interp.outputs
      && List.for_all2 Packet.Pkt.equal orig.Interp.outputs slim.Interp.outputs)

(* Property 2: the extracted model agrees with the program on random
   packets (the accuracy experiment as a universally quantified law). *)
let prop_model_agrees =
  QCheck.Test.make ~name:"property: extracted model == program" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Packet.Rng.create seed in
      let src = gen_program rng in
      let p = Nfl.Parser.program src in
      let ex = Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name:"rand" p in
      let v = Nfactor.Equiv.differential ex ~pkts:(random_packets (seed + 2) 50) in
      Nfactor.Equiv.ok v)

(* Property 3: concrete symbolic execution — exploring with an all-
   concrete environment yields exactly one path whose sends match the
   interpreter. *)
let prop_concrete_exploration_single_path =
  QCheck.Test.make ~name:"property: concrete exploration == interpretation" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Packet.Rng.create seed in
      let src = gen_program rng in
      let p = Nfl.Parser.program src in
      let _, body, pkt_var = Nfl.Transform.packet_loop p in
      let body_no_recv =
        List.filter (fun s -> not (Nfl.Builtins.is_pkt_input_stmt s)) body
      in
      let store = Interp.initial_state p in
      let pkt = List.hd (random_packets (seed + 3) 1) in
      (* Interpreter side. *)
      let sent, _, _ = Interp.step_loop_body ~body ~store ~pkt_var ~pkt () in
      (* Symbolic side with concrete env. *)
      let env =
        Interp.Smap.fold
          (fun k v acc -> Explore.Smap.add k (Explore.sval_of_value v) acc)
          store Explore.Smap.empty
      in
      let env = Explore.Smap.add pkt_var (Explore.sval_of_value (Value.Pkt pkt)) env in
      let paths, stats = Explore.block ~env body_no_recv in
      stats.Explore.forks = 0
      && List.length paths = 1
      &&
      let path = List.hd paths in
      let symbolic_sends =
        List.map
          (fun snap ->
            List.fold_left
              (fun acc (f, e) ->
                match Sexpr.view e with
                | Sexpr.Const (Value.Int n) when Packet.Headers.is_int_field f ->
                    Packet.Pkt.set_int acc f n
                | Sexpr.Const (Value.Str s) when Packet.Headers.is_str_field f ->
                    Packet.Pkt.set_str acc f s
                | _ -> acc)
              pkt snap)
          path.Explore.sends
      in
      List.length sent = List.length symbolic_sends
      && List.for_all2 Packet.Pkt.equal sent symbolic_sends)

(* Property 4: solver anti-monotonicity — a satisfiable conjunction
   stays satisfiable when literals are removed. *)
let gen_literal rng =
  let x = Sexpr.sym (Packet.Rng.pick rng [ "x"; "y"; "z" ]) in
  let c = Sexpr.int (Packet.Rng.int rng 50) in
  let op = Packet.Rng.pick rng [ Nfl.Ast.Eq; Nfl.Ast.Ne; Nfl.Ast.Lt; Nfl.Ast.Le; Nfl.Ast.Gt; Nfl.Ast.Ge ] in
  Solver.lit (Sexpr.mk_bin op x c) (Packet.Rng.bool rng)

let prop_solver_monotone =
  QCheck.Test.make ~name:"property: solver unsat is monotone" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Packet.Rng.create seed in
      let lits = List.init (2 + Packet.Rng.int rng 6) (fun _ -> gen_literal rng) in
      match Solver.check lits with
      | Solver.Sat ->
          (* every prefix must also be Sat *)
          let rec prefixes = function [] -> [ [] ] | _ :: tl as l -> l :: prefixes tl in
          List.for_all (fun sub -> Solver.check sub = Solver.Sat) (prefixes lits)
      | Solver.Unsat -> true)

(* Property 5: solver concretization really satisfies the literals. *)
let prop_concretize_satisfies =
  QCheck.Test.make ~name:"property: concretize satisfies literals" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Packet.Rng.create seed in
      let lits = List.init (1 + Packet.Rng.int rng 5) (fun _ -> gen_literal rng) in
      match Solver.concretize lits with
      | None -> Solver.check lits = Solver.Unsat || true (* incomplete: None only on refutation *)
      | Some m ->
          let subst name =
            match Solver.Smap.find_opt name m with Some v -> Some v | None -> Some (Value.Int 0)
          in
          List.for_all
            (fun (l : Solver.literal) ->
              match Sexpr.view (Sexpr.subst subst l.Solver.atom) with
              | Sexpr.Const (Value.Bool b) -> b = l.Solver.positive
              | _ -> true (* unresolved: nothing to check *))
            lits)

(* Property 6: the model interpreter is a pure function of (store,
   packet). *)
let prop_model_step_deterministic =
  QCheck.Test.make ~name:"property: model step deterministic" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ex =
        Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name:"lb" (Nfs.Lb.program ())
      in
      let store = Nfactor.Model_interp.initial_store ex in
      let pkt = List.hd (random_packets seed 1) in
      let a = Nfactor.Model_interp.step ex.Nfactor.Extract.model store pkt in
      let b = Nfactor.Model_interp.step ex.Nfactor.Extract.model store pkt in
      a.Nfactor.Model_interp.matched = b.Nfactor.Model_interp.matched
      && List.for_all2 Packet.Pkt.equal a.Nfactor.Model_interp.outputs b.Nfactor.Model_interp.outputs)

(* Property 7: pretty-print / parse round trip on whole random
   programs. *)
let prop_program_roundtrip =
  QCheck.Test.make ~name:"property: program print/parse roundtrip" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Packet.Rng.create seed in
      let src = gen_program rng in
      let p1 = Nfl.Parser.program src in
      let p2 = Nfl.Parser.program (Nfl.Pretty.program p1) in
      Nfl.Ast.stmt_count p1 = Nfl.Ast.stmt_count p2
      && Nfl.Pretty.program p1 = Nfl.Pretty.program p2)

(* Property 8: model entries are mutually exclusive — path conditions
   partition the input space, so for any (state, packet) at most one
   entry matches. Checked along a stateful trajectory. *)
let prop_entries_disjoint =
  QCheck.Test.make ~name:"property: model entries mutually exclusive" ~count:30
    QCheck.(pair (int_bound 8) (int_bound 1_000_000))
    (fun (nf_idx, seed) ->
      let entry = List.nth Nfs.Corpus.all (nf_idx mod List.length Nfs.Corpus.all) in
      let ex =
        Pipeline.Manager.extract (Pipeline.Manager.create ())
          ~name:entry.Nfs.Corpus.name (entry.Nfs.Corpus.program ())
      in
      let m = ex.Nfactor.Extract.model in
      let store = ref (Nfactor.Model_interp.initial_store ex) in
      List.for_all
        (fun pkt ->
          let matches =
            List.filter (Nfactor.Model_interp.entry_matches !store pkt) m.Nfactor.Model.entries
          in
          let r = Nfactor.Model_interp.step m !store pkt in
          store := r.Nfactor.Model_interp.store;
          List.length matches <= 1)
        (random_packets seed 60))

(* Property 9: the parser never crashes — malformed input raises only
   the documented exceptions. *)
let prop_parser_total =
  QCheck.Test.make ~name:"property: parser raises only documented errors" ~count:300
    QCheck.(string_gen_of_size (Gen.int_bound 80) Gen.printable)
    (fun junk ->
      match Nfl.Parser.program junk with
      | _ -> true
      | exception Nfl.Parser.Error _ -> true
      | exception Nfl.Lexer.Error _ -> true)

(* Property 10: lexer position monotonicity — token positions never go
   backwards. *)
let prop_lexer_positions_monotone =
  QCheck.Test.make ~name:"property: lexer positions monotone" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Packet.Rng.create seed in
      let src = gen_program rng in
      let toks = Nfl.Lexer.tokens src in
      let rec check = function
        | (_, (a : Nfl.Ast.pos)) :: ((_, (b : Nfl.Ast.pos)) :: _ as rest) ->
            (a.Nfl.Ast.line < b.Nfl.Ast.line
            || (a.Nfl.Ast.line = b.Nfl.Ast.line && a.Nfl.Ast.col <= b.Nfl.Ast.col))
            && check rest
        | _ -> true
      in
      check toks)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_slice_preserves_outputs;
      prop_model_agrees;
      prop_concrete_exploration_single_path;
      prop_solver_monotone;
      prop_concretize_satisfies;
      prop_model_step_deterministic;
      prop_program_roundtrip;
      prop_entries_disjoint;
      prop_parser_total;
      prop_lexer_positions_monotone;
    ]
