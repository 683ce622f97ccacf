(* The cold synthesis front end against its oracles.

   - [Pretty.layout] numbers a program (statement ids, positions,
     [next_sid]) exactly as re-parsing its printed text does, so a cold
     canonicalize (layout) and a warm one (parse of the cached text)
     hand the same program downstream.
   - The bit-vector reaching definitions, data dependences and
     liveness equal the set-based worklist solvers in
     [Dataflow_oracle] on every corpus CFG and on generated programs.
   - String literals survive print -> parse byte for byte. *)

open Nfl
module Sset = Ast.Sset

let canonical (e : Nfs.Corpus.entry) = Nfactor.Extract.ensure_canonical (e.Nfs.Corpus.program ())
let reparse p = Parser.program (Pretty.program p)

(* Same statements (ids, positions, kinds) and [next_sid] as the
   re-parse, and the same text as the plain printer. *)
let layout_agrees p =
  let numbered, text = Pretty.layout p in
  numbered = reparse p && String.equal text (Pretty.program p)

let test_layout_corpus () =
  List.iter
    (fun (e : Nfs.Corpus.entry) ->
      let name = e.Nfs.Corpus.name in
      Alcotest.(check bool) (name ^ ": canonical") true (layout_agrees (canonical e));
      (* The source as parsed: functions, callbacks and nested loops
         exercise the [def] layout lines too. *)
      Alcotest.(check bool) (name ^ ": as parsed") true (layout_agrees (e.Nfs.Corpus.program ())))
    Nfs.Corpus.all

let test_layout_positions () =
  let p = Parser.program "x = 1;\ndef f(a) { return a; }\nmain { if (x) { f(1); } else { pass; } }" in
  let numbered, _ = Pretty.layout p in
  let at = List.map (fun (s : Ast.stmt) -> (s.Ast.sid, s.Ast.pos.Ast.line, s.Ast.pos.Ast.col)) in
  Alcotest.(check (list (triple int int int)))
    "ids, lines and columns" [ (1, 1, 1); (2, 4, 3); (3, 8, 3); (4, 9, 5); (5, 11, 5) ]
    (at (Ast.all_stmts numbered));
  Alcotest.(check int) "next_sid" 6 numbered.Ast.next_sid

let prop_layout_generated =
  QCheck.Test.make ~name:"layout equals re-parse on generated programs" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = Parser.program (Test_properties.gen_program (Packet.Rng.create seed)) in
      layout_agrees p && layout_agrees (Nfactor.Extract.ensure_canonical p))

(* ------------------------------------------------------------------ *)
(* Dataflow                                                           *)
(* ------------------------------------------------------------------ *)

let vars_of_graph g =
  List.fold_left
    (fun acc n ->
      match Cfg.stmt_of g n with
      | Some s -> Sset.union acc (Sset.union (Dataflow.Defs_uses.uses s) (Dataflow.Defs_uses.defs s))
      | None -> acc)
    Sset.empty (Cfg.nodes g)

let check_dataflow ~what ~entry block =
  let g = Cfg.of_block block in
  let vars = Sset.union entry (vars_of_graph g) in
  let oracle_in = Dataflow_oracle.reaching ~entry_defs:entry g in
  let reaching = Dataflow.Reaching.solve ~entry_defs:entry g in
  List.iter
    (fun n ->
      Sset.iter
        (fun v ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s: defs of %s reaching %s" what v (Cfg.node_to_string n))
            (Dataflow_oracle.defs_reaching oracle_in n v)
            (Dataflow.Reaching.defs_reaching reaching n v))
        vars)
    (Cfg.nodes g);
  let ddg = Slicing.Ddg.compute ~entry_defs:entry g in
  List.iter
    (fun (n, srcs) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s: data deps of %s" what (Cfg.node_to_string n))
        (List.map Cfg.node_to_string (Cfg.Nset.elements srcs))
        (List.map Cfg.node_to_string (Cfg.Nset.elements (Slicing.Ddg.deps_of ddg n))))
    (Dataflow_oracle.ddg ~entry_defs:entry g);
  let oracle_live_in, oracle_live_out = Dataflow_oracle.liveness ~live_at_exit:entry g in
  let live = Dataflow.Liveness.solve ~live_at_exit:entry g in
  List.iter
    (fun n ->
      let check dir expect got =
        Alcotest.(check (list string))
          (Printf.sprintf "%s: live %s %s" what dir (Cfg.node_to_string n))
          (Sset.elements expect) (Sset.elements got)
      in
      check "into" (oracle_live_in n) (live.Dataflow.Liveness.live_in n);
      check "out of" (oracle_live_out n) (live.Dataflow.Liveness.live_out n))
    (Cfg.nodes g)

(* The CFGs classification solves over: [main] with the persistent
   variables defined at entry, and the packet-loop body with them live
   at exit; both also with empty boundaries. *)
let check_program ~what (p : Ast.program) =
  let persistent =
    List.fold_left
      (fun acc (s : Ast.stmt) ->
        match s.Ast.kind with Ast.Assign (Ast.L_var x, _) -> Sset.add x acc | _ -> acc)
      Sset.empty p.Ast.globals
  in
  let _, body, _ = Transform.packet_loop p in
  List.iter
    (fun (part, block) ->
      check_dataflow ~what:(what ^ " " ^ part) ~entry:persistent block;
      check_dataflow ~what:(what ^ " " ^ part ^ " (no boundary facts)") ~entry:Sset.empty block)
    [ ("main", p.Ast.main); ("loop body", body) ]

let test_dataflow_corpus () =
  List.iter
    (fun (e : Nfs.Corpus.entry) ->
      check_program ~what:e.Nfs.Corpus.name (fst (Pretty.layout (canonical e))))
    Nfs.Corpus.all

let prop_dataflow_generated =
  QCheck.Test.make ~name:"dataflow equals the set-based oracle on generated programs" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = Parser.program (Test_properties.gen_program (Packet.Rng.create seed)) in
      check_program ~what:(Printf.sprintf "seed %d" seed) p;
      true)

(* ------------------------------------------------------------------ *)
(* String literals                                                    *)
(* ------------------------------------------------------------------ *)

let global_str p =
  match p.Ast.globals with
  | [ { Ast.kind = Ast.Assign (_, Ast.Str s); _ } ] -> s
  | _ -> Alcotest.fail "expected one string global"

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string literal survives print/parse" ~count:500 QCheck.string
    (fun s ->
      let g = Ast.idgen () in
      let p =
        {
          Ast.globals = [ Ast.mk g (Ast.Assign (Ast.L_var "x", Ast.Str s)) ];
          funcs = [];
          main = [];
          next_sid = g.Ast.next;
        }
      in
      String.equal s (global_str (Parser.program (Pretty.program p))))

let test_string_escapes () =
  let lit src = global_str (Parser.program ("x = " ^ src ^ "; main { }")) in
  Alcotest.(check string) "printer escapes" "a\rb\001c\255\b\000" (lit {|"a\rb\001c\255\b\000"|});
  (* A backslash before a non-digit stands for the character itself. *)
  Alcotest.(check string) "identity escape" "x90" (lit {|"\x90"|});
  let src = {|x = "a\rb\001c\xffd"; main { }|} in
  let p = Parser.program src in
  Alcotest.(check string) "canonical text keeps the bytes" (global_str p)
    (global_str (Parser.program (Pretty.program p)));
  let error_at src =
    match Lexer.tokens src with
    | _ -> Alcotest.failf "expected a lexer error on %s" src
    | exception Lexer.Error (_, pos) -> (pos.Ast.line, pos.Ast.col)
  in
  Alcotest.(check (pair int int)) "above 255" (1, 4) (error_at {|x "\256"|});
  Alcotest.(check (pair int int)) "two digits" (2, 4) (error_at "\n \"a\\12\"");
  Alcotest.(check (pair int int)) "lone digit" (1, 2) (error_at {|"\0"|})

let suite =
  [
    Alcotest.test_case "layout equals re-parse on the corpus" `Quick test_layout_corpus;
    Alcotest.test_case "layout positions" `Quick test_layout_positions;
    QCheck_alcotest.to_alcotest prop_layout_generated;
    Alcotest.test_case "dataflow equals the set-based oracle on the corpus" `Quick
      test_dataflow_corpus;
    QCheck_alcotest.to_alcotest prop_dataflow_generated;
    QCheck_alcotest.to_alcotest prop_string_roundtrip;
    Alcotest.test_case "string escapes" `Quick test_string_escapes;
  ]
