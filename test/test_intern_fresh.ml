(* Model_io round-trip across a fresh intern table.

   Term ids are session-local: a serialized model read by a process
   with a different intern table must rebuild structurally identical
   terms through the smart constructors. We simulate the second
   process by resetting the intern table between write and read.

   This lives in its own test executable because
   [Sexpr.unsafe_reset_intern] invalidates every live term's
   interning guarantee — running it inside the main suite would
   corrupt other tests' fixtures. *)

open Symexec
open Nfactor

let extract name =
  let entry = Option.get (Nfs.Corpus.find name) in
  Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name (entry.Nfs.Corpus.program ())

let test_fresh_table_roundtrip () =
  let m = (extract "lb").Extract.model in
  let text = Model_io.to_string m in
  let rendered = Model.to_string m in
  (* Keep structural copies of the old-table atoms; physical identity
     with them is void after the reset, structure is not. *)
  let old_atoms =
    List.concat_map
      (fun (e : Model.entry) ->
        List.map
          (fun (l : Solver.literal) -> l.Solver.atom)
          (e.Model.config @ e.Model.flow_match @ e.Model.state_match
         @ e.Model.residual_match))
      m.Model.entries
  in
  Sexpr.unsafe_reset_intern ();
  let m' = Model_io.of_string text in
  Alcotest.(check string) "renders identically across tables" rendered
    (Model.to_string m');
  let new_atoms =
    List.concat_map
      (fun (e : Model.entry) ->
        List.map
          (fun (l : Solver.literal) -> l.Solver.atom)
          (e.Model.config @ e.Model.flow_match @ e.Model.state_match
         @ e.Model.residual_match))
      m'.Model.entries
  in
  Alcotest.(check int) "same atom census" (List.length old_atoms)
    (List.length new_atoms);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Sexpr.to_string b ^ " structurally equal")
        true (Sexpr.equal_structural a b))
    old_atoms new_atoms;
  (* The fresh table interns the reread model maximally: parsing the
     same text twice yields physically equal terms. *)
  let m'' = Model_io.of_string text in
  List.iter2
    (fun (e' : Model.entry) (e'' : Model.entry) ->
      List.iter2
        (fun (a : Solver.literal) (b : Solver.literal) ->
          Alcotest.(check bool)
            (Sexpr.to_string a.Solver.atom ^ " re-interned")
            true
            (Sexpr.equal a.Solver.atom b.Solver.atom))
        (e'.Model.config @ e'.Model.flow_match @ e'.Model.state_match)
        (e''.Model.config @ e''.Model.flow_match @ e''.Model.state_match))
    m'.Model.entries m''.Model.entries

let test_fresh_table_counts_restart () =
  (* Pinned constants survive the reset; everything else is gone. *)
  ignore (Sexpr.mk_bin Nfl.Ast.Add (Sexpr.sym "a") (Sexpr.sym "b"));
  let before = Sexpr.intern_count () in
  Sexpr.unsafe_reset_intern ();
  let after = Sexpr.intern_count () in
  Alcotest.(check bool) "table shrank" true (after < before);
  (* Constructing the same terms again repopulates deterministically. *)
  let x = Sexpr.mk_bin Nfl.Ast.Add (Sexpr.sym "a") (Sexpr.sym "b") in
  let y = Sexpr.mk_bin Nfl.Ast.Add (Sexpr.sym "a") (Sexpr.sym "b") in
  Alcotest.(check bool) "re-interned shared" true (Sexpr.equal x y)

let () =
  Alcotest.run "intern-fresh"
    [
      ( "fresh-table",
        [
          Alcotest.test_case "model_io roundtrip" `Quick test_fresh_table_roundtrip;
          Alcotest.test_case "reset restarts the table" `Quick
            test_fresh_table_counts_restart;
        ] );
    ]
