(* The content-addressed pass pipeline: cached re-runs must be
   indistinguishable from fresh ones (byte-equal models, identical
   classes/slices), fingerprints must be stable exactly when the
   canonical content and stage parameters are, and a corrupted or
   stale cache entry must be recomputed, never trusted. *)

open Pipeline

let ( / ) = Filename.concat

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.get_temp_dir_name ()
      / Printf.sprintf "nfactor-pipeline-test-%d-%d" (Unix.getpid ()) !counter
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (path / f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

(* The pass applications a thunk caused on manager [m], in order. *)
let traced m f =
  let before = List.length (Manager.traces m) in
  let r = f () in
  let after = Manager.traces m in
  (r, List.filteri (fun i _ -> i >= before) after)

let statuses traces = List.map (fun t -> (t.Trace.pass, t.Trace.status)) traces

let synth_passes = [ "canonicalize"; "classify"; "slice"; "explore"; "refine" ]

let check_statuses what expected traces =
  Alcotest.(check (list (pair string string)))
    what
    (List.map (fun (p, s) -> (p, s)) expected)
    (List.map (fun (p, s) -> (p, Trace.status_to_string s)) (statuses traces))

let all_with_status st = List.map (fun p -> (p, st)) synth_passes

let corpus_nf name =
  let e = Option.get (Nfs.Corpus.find name) in
  (e.Nfs.Corpus.source (), e.Nfs.Corpus.program ())

(* ------------------------------------------------------------------ *)
(* Pipeline output == the stage composition, by hand                  *)
(* ------------------------------------------------------------------ *)

(* The oracle: Algorithm 1 as the five stage functions chained by hand,
   with no fingerprints, no cache and a fresh verdict cache. *)
let stage_oracle ?config ?merge ~name p =
  let open Nfactor.Extract in
  let canon = canonical_stage p in
  let classes = classify_stage canon in
  let slices = slice_stage canon classes in
  let memo = Symexec.Solver.memo_create () in
  let paths, stats = explore_stage ?config ?merge ~memo canon classes slices in
  (refine_stage ~name classes paths, classes, slices, paths, stats)

let check_against_oracle ?config ~merge ~name p =
  let model, classes, slices, paths, stats = stage_oracle ?config ~merge ~name p in
  let ex = Manager.extract ?config ~merge (Manager.create ()) ~name p in
  let what = Printf.sprintf "%s (merge %b): " name merge in
  Alcotest.(check string)
    (what ^ "model text")
    (Nfactor.Model_io.to_string model)
    (Nfactor.Model_io.to_string ex.Nfactor.Extract.model);
  Alcotest.(check bool)
    (what ^ "categories") true
    (classes.Statealyzer.Varclass.categories
    = ex.Nfactor.Extract.classes.Statealyzer.Varclass.categories);
  Alcotest.(check (list int))
    (what ^ "union slice") slices.Nfactor.Extract.sl_union ex.Nfactor.Extract.union_slice;
  Alcotest.(check int) (what ^ "path count") (List.length paths)
    (List.length ex.Nfactor.Extract.paths);
  let st = ex.Nfactor.Extract.stats in
  Alcotest.(check int)
    (what ^ "solver calls") stats.Symexec.Explore.solver_calls st.Symexec.Explore.solver_calls;
  Alcotest.(check int) (what ^ "merges") stats.Symexec.Explore.merges st.Symexec.Explore.merges

let test_pipeline_equals_oracle () =
  List.iter
    (fun (e : Nfs.Corpus.entry) ->
      List.iter
        (fun merge ->
          check_against_oracle ~merge ~name:e.Nfs.Corpus.name (e.Nfs.Corpus.program ()))
        [ true; false ])
    Nfs.Corpus.all;
  for seed = 1 to 50 do
    let p = Nfl.Parser.program (Test_properties.gen_program (Packet.Rng.create seed)) in
    check_against_oracle ~merge:true ~name:(Printf.sprintf "gen-%d" seed) p
  done

(* ------------------------------------------------------------------ *)
(* Warm disk re-run == fresh run, corpus-wide                         *)
(* ------------------------------------------------------------------ *)

let features_eq (a : Statealyzer.Varclass.t) (b : Statealyzer.Varclass.t) =
  a.Statealyzer.Varclass.pkt_var = b.Statealyzer.Varclass.pkt_var
  && a.Statealyzer.Varclass.features = b.Statealyzer.Varclass.features
  && a.Statealyzer.Varclass.categories = b.Statealyzer.Varclass.categories
  && a.Statealyzer.Varclass.pkt_slice = b.Statealyzer.Varclass.pkt_slice

let test_warm_rerun_identical () =
  with_dir @@ fun dir ->
  let cold_results =
    let m = Manager.create ~cache_dir:dir () in
    List.map
      (fun (e : Nfs.Corpus.entry) ->
        let name = e.Nfs.Corpus.name in
        (name, Manager.extract m ~name (e.Nfs.Corpus.program ())))
      Nfs.Corpus.all
  in
  (* A second session over the same cache dir: every synthesis pass is
     a disk hit and every artifact reconstructs identically. *)
  let m2 = Manager.create ~cache_dir:dir () in
  List.iter
    (fun (e : Nfs.Corpus.entry) ->
      let name = e.Nfs.Corpus.name in
      let warm, traces =
        traced m2 (fun () -> Manager.extract m2 ~name (e.Nfs.Corpus.program ()))
      in
      check_statuses (name ^ ": all disk hits") (all_with_status "disk-hit") traces;
      let cold = List.assoc name cold_results in
      Alcotest.(check string)
        (name ^ ": model byte-equal")
        (Nfactor.Model_io.to_string cold.Nfactor.Extract.model)
        (Nfactor.Model_io.to_string warm.Nfactor.Extract.model);
      Alcotest.(check bool)
        (name ^ ": classes identical") true
        (features_eq cold.Nfactor.Extract.classes warm.Nfactor.Extract.classes);
      Alcotest.(check (list int))
        (name ^ ": pkt slice") cold.Nfactor.Extract.pkt_slice warm.Nfactor.Extract.pkt_slice;
      Alcotest.(check (list int))
        (name ^ ": state slice") cold.Nfactor.Extract.state_slice
        warm.Nfactor.Extract.state_slice;
      Alcotest.(check (list int))
        (name ^ ": union slice") cold.Nfactor.Extract.union_slice
        warm.Nfactor.Extract.union_slice;
      Alcotest.(check int)
        (name ^ ": path count")
        (List.length cold.Nfactor.Extract.paths)
        (List.length warm.Nfactor.Extract.paths);
      Alcotest.(check int)
        (name ^ ": recorded stats survive")
        cold.Nfactor.Extract.stats.Symexec.Explore.paths
        warm.Nfactor.Extract.stats.Symexec.Explore.paths)
    Nfs.Corpus.all

(* Warm-loaded extractions must still drive the applications built on
   top of them (the sliced body, program and paths are reconstructed,
   not just the model). *)
let test_warm_extraction_usable () =
  with_dir @@ fun dir ->
  let _, p = corpus_nf "lb" in
  ignore (Manager.extract (Manager.create ~cache_dir:dir ()) ~name:"lb" p);
  let m = Manager.create ~cache_dir:dir () in
  let ex, traces = traced m (fun () -> Manager.extract m ~name:"lb" p) in
  check_statuses "warm" (all_with_status "disk-hit") traces;
  let v = Nfactor.Equiv.random_testing ~seed:11 ~trials:200 ex in
  Alcotest.(check bool) "differential ok on warm extraction" true (Nfactor.Equiv.ok v);
  Alcotest.(check bool) "path sets match" true (Nfactor.Equiv.paths_match ex)

(* ------------------------------------------------------------------ *)
(* In-memory dedup within one manager                                 *)
(* ------------------------------------------------------------------ *)

let test_mem_dedup () =
  let m = Manager.create () in
  let _, p = corpus_nf "balance" in
  let a, t1 = traced m (fun () -> Manager.extract m ~name:"balance" p) in
  check_statuses "first run computes" (all_with_status "miss") t1;
  let b, t2 = traced m (fun () -> Manager.extract m ~name:"balance" p) in
  check_statuses "second run mem-hits" (all_with_status "mem-hit") t2;
  Alcotest.(check string) "same model"
    (Nfactor.Model_io.to_string a.Nfactor.Extract.model)
    (Nfactor.Model_io.to_string b.Nfactor.Extract.model);
  (* The compile pass dedups the same way. *)
  let _, tp1 = traced m (fun () -> Manager.plan m a) in
  let _, tp2 = traced m (fun () -> Manager.plan m b) in
  check_statuses "plan computes once" [ ("compile", "miss") ] tp1;
  check_statuses "plan mem-hits" [ ("compile", "mem-hit") ] tp2

(* ------------------------------------------------------------------ *)
(* Fingerprint stability and sensitivity                              *)
(* ------------------------------------------------------------------ *)

let fingerprints traces = List.map (fun t -> (t.Trace.pass, t.Trace.fingerprint)) traces

let test_fingerprint_stable () =
  let _, p = corpus_nf "lb" in
  let m1 = Manager.create () in
  let m2 = Manager.create () in
  let _, t1 = traced m1 (fun () -> Manager.extract m1 ~name:"lb" p) in
  let _, t2 = traced m2 (fun () -> Manager.extract m2 ~name:"lb" p) in
  Alcotest.(check (list (pair string string)))
    "same source, same fingerprints" (fingerprints t1) (fingerprints t2)

let test_comment_edit_hits_everywhere () =
  with_dir @@ fun dir ->
  let src, _ = corpus_nf "lb" in
  ignore (Manager.extract (Manager.create ~cache_dir:dir ()) ~name:"lb" (Nfl.Parser.program src));
  (* Comment and blank-line edits lex away before the source
     fingerprint is even taken (it digests the parsed AST's text), so
     every pass, canonicalize included, is a disk hit. *)
  let src' = "# cosmetic comment\n\n" ^ src ^ "\n\n# trailing comment\n" in
  let m = Manager.create ~cache_dir:dir () in
  let ex, traces = traced m (fun () -> Manager.extract m ~name:"lb" (Nfl.Parser.program src')) in
  check_statuses "comment edit is invisible" (all_with_status "disk-hit") traces;
  Alcotest.(check bool) "model still validates" true
    (Nfactor.Equiv.ok (Nfactor.Equiv.random_testing ~seed:3 ~trials:100 ex))

let test_cosmetic_edit_hits_from_classify () =
  with_dir @@ fun dir ->
  let src, _ = corpus_nf "lb" in
  ignore (Manager.extract (Manager.create ~cache_dir:dir ()) ~name:"lb" (Nfl.Parser.program src));
  (* A dead helper function changes the parsed AST (so the source
     fingerprint and the canonicalize key move) but is dropped by
     canonicalization: the canonical text is unchanged and everything
     downstream of canonicalize is a disk hit. *)
  let src' =
    Str.global_replace (Str.regexp_string "def pkt_callback")
      "def unused_helper(x) {\n  y = x + 1;\n  return;\n}\n\ndef pkt_callback" src
  in
  Alcotest.(check bool) "edit applies" true (src' <> src);
  let m = Manager.create ~cache_dir:dir () in
  let ex, traces = traced m (fun () -> Manager.extract m ~name:"lb" (Nfl.Parser.program src')) in
  check_statuses "canonicalize recomputes, rest hit"
    (("canonicalize", "miss") :: List.map (fun p -> (p, "disk-hit")) (List.tl synth_passes))
    traces;
  Alcotest.(check bool) "model still validates" true
    (Nfactor.Equiv.ok (Nfactor.Equiv.random_testing ~seed:3 ~trials:100 ex))

let test_semantic_edit_recomputes () =
  with_dir @@ fun dir ->
  let src, _ = corpus_nf "lb" in
  ignore (Manager.extract (Manager.create ~cache_dir:dir ()) ~name:"lb" (Nfl.Parser.program src));
  (* A semantic edit changes the canonical text: nothing downstream may
     be served from the old entries (their keys all move). *)
  let src' = Str.global_replace (Str.regexp_string "10000") "20000" src in
  Alcotest.(check bool) "edit applies" true (src' <> src);
  let m = Manager.create ~cache_dir:dir () in
  let _, traces = traced m (fun () -> Manager.extract m ~name:"lb" (Nfl.Parser.program src')) in
  check_statuses "semantic edit recomputes everything" (all_with_status "miss") traces

let test_param_change_dirty_suffix () =
  with_dir @@ fun dir ->
  let _, p = corpus_nf "balance" in
  ignore (Manager.extract (Manager.create ~cache_dir:dir ()) ~name:"balance" p);
  (* Exploration parameters enter the explore fingerprint: changing the
     loop bound dirties explore and refine only — canonicalize,
     classify and slice still load from disk. *)
  let config =
    { Symexec.Explore.default_config with Symexec.Explore.loop_bound = 3 }
  in
  let m = Manager.create ~cache_dir:dir () in
  let _, traces = traced m (fun () -> Manager.extract m ~config ~name:"balance" p) in
  check_statuses "dirty suffix only"
    [
      ("canonicalize", "disk-hit");
      ("classify", "disk-hit");
      ("slice", "disk-hit");
      ("explore", "miss");
      ("refine", "miss");
    ]
    traces

(* ------------------------------------------------------------------ *)
(* Corruption and staleness                                           *)
(* ------------------------------------------------------------------ *)

let corrupt_artifacts dir ~pass f =
  let hits = ref 0 in
  Array.iter
    (fun file ->
      if
        String.length file > String.length pass
        && String.sub file 0 (String.length pass + 1) = pass ^ "-"
      then begin
        incr hits;
        f (dir / file)
      end)
    (Sys.readdir dir);
  Alcotest.(check bool) ("some " ^ pass ^ " artifact to corrupt") true (!hits > 0)

let test_corrupted_entry_recomputed () =
  with_dir @@ fun dir ->
  let _, p = corpus_nf "lb" in
  let cold = Manager.extract (Manager.create ~cache_dir:dir ()) ~name:"lb" p in
  (* Bit rot in the payload: the header digest catches it. *)
  corrupt_artifacts dir ~pass:"explore" (fun path ->
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "garbage tail";
      close_out oc);
  (* Structural rot in a payload that still matches its digest: the
     decoder rejects it. *)
  corrupt_artifacts dir ~pass:"refine" (fun path ->
      let ic = open_in_bin path in
      let header = input_line ic in
      close_in ic;
      ignore header;
      let payload = "(nfactor-model (version 99) broken" in
      let oc = open_out_bin path in
      Printf.fprintf oc "nfactor-artifact-v1 refine %s %s\n"
        (String.sub (Filename.chop_suffix (Filename.basename path) ".nfart")
           (String.length "refine-")
           32)
        (Digest.to_hex (Digest.string payload));
      output_string oc payload;
      close_out oc);
  let m = Manager.create ~cache_dir:dir () in
  let warm, traces = traced m (fun () -> Manager.extract m ~name:"lb" p) in
  check_statuses "corrupted entries recompute, clean ones hit"
    [
      ("canonicalize", "disk-hit");
      ("classify", "disk-hit");
      ("slice", "disk-hit");
      ("explore", "miss");
      ("refine", "miss");
    ]
    traces;
  Alcotest.(check string) "model identical after recovery"
    (Nfactor.Model_io.to_string cold.Nfactor.Extract.model)
    (Nfactor.Model_io.to_string warm.Nfactor.Extract.model)

let test_stale_header_rejected () =
  with_dir @@ fun dir ->
  let _, p = corpus_nf "balance" in
  ignore (Manager.extract (Manager.create ~cache_dir:dir ()) ~name:"balance" p);
  (* Rename one artifact onto another's key: the embedded pass +
     fingerprint header no longer matches the file name, so the load
     is refused even though the payload digest is intact. *)
  let canon_file = ref None and classes_file = ref None in
  corrupt_artifacts dir ~pass:"canonicalize" (fun path -> canon_file := Some path);
  corrupt_artifacts dir ~pass:"classify" (fun path -> classes_file := Some path);
  let canon_file = Option.get !canon_file and classes_file = Option.get !classes_file in
  let content =
    let ic = open_in_bin canon_file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic; s
  in
  let oc = open_out_bin classes_file in
  output_string oc content;
  close_out oc;
  let m = Manager.create ~cache_dir:dir () in
  let _, traces = traced m (fun () -> Manager.extract m ~name:"balance" p) in
  check_statuses "stale entry recomputes; its dependents were keyed independently"
    [
      ("canonicalize", "disk-hit");
      ("classify", "miss");
      ("slice", "disk-hit");
      ("explore", "disk-hit");
      ("refine", "disk-hit");
    ]
    traces

(* ------------------------------------------------------------------ *)
(* Solver memo threading                                              *)
(* ------------------------------------------------------------------ *)

let test_solver_memo_shared () =
  let m = Manager.create () in
  let _, p = corpus_nf "balance" in
  let ex = Manager.extract m ~name:"balance" p in
  Alcotest.(check bool) "result carries the manager memo" true
    (ex.Nfactor.Extract.solver_memo == Manager.solver_memo m);
  (* The exploration of the unsliced original re-decides the slice's
     branch conditions: with the shared memo those checks hit. *)
  let _, stats = Nfactor.Report.explore_original ~memo:ex.Nfactor.Extract.solver_memo ex in
  Alcotest.(check bool) "original exploration reuses verdicts" true
    (stats.Symexec.Explore.solver_cache_hits > 0)

(* A warm run never explores, so the shared memo stays useful for
   *subsequent* explorations (slice↔original reuse by construction). *)
let test_warm_memo_still_works () =
  with_dir @@ fun dir ->
  let _, p = corpus_nf "balance" in
  ignore (Manager.extract (Manager.create ~cache_dir:dir ()) ~name:"balance" p);
  let m = Manager.create ~cache_dir:dir () in
  let ex = Manager.extract m ~name:"balance" p in
  let _, s1 = Nfactor.Report.explore_slice ~memo:ex.Nfactor.Extract.solver_memo ex in
  let _, s2 = Nfactor.Report.explore_original ~memo:ex.Nfactor.Extract.solver_memo ex in
  Alcotest.(check bool) "second exploration hits the first's verdicts" true
    (s2.Symexec.Explore.solver_cache_hits > 0);
  Alcotest.(check int) "slice re-exploration finds the recorded paths"
    ex.Nfactor.Extract.stats.Symexec.Explore.paths s1.Symexec.Explore.paths

(* ------------------------------------------------------------------ *)
(* Compile pass                                                       *)
(* ------------------------------------------------------------------ *)

let test_plan_agrees_with_interpreter () =
  with_dir @@ fun dir ->
  let _, p = corpus_nf "portknock" in
  ignore (Manager.extract (Manager.create ~cache_dir:dir ()) ~name:"portknock" p);
  let m = Manager.create ~cache_dir:dir () in
  let ex = Manager.extract m ~name:"portknock" p in
  let plan = Manager.plan m ex in
  let store = Nfactor.Model_interp.initial_store ex in
  let pkts = Packet.Traffic.random_stream ~seed:5 ~n:500 () in
  let _, ref_out = Nfactor.Model_interp.run ex.Nfactor.Extract.model ~store ~pkts in
  let eng = Nfactor_runtime.Engine.create plan ~store in
  let outs = Nfactor_runtime.Engine.run_batch eng (Array.of_list pkts) in
  Alcotest.(check bool) "engine == interpreter on warm-loaded model" true
    (List.for_all2
       (fun r (o : Nfactor_runtime.Engine.outcome) ->
         List.length r = List.length o.Nfactor_runtime.Engine.outputs
         && List.for_all2 Packet.Pkt.equal r o.Nfactor_runtime.Engine.outputs)
       ref_out (Array.to_list outs))

(* The compile pass keys on the extraction's derivation: extractions
   that differ in any parameter never share a plan. *)
let test_compile_keys () =
  let m = Manager.create () in
  let src, _ = corpus_nf "dpi" in
  let merged = Manager.extract_source ~merge:true m ~name:"dpi" src in
  let unmerged = Manager.extract_source ~merge:false m ~name:"dpi" src in
  let _, t1 = traced m (fun () -> Manager.plan m merged) in
  let _, t2 = traced m (fun () -> Manager.plan m unmerged) in
  check_statuses "merged compiles" [ ("compile", "miss") ] t1;
  check_statuses "unmerged compiles" [ ("compile", "miss") ] t2;
  Alcotest.(check bool) "fingerprints differ" true
    ((List.hd t1).Trace.fingerprint <> (List.hd t2).Trace.fingerprint)

(* Malformed numbers and flags in artifact and lint-report documents
   raise a [Parse_error] naming the atom, never a bare [Failure]. *)
let test_malformed_artifacts () =
  let _, p = corpus_nf "lb" in
  let ex = Manager.extract (Manager.create ()) ~name:"lb" p in
  let canon = ex.Nfactor.Extract.program in
  let paths = Artifact.paths_to_string (ex.Nfactor.Extract.paths, ex.Nfactor.Extract.stats) in
  let damage pattern by = Str.replace_first (Str.regexp pattern) by paths in
  let slices s = ignore (Artifact.slices_of_string ~canon s) in
  let paths_of s = ignore (Artifact.paths_of_string s) in
  let report s = ignore (Analysis.Lint.report_of_string s) in
  let finding ~entry ~proven =
    Printf.sprintf
      "(lint-report 1 (nf lb) (findings ((entry %s) (kind (dead)) (severity error) (proven %s) \
       (witness ()) (message m))))"
      entry proven
  in
  report (finding ~entry:"3" ~proven:"true");
  List.iter
    (fun (what, decode, text, atom) ->
      match decode text with
      | exception Nfactor.Model_io.Parse_error msg ->
          Alcotest.(check bool)
            (what ^ ": error names " ^ atom)
            true
            (try ignore (Str.search_forward (Str.regexp_string atom) msg 0); true
             with Not_found -> false)
      | exception e -> Alcotest.failf "%s: escaped as %s" what (Printexc.to_string e)
      | () -> Alcotest.failf "%s accepted" what)
    [
      ("slices: non-numeric sid", slices, "(nfactor-slices (pkt 1) (state) (union 1 x2))", "x2");
      ("paths: non-numeric count", paths_of, damage "(paths [0-9]+)" "(paths 1x)", "1x");
      ("paths: non-boolean flag", paths_of, damage "(truncated false)" "(truncated maybe)", "maybe");
      ("report: non-numeric entry", report, finding ~entry:"3x" ~proven:"true", "3x");
      ("report: non-boolean flag", report, finding ~entry:"3" ~proven:"yes", "yes");
    ]

let suite =
  [
    Alcotest.test_case "pipeline == stage oracle" `Quick test_pipeline_equals_oracle;
    Alcotest.test_case "warm re-run identical (corpus)" `Quick test_warm_rerun_identical;
    Alcotest.test_case "warm extraction usable" `Quick test_warm_extraction_usable;
    Alcotest.test_case "in-memory dedup" `Quick test_mem_dedup;
    Alcotest.test_case "compile keys do not collide" `Quick test_compile_keys;
    Alcotest.test_case "fingerprint stability" `Quick test_fingerprint_stable;
    Alcotest.test_case "comment edit hits everywhere" `Quick test_comment_edit_hits_everywhere;
    Alcotest.test_case "cosmetic edit hits from classify" `Quick test_cosmetic_edit_hits_from_classify;
    Alcotest.test_case "semantic edit recomputes" `Quick test_semantic_edit_recomputes;
    Alcotest.test_case "param change dirties the suffix" `Quick test_param_change_dirty_suffix;
    Alcotest.test_case "corrupted entries recomputed" `Quick test_corrupted_entry_recomputed;
    Alcotest.test_case "stale header rejected" `Quick test_stale_header_rejected;
    Alcotest.test_case "malformed artifacts are parse errors" `Quick test_malformed_artifacts;
    Alcotest.test_case "solver memo shared" `Quick test_solver_memo_shared;
    Alcotest.test_case "warm memo still works" `Quick test_warm_memo_still_works;
    Alcotest.test_case "plan pass on warm model" `Quick test_plan_agrees_with_interpreter;
  ]
