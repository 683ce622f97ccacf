open Symexec

let passes =
  [ "canonicalize"; "classify"; "slice"; "explore"; "refine"; "compile"; "analyze" ]

(* Implementation version folded into every pass fingerprint: bump when
   any stage's semantics or artifact encoding changes, so persisted
   caches from older builds read as stale instead of wrong. *)
let stage_version = 6
(* 2: match compiler v2 — FSM/decision-tree dispatch plans
   3: worklist explorer — merge/prune stats fields, ite terms in
      artifacts, join-point merging behind the "merge" param
   4: one term codec — model format v3 (refine, analyze) and Model_io's
      table and snapshot encodings in explore artifacts
   5: analyze artifacts drop the input model (analysis format v2)
   6: explore artifacts drop the wall-clock solver time *)

type artifact =
  | A_canon of (Nfl.Ast.program * string)
      (* the canonical program together with its canonical text, so the
         content fingerprint never needs a fresh pretty-print *)
  | A_classes of Statealyzer.Varclass.t
  | A_slices of Nfactor.Extract.slices
  | A_paths of (Explore.path list * Explore.stats)
  | A_model of Nfactor.Model.t
  | A_plan of Nfactor_runtime.Compile.t
  | A_analysis of (Analysis.Lint.report * Analysis.Minimize.outcome * Analysis.Lint.report)

type t = {
  dir : string option;
  mem : (string, artifact) Hashtbl.t;
  memo : Solver.memo;  (** shared by every exploration this manager runs *)
  mutable trace_log : Trace.t list;  (* newest first *)
}

let create ?cache_dir () =
  { dir = cache_dir; mem = Hashtbl.create 64; memo = Solver.memo_create (); trace_log = [] }

let cache_dir t = t.dir
let solver_memo t = t.memo
let traces t = List.rev t.trace_log

(* One pass application: in-memory table, then (when persistable and a
   cache dir is set) the on-disk store, then compute-and-fill. A decode
   failure of any kind — from bit rot the header digest missed to an
   encoding from an incompatible build — demotes the entry to a miss;
   the cache must never be able to crash or corrupt a synthesis. *)
let run_pass (type a) t ~nf ~pass ~(fp : Fingerprint.t)
    ?(persist : ((a -> string) * (string -> a)) option)
    ~(wrap : a -> artifact) ~(unwrap : artifact -> a option) (compute : unit -> a) : a =
  let key = pass ^ ":" ^ fp in
  let t0 = Unix.gettimeofday () in
  let record status v =
    t.trace_log <-
      { Trace.nf; pass; fingerprint = fp; status; wall_s = Unix.gettimeofday () -. t0 }
      :: t.trace_log;
    v
  in
  match Option.bind (Hashtbl.find_opt t.mem key) unwrap with
  | Some v -> record Trace.Mem_hit v
  | None -> (
      let from_disk =
        match (t.dir, persist) with
        | Some dir, Some (_, decode) -> (
            match Store.load ~dir ~pass ~fp with
            | Some payload -> ( try Some (decode payload) with _ -> None)
            | None -> None)
        | _ -> None
      in
      match from_disk with
      | Some v ->
          Hashtbl.replace t.mem key (wrap v);
          record Trace.Disk_hit v
      | None ->
          let v = compute () in
          Hashtbl.replace t.mem key (wrap v);
          (match (t.dir, persist) with
          | Some dir, Some (encode, _) -> (
              try Store.save ~dir ~pass ~fp (encode v)
              with Sys_error msg -> Fmt.epr "warning: artifact cache write failed: %s@." msg)
          | _ -> ());
          record Trace.Miss v)

let extract_keyed ?(config = Explore.default_config) ?(merge = true) t ~name ~src_fp
    (parse_input : unit -> Nfl.Ast.program) =
  let canon_fp = Fingerprint.combine ~pass:"canonicalize" ~version:stage_version [ src_fp ] in
  let canon, canon_text =
    run_pass t ~nf:name ~pass:"canonicalize" ~fp:canon_fp
      ~persist:((fun (_, text) -> text), fun text -> (Nfl.Parser.program text, text))
      ~wrap:(fun c -> A_canon c)
      ~unwrap:(function A_canon c -> Some c | _ -> None)
      (fun () ->
        (* [canonical_stage] with the canonical text kept: the
           printer's layout numbers the program as parsing that
           text would (a disk hit does parse it), and the tests
           prove the two equal, so cold and warm runs agree. *)
        Nfl.Pretty.layout (Nfactor.Extract.ensure_canonical (parse_input ())))
  in
  (* Downstream keys chain from the canonical *content*: cosmetically
     different sources that canonicalize identically share every
     artifact from classify on. *)
  let content_fp = Fingerprint.of_text canon_text in
  let classes_fp = Fingerprint.combine ~pass:"classify" ~version:stage_version [ content_fp ] in
  let classes =
    run_pass t ~nf:name ~pass:"classify" ~fp:classes_fp
      ~persist:(Artifact.classes_to_string, Artifact.classes_of_string ~canon)
      ~wrap:(fun c -> A_classes c)
      ~unwrap:(function A_classes c -> Some c | _ -> None)
      (fun () -> Nfactor.Extract.classify_stage canon)
  in
  let slices_fp =
    Fingerprint.combine ~pass:"slice" ~version:stage_version [ content_fp; classes_fp ]
  in
  let slices =
    run_pass t ~nf:name ~pass:"slice" ~fp:slices_fp
      ~persist:(Artifact.slices_to_string, Artifact.slices_of_string ~canon)
      ~wrap:(fun sl -> A_slices sl)
      ~unwrap:(function A_slices sl -> Some sl | _ -> None)
      (fun () -> Nfactor.Extract.slice_stage canon classes)
  in
  let explore_fp =
    Fingerprint.combine ~pass:"explore" ~version:stage_version
      ~params:
        [
          ("loop_bound", string_of_int config.Explore.loop_bound);
          ("max_paths", string_of_int config.Explore.max_paths);
          ("max_steps", string_of_int config.Explore.max_steps);
          ("merge", if merge then "on" else "off");
        ]
      [ content_fp; slices_fp ]
  in
  let paths, stats =
    run_pass t ~nf:name ~pass:"explore" ~fp:explore_fp
      ~persist:(Artifact.paths_to_string, Artifact.paths_of_string)
      ~wrap:(fun ps -> A_paths ps)
      ~unwrap:(function A_paths ps -> Some ps | _ -> None)
      (fun () -> Nfactor.Extract.explore_stage ~config ~merge ~memo:t.memo canon classes slices)
  in
  let refine_fp =
    Fingerprint.combine ~pass:"refine" ~version:stage_version
      ~params:[ ("name", name) ]
      [ explore_fp ]
  in
  let model =
    run_pass t ~nf:name ~pass:"refine" ~fp:refine_fp
      ~persist:(Nfactor.Model_io.to_string, Nfactor.Model_io.of_string)
      ~wrap:(fun m -> A_model m)
      ~unwrap:(function A_model m -> Some m | _ -> None)
      (fun () -> Nfactor.Extract.refine_stage ~name classes paths)
  in
  {
    Nfactor.Extract.model;
    classes;
    program = canon;
    pkt_slice = slices.Nfactor.Extract.sl_pkt;
    state_slice = slices.Nfactor.Extract.sl_state;
    union_slice = slices.Nfactor.Extract.sl_union;
    sliced_body = slices.Nfactor.Extract.sl_body;
    paths;
    stats;
    solver_memo = t.memo;
    (* The refine fingerprint chains from the canonical content, so it
       determines the program as well as the model. *)
    key = refine_fp;
  }

let extract ?config ?merge t ~name p =
  extract_keyed ?config ?merge t ~name
    ~src_fp:(Fingerprint.of_text (Nfl.Pretty.program p))
    (fun () -> p)

(* Keying on the raw source text means a warm run never parses the
   source at all: the canonical program comes back from the cache. The
   trade-off is that comment/whitespace edits re-run canonicalize
   (which then content-hits everything downstream), whereas [extract]
   fingerprints the parsed AST and absorbs them one stage earlier. *)
let extract_source ?config ?merge t ~name source =
  extract_keyed ?config ?merge t ~name
    ~src_fp:(Fingerprint.of_text source)
    (fun () -> Nfl.Parser.program source)

(* The downstream passes of an extraction key on its [key], which
   determines both the model and the canonical program the initial
   store is read from. *)
let derived_fp ~pass (ex : Nfactor.Extract.result) =
  Fingerprint.combine ~pass ~version:stage_version [ ex.Nfactor.Extract.key ]

let plan t (ex : Nfactor.Extract.result) =
  let model = ex.Nfactor.Extract.model in
  let fp = derived_fp ~pass:"compile" ex in
  (* Plans contain compiled closures, so this pass is memoized
     in-memory only; across sessions it re-derives from the cached
     model, which is the expensive part to reproduce. *)
  run_pass t ~nf:model.Nfactor.Model.nf_name ~pass:"compile" ~fp
    ~wrap:(fun pl -> A_plan pl)
    ~unwrap:(function A_plan pl -> Some pl | _ -> None)
    (fun () ->
      let store = Nfactor.Model_interp.initial_store ex in
      Nfactor_runtime.Compile.compile model ~config:store)

let analyze t (ex : Nfactor.Extract.result) =
  let model = ex.Nfactor.Extract.model in
  let fp = derived_fp ~pass:"analyze" ex in
  run_pass t ~nf:model.Nfactor.Model.nf_name ~pass:"analyze" ~fp
    ~persist:(Artifact.analysis_to_string, Artifact.analysis_of_string ~original:model)
    ~wrap:(fun a -> A_analysis a)
    ~unwrap:(function A_analysis a -> Some a | _ -> None)
    (fun () ->
      let store = Nfactor.Model_interp.initial_store ex in
      let pre = Analysis.Lint.run ex in
      let outcome = Analysis.Minimize.run ~store model in
      let post =
        Analysis.Lint.model_lint ~ordered:true ~store outcome.Analysis.Minimize.minimized
      in
      (pre, outcome, post))
