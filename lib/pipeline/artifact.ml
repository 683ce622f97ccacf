open Symexec
open Nfactor.Model_io

(* All serializers reuse Model_io's s-expression layer and its term,
   literal and snapshot codecs, so artifacts inherit the same totality
   and re-interning behavior as model files. *)

let atom = function Atom s -> s | s -> err "expected atom" s
let int_atom s = int_of_atom (atom s)
let bool_atom s = bool_of_atom (atom s)

(* ------------------------------------------------------------------ *)
(* StateAlyzer classification                                         *)
(* ------------------------------------------------------------------ *)

let category_tags =
  Statealyzer.Varclass.
    [ (Pkt_var, "pkt"); (Cfg_var, "cfg"); (Ois_var, "ois"); (Log_var, "log");
      (Unused_cfg, "unused-cfg"); (Local, "local") ]

let category_of_tag s =
  match List.find_opt (fun (_, tag) -> tag = s) category_tags with
  | Some (c, _) -> c
  | None -> raise (Parse_error ("unknown category " ^ s))

let classes_to_string (t : Statealyzer.Varclass.t) =
  let feature (v, (f : Statealyzer.Varclass.features)) =
    List
      [
        Atom v;
        Atom (string_of_bool f.Statealyzer.Varclass.persistent);
        Atom (string_of_bool f.Statealyzer.Varclass.top_level);
        Atom (string_of_bool f.Statealyzer.Varclass.updateable);
        Atom (string_of_bool f.Statealyzer.Varclass.output_impacting);
        Atom (string_of_bool f.Statealyzer.Varclass.loop_carried);
      ]
  in
  sexp_to_string
    (List
       [
         Atom "nfactor-classes";
         List [ Atom "pkt-var"; Atom t.Statealyzer.Varclass.pkt_var ];
         List (Atom "features" :: List.map feature t.Statealyzer.Varclass.features);
         List
           (Atom "categories"
           :: List.map
                (fun (v, c) -> List [ Atom v; Atom (List.assoc c category_tags) ])
                t.Statealyzer.Varclass.categories);
         List
           (Atom "pkt-slice"
           :: List.map (fun sid -> Atom (string_of_int sid)) t.Statealyzer.Varclass.pkt_slice);
       ])

let classes_of_string ~canon input =
  match parse_sexp input with
  | List
      [
        Atom "nfactor-classes";
        List [ Atom "pkt-var"; Atom pkt_var ];
        List (Atom "features" :: features);
        List (Atom "categories" :: categories);
        List (Atom "pkt-slice" :: pkt_slice);
      ] ->
      let feature = function
        | List [ Atom v; p; tl; u; oi; lc ] ->
            ( v,
              {
                Statealyzer.Varclass.persistent = bool_atom p;
                top_level = bool_atom tl;
                updateable = bool_atom u;
                output_impacting = bool_atom oi;
                loop_carried = bool_atom lc;
              } )
        | s -> err "bad feature" s
      in
      let category = function
        | List [ Atom v; Atom c ] -> (v, category_of_tag c)
        | s -> err "bad category" s
      in
      let _, loop_body, _ = Nfl.Transform.packet_loop canon in
      {
        Statealyzer.Varclass.pkt_var;
        features = List.map feature features;
        categories = List.map category categories;
        pkt_slice = List.map int_atom pkt_slice;
        loop_body;
        slicing = lazy (Statealyzer.Varclass.slicing_ctx canon);
      }
  | s -> err "not an nfactor-classes document" s

(* ------------------------------------------------------------------ *)
(* Slices                                                             *)
(* ------------------------------------------------------------------ *)

let sids l = List.map (fun sid -> Atom (string_of_int sid)) l

let slices_to_string (sl : Nfactor.Extract.slices) =
  sexp_to_string
    (List
       [
         Atom "nfactor-slices";
         List (Atom "pkt" :: sids sl.Nfactor.Extract.sl_pkt);
         List (Atom "state" :: sids sl.Nfactor.Extract.sl_state);
         List (Atom "union" :: sids sl.Nfactor.Extract.sl_union);
       ])

let slices_of_string ~canon input =
  match parse_sexp input with
  | List
      [
        Atom "nfactor-slices";
        List (Atom "pkt" :: pkt);
        List (Atom "state" :: state);
        List (Atom "union" :: union);
      ] ->
      let union = List.map int_atom union in
      {
        Nfactor.Extract.sl_pkt = List.map int_atom pkt;
        sl_state = List.map int_atom state;
        sl_union = union;
        sl_body = Nfactor.Extract.sliced_body_of_union canon union;
      }
  | s -> err "not an nfactor-slices document" s

(* ------------------------------------------------------------------ *)
(* Exploration result (paths + stats)                                 *)
(* ------------------------------------------------------------------ *)

(* Path environments replicate the same configuration/state terms
   across every path (snort's rule table alone dwarfs the rest of the
   artifact), so the document carries Model_io's shared-term table:
   O(paths + distinct terms) instead of O(paths x term size). *)

let rec sval_to_sexp enc = function
  | Explore.Scalar e -> List [ Atom "scalar"; term enc e ]
  | Explore.Pktv fields -> List [ Atom "pkt"; sexp_of_snapshot enc fields ]
  | Explore.Dictv d -> List [ Atom "dict"; dict enc d ]
  | Explore.Listv vs -> List (Atom "vals" :: List.map (sval_to_sexp enc) vs)

let rec sval_of_sexp child = function
  | List [ Atom "scalar"; e ] -> Explore.Scalar (child e)
  | List [ Atom "pkt"; fields ] -> Explore.Pktv (snapshot_of_sexp child fields)
  | List [ Atom "dict"; d ] -> Explore.Dictv (dict_of child d)
  | List (Atom "vals" :: vs) -> Explore.Listv (List.map (sval_of_sexp child) vs)
  | s -> err "bad sval" s

let sexp_of_path enc (p : Explore.path) =
  List
    [
      Atom "path";
      List (Atom "pc" :: List.map (sexp_of_literal enc) p.Explore.pc);
      List (Atom "trace" :: sids p.Explore.trace);
      List (Atom "sends" :: List.map (sexp_of_snapshot enc) p.Explore.sends);
      List
        (Atom "env"
        :: List.map
             (fun (v, sv) -> List [ Atom v; sval_to_sexp enc sv ])
             (Explore.Smap.bindings p.Explore.env));
      List [ Atom "truncated"; Atom (string_of_bool p.Explore.truncated) ];
    ]

let path_of_sexp child = function
  | List
      [
        Atom "path";
        List (Atom "pc" :: pc);
        List (Atom "trace" :: trace);
        List (Atom "sends" :: sends);
        List (Atom "env" :: env);
        List [ Atom "truncated"; trunc ];
      ] ->
      {
        Explore.pc = List.map (literal_of_sexp child) pc;
        trace = List.map int_atom trace;
        sends = List.map (snapshot_of_sexp child) sends;
        env =
          List.fold_left
            (fun acc binding ->
              match binding with
              | List [ Atom v; sv ] -> Explore.Smap.add v (sval_of_sexp child sv) acc
              | s -> err "bad env binding" s)
            Explore.Smap.empty env;
        truncated = bool_atom trunc;
      }
  | s -> err "bad path" s

let sexp_of_stats (s : Explore.stats) =
  List
    [
      Atom "stats";
      List [ Atom "paths"; Atom (string_of_int s.Explore.paths) ];
      List [ Atom "truncated-paths"; Atom (string_of_int s.Explore.truncated_paths) ];
      List [ Atom "decides"; Atom (string_of_int s.Explore.decides) ];
      List [ Atom "solver-calls"; Atom (string_of_int s.Explore.solver_calls) ];
      List [ Atom "cache-hits"; Atom (string_of_int s.Explore.solver_cache_hits) ];
      List [ Atom "cache-misses"; Atom (string_of_int s.Explore.solver_cache_misses) ];
      List [ Atom "forks"; Atom (string_of_int s.Explore.forks) ];
      List [ Atom "max-fork-depth"; Atom (string_of_int s.Explore.max_fork_depth) ];
      List
        (Atom "fork-depths"
        :: List.map
             (fun (d, n) -> List [ Atom (string_of_int d); Atom (string_of_int n) ])
             (Explore.Imap.bindings s.Explore.fork_depths));
      List [ Atom "overflowed"; Atom (string_of_bool s.Explore.overflowed) ];
      List [ Atom "merges"; Atom (string_of_int s.Explore.merges) ];
      List [ Atom "prunes"; Atom (string_of_int s.Explore.prunes) ];
    ]

let stats_of_sexp = function
  | List
      [
        Atom "stats";
        List [ Atom "paths"; paths ];
        List [ Atom "truncated-paths"; truncated_paths ];
        List [ Atom "decides"; decides ];
        List [ Atom "solver-calls"; solver_calls ];
        List [ Atom "cache-hits"; cache_hits ];
        List [ Atom "cache-misses"; cache_misses ];
        List [ Atom "forks"; forks ];
        List [ Atom "max-fork-depth"; max_fork_depth ];
        List (Atom "fork-depths" :: fork_depths);
        List [ Atom "overflowed"; overflowed ];
        List [ Atom "merges"; merges ];
        List [ Atom "prunes"; prunes ];
      ] ->
      {
        Explore.paths = int_atom paths;
        truncated_paths = int_atom truncated_paths;
        decides = int_atom decides;
        solver_calls = int_atom solver_calls;
        solver_cache_hits = int_atom cache_hits;
        solver_cache_misses = int_atom cache_misses;
        solver_time_s = 0.; (* a replay runs no solver *)
        forks = int_atom forks;
        max_fork_depth = int_atom max_fork_depth;
        fork_depths =
          List.fold_left
            (fun acc b ->
              match b with
              | List [ d; n ] -> Explore.Imap.add (int_atom d) (int_atom n) acc
              | s -> err "bad fork-depth bucket" s)
            Explore.Imap.empty fork_depths;
        overflowed = bool_atom overflowed;
        merges = int_atom merges;
        prunes = int_atom prunes;
      }
  | s -> err "bad stats" s

let paths_to_string ((paths, stats) : Explore.path list * Explore.stats) =
  let enc = encoder () in
  (* Encode the paths first so the term table they reference is
     complete, then emit the table up front for one-pass decoding. *)
  let path_sexps = List.map (sexp_of_path enc) paths in
  sexp_to_string
    (List (Atom "nfactor-paths" :: terms enc :: sexp_of_stats stats :: path_sexps))

let paths_of_string input =
  match parse_sexp input with
  | List (Atom "nfactor-paths" :: terms :: stats :: paths) ->
      let child = table terms in
      (List.map (path_of_sexp child) paths, stats_of_sexp stats)
  | s -> err "not an nfactor-paths document" s

(* ------------------------------------------------------------------ *)
(* Analyzer results (lint reports + minimization outcome)             *)
(* ------------------------------------------------------------------ *)

(* 2: no (original ...) field; the decoder takes the input model *)
let analysis_version = 2

let analysis_to_string
    ((pre, outcome, post) :
      Analysis.Lint.report * Analysis.Minimize.outcome * Analysis.Lint.report) =
  let o = outcome in
  sexp_to_string
    (List
       [
         Atom "nfactor-analysis";
         Atom (string_of_int analysis_version);
         List [ Atom "pre"; Atom (Analysis.Lint.report_to_string pre) ];
         List [ Atom "minimized"; Atom (Nfactor.Model_io.to_string o.Analysis.Minimize.minimized) ];
         List
           [
             Atom "stats";
             Atom (string_of_int o.Analysis.Minimize.deleted_dead);
             Atom (string_of_int o.Analysis.Minimize.deleted_shadowed);
             Atom (string_of_int o.Analysis.Minimize.merged);
             Atom (string_of_int o.Analysis.Minimize.widened_literals);
             Atom (string_of_int o.Analysis.Minimize.iterations);
             Atom (string_of_bool o.Analysis.Minimize.verified);
             Atom (string_of_int o.Analysis.Minimize.trials);
           ];
         List [ Atom "post"; Atom (Analysis.Lint.report_to_string post) ];
       ])

let analysis_of_string ~original input =
  match parse_sexp input with
  | List
      [
        Atom "nfactor-analysis";
        v;
        List [ Atom "pre"; Atom pre ];
        List [ Atom "minimized"; Atom minimized ];
        List [ Atom "stats"; dead; shadowed; merged; widened; iters; verified; trials ];
        List [ Atom "post"; Atom post ];
      ]
    when int_atom v = analysis_version ->
      ( Analysis.Lint.report_of_string pre,
        {
          Analysis.Minimize.original;
          minimized = Nfactor.Model_io.of_string minimized;
          deleted_dead = int_atom dead;
          deleted_shadowed = int_atom shadowed;
          merged = int_atom merged;
          widened_literals = int_atom widened;
          iterations = int_atom iters;
          verified = bool_atom verified;
          trials = int_atom trials;
        },
        Analysis.Lint.report_of_string post )
  | s -> err "not an nfactor-analysis document" s
