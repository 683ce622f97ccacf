(** The pass manager: Algorithm 1 (plus runtime compilation) as a
    content-addressed pipeline of cacheable passes.

    Six passes — canonicalize, classify, slice, explore, refine,
    compile — each keyed by a {!Fingerprint.t} over the canonical
    input text, the pass version and parameters, and the upstream
    fingerprints. Artifacts are memoized in-memory for the manager's
    lifetime and, when [cache_dir] is set, persisted through {!Store},
    so a second synthesis of an unchanged NF is a pure cache hit (in
    this or any later session) and an edited NF recomputes only from
    the first dirty stage. The compile pass produces closures and is
    memoized in-memory only; across sessions it is re-derived from the
    cached model.

    A single {!Symexec.Solver.memo} is threaded through every
    exploration the manager runs, so slice↔original and cross-stage
    explorations reuse path-condition verdicts by construction. *)

val passes : string list
(** Pass names, in pipeline order. *)

type t

val create : ?cache_dir:string -> unit -> t
(** A fresh manager (empty in-memory table). [cache_dir] enables the
    persistent artifact store (created on first write). *)

val cache_dir : t -> string option
val solver_memo : t -> Symexec.Solver.memo

val traces : t -> Trace.t list
(** Every pass application so far, in chronological order. *)

val extract :
  ?config:Symexec.Explore.config -> ?merge:bool -> t -> name:string -> Nfl.Ast.program ->
  Nfactor.Extract.result
(** Run (or replay from cache) canonicalize → classify → slice →
    explore → refine and assemble the classic {!Nfactor.Extract.result}
    view. [result.stage_times] carries this invocation's per-pass
    wall-clock (load time on hits); [result.stats] is the recorded
    exploration's statistics whether computed or cached;
    [result.solver_memo] is the manager's shared memo. [merge]
    (default on) enables join-point path merging during exploration
    and participates in the explore-pass fingerprint. *)

val extract_source :
  ?config:Symexec.Explore.config -> ?merge:bool -> t -> name:string -> string ->
  Nfactor.Extract.result
(** Like {!extract} but from NFL source text, keyed on the raw text: a
    warm run replays the canonical program from the cache without even
    parsing the source. Comment-only edits re-run canonicalize (they
    change the raw text) and then hit every downstream stage, since the
    canonical content is unchanged. *)

val plan : t -> Nfactor.Extract.result -> Nfactor_runtime.Compile.t
(** The sixth pass: compile the model against its extraction-time
    initial store. Keyed on the result's [key] (for the manager's own
    extractions, the refine fingerprint, which determines both the
    model and the canonical program the store is read from), so it
    accepts any extraction result: one assembled by {!extract} from
    cached artifacts, or a one-shot {!Nfactor.Extract.run}. *)

val analyze :
  t ->
  Nfactor.Extract.result ->
  Analysis.Lint.report * Analysis.Minimize.outcome * Analysis.Lint.report
(** The seventh pass: lint the synthesized model, minimize its entry
    table ({!Analysis.Minimize}), and lint the minimized table again.
    Keyed like [plan] on the result's [key]; the whole triple
    (reports, original and minimized models, rewrite counters)
    persists through {!Store} like any other artifact. *)
