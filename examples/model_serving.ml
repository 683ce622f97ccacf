(** Model serving: ship an extracted model and run it fast.

    The paper's pitch is that a vendor synthesizes the model once and
    an operator consumes it without the source. This example walks that
    hand-off end to end: extract a model, export it to the interchange
    format, re-import it in a "fresh" process, compile it into the
    runtime dataplane and replay seeded traffic — checking along the
    way that the compiled engine's outputs and final state are
    identical to the reference interpreter's.

    Run with: [dune exec examples/model_serving.exe] *)

open Nfactor
open Nfactor_runtime

let section title = Fmt.pr "@.=== %s ===@.@." title

let () =
  section "1. Vendor side: synthesize and export the model";
  let ex = Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name:"lb" (Nfs.Lb.program ()) in
  let wire = Model_io.to_string ex.Extract.model in
  Fmt.pr "%d entries serialized to %d bytes of interchange format@."
    (Model.entry_count ex.Extract.model)
    (String.length wire);

  section "2. Operator side: import the shipped model";
  let model = Model_io.of_string wire in
  Fmt.pr "re-imported %s: %d entries, pkt var %S@." model.Model.nf_name
    (Model.entry_count model) model.Model.pkt_var;

  (* The interchange format carries no store; the extraction-time
     initial values stand in for the operator's deployment config. *)
  let store = Model_interp.initial_store ex in

  section "3. Compile into the runtime dataplane";
  let plan = Compile.compile model ~config:store in
  Fmt.pr "%a@." Compile.pp_plan plan;

  section "4. Replay seeded traffic through the engine";
  let n = 20_000 in
  let eng = Engine.create plan ~store in
  let rng = Packet.Rng.create 2016 in
  let next () = Packet.Traffic.random_pkt rng Packet.Traffic.default_profile in
  let secs = Packet.Traffic.time_batches ~next ~n (Engine.run_batch eng) in
  Fmt.pr "%a@." Engine.pp_stats eng;
  Fmt.pr "%d packets in %.2f ms (%.2f Mpps)@." n (secs *. 1e3)
    (float_of_int n /. secs /. 1e6);

  section "5. Differential check against the reference interpreter";
  let pkts = Array.of_list (Packet.Traffic.random_stream ~seed:2016 ~n ()) in
  let v =
    Differential.compare
      ~reference:(Differential.interp model ~store pkts)
      (Differential.engine (Engine.create plan ~store) pkts)
  in
  Fmt.pr "engine vs interpreter (outputs, fired entries, final state): %a@."
    Differential.pp_verdict v;
  if not (Differential.ok v) then exit 1;

  section "6. Bounded flow tables (LRU eviction)";
  let eng3 = Engine.create ~capacity:64 plan ~store in
  ignore (Engine.run_batch eng3 pkts);
  Fmt.pr "with 64-entry tables: %d eviction(s), table sizes bounded@."
    (Flowstate.evictions eng3.Engine.state)
