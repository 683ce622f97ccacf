open Nfactor
open Symexec

let extract_nf name =
  let entry = Option.get (Nfs.Corpus.find name) in
  Pipeline.Manager.extract (Pipeline.Manager.create ()) ~name (entry.Nfs.Corpus.program ())

(* Round trip: serialized + reparsed model renders identically. *)
let test_roundtrip_all_nfs () =
  List.iter
    (fun name ->
      let m = (extract_nf name).Extract.model in
      let m' = Model_io.of_string (Model_io.to_string m) in
      Alcotest.(check string) (name ^ " roundtrips") (Model.to_string m) (Model.to_string m'))
    Nfs.Corpus.names

(* The reparsed model is behaviourally identical, not just textually:
   drive both through the model interpreter. *)
let test_roundtrip_behaviour () =
  let ex = extract_nf "lb" in
  let m = ex.Extract.model in
  let m' = Model_io.of_string (Model_io.to_string m) in
  let store = Model_interp.initial_store ex in
  let pkts = Packet.Traffic.random_stream ~seed:31337 ~n:300 () in
  let _, out1 = Model_interp.run m ~store ~pkts in
  let _, out2 = Model_interp.run m' ~store ~pkts in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same outputs" true
        (List.length a = List.length b && List.for_all2 Packet.Pkt.equal a b))
    out1 out2

let test_sexp_atom_quoting () =
  (* Strings with spaces/specials survive. *)
  let v = Value.Str "GET /etc/passwd \"x\"\nend" in
  let s = Model_io.sexp_to_string (Model_io.sexp_of_value v) in
  let v' = Model_io.value_of_sexp (Model_io.parse_sexp s) in
  Alcotest.(check bool) "string roundtrip" true (Value.equal v v')

let test_value_roundtrip () =
  let cases =
    [
      Value.Int 42;
      Value.Int (-7);
      Value.Bool true;
      Value.Str "";
      Value.Tuple [ Value.Int 1; Value.Str "a" ];
      Value.List [ Value.Tuple [ Value.Int 1; Value.Int 2 ] ];
      Value.Dict [ (Value.Int 1, Value.Str "x"); (Value.Int 2, Value.Str "y") ];
    ]
  in
  List.iter
    (fun v ->
      let v' = Model_io.value_of_sexp (Model_io.parse_sexp (Model_io.sexp_to_string (Model_io.sexp_of_value v))) in
      Alcotest.(check bool) (Value.to_string v) true (Value.equal v v'))
    cases

(* Encode one component against a fresh table, print and reparse the
   table together with the component, and decode it against the
   rebuilt table. *)
let via_table encode decode x =
  let enc = Model_io.encoder () in
  let r = encode enc x in
  match Model_io.parse_sexp (Model_io.sexp_to_string (Model_io.List [ Model_io.terms enc; r ])) with
  | Model_io.List [ terms; r' ] -> decode (Model_io.table terms) r'
  | _ -> Alcotest.fail "table and component expected"

let test_expr_roundtrip () =
  let d =
    { Sexpr.base = "tbl"; writes = [ (Sexpr.sym "k", Some (Sexpr.int 1)); (Sexpr.sym "q", None) ] }
  in
  let cases =
    [
      Sexpr.sym "pkt.dport";
      Sexpr.mk_bin Nfl.Ast.Add (Sexpr.sym "x") (Sexpr.int 3);
      Sexpr.mk_not (Sexpr.sym "b");
      Sexpr.mk_tuple [ Sexpr.sym "a"; Sexpr.int 2 ];
      Sexpr.mk_get (Sexpr.mk_list [ Sexpr.int 1; Sexpr.int 2 ]) (Sexpr.sym "i");
      Sexpr.mk_ufun "hash" [ Sexpr.sym "x" ];
      Sexpr.mk_mem d (Sexpr.sym "key");
      Sexpr.mk_dget d (Sexpr.mk_tuple [ Sexpr.sym "a"; Sexpr.sym "b" ]);
    ]
  in
  List.iter
    (fun e ->
      let e' = via_table Model_io.term (fun child r -> child r) e in
      Alcotest.(check bool) (Sexpr.to_string e) true (Sexpr.equal e e'))
    cases

let test_v1_document_compat () =
  (* Version-1 entries predate the residual clause; they parse with an
     empty residual_match. *)
  let doc =
    "(nfactor-model (version 1) (name old) (pkt-var pkt) (cfg-vars) (ois-vars) \
     (entries (entry (config) (flow (+ (bin == (sym pkt.dport) (const (i 80))))) \
     (state) (action (drop)) (updates) (path 1 2) (truncated false))))"
  in
  let m = Model_io.of_string doc in
  Alcotest.(check int) "one entry" 1 (List.length m.Model.entries);
  let e = List.hd m.Model.entries in
  Alcotest.(check int) "empty residual" 0 (List.length e.Model.residual_match);
  Alcotest.(check int) "flow kept" 1 (List.length e.Model.flow_match)

let test_residual_roundtrip () =
  let e =
    {
      Model.config = [];
      flow_match = [];
      state_match = [];
      residual_match =
        [ Solver.lit (Sexpr.mk_ufun "crc" [ Sexpr.sym "x" ]) false ];
      pkt_action = Model.Drop;
      state_update = [];
      path_sids = [];
      truncated = false;
    }
  in
  let e' = via_table Model_io.sexp_of_entry Model_io.entry_of_sexp e in
  match e'.Model.residual_match with
  | [ l ] ->
      Alcotest.(check bool) "polarity kept" false l.Solver.positive;
      Alcotest.(check bool) "atom re-interned to the same term" true
        (Sexpr.equal l.Solver.atom (Sexpr.mk_ufun "crc" [ Sexpr.sym "x" ]))
  | _ -> Alcotest.fail "one residual literal expected"

let test_parse_errors () =
  let fails s =
    match Model_io.parse_sexp s with
    | exception Model_io.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" s
  in
  fails "";
  fails "(";
  fails "(a))";
  fails "\"open";
  fails "\"\\999\"";
  fails "\"\\1";
  (match Model_io.of_string "(something-else)" with
  | exception Model_io.Parse_error _ -> ()
  | _ -> Alcotest.fail "wrong document type accepted");
  match
    Model_io.of_string
      "(nfactor-model (version 99) (name x) (pkt-var p) (cfg-vars) (ois-vars) (entries))"
  with
  | exception Model_io.Parse_error _ -> ()
  | _ -> Alcotest.fail "wrong version accepted"

(* Numeric and boolean atoms decode through checked conversions: a
   malformed one is a [Parse_error] naming the atom, never an escaping
   [Failure]. *)
let test_malformed_atoms () =
  let doc ?(version = "2") ?(value = "(i 1)") ?(sid = "3") ?(trunc = "false") () =
    Printf.sprintf
      "(nfactor-model (version %s) (name x) (pkt-var p) (cfg-vars m) (ois-vars) (entries \
       (entry (config (+ (bin == (sym m) (const %s)))) (flow) (state) (residual) \
       (action (drop)) (updates) (path %s) (truncated %s))))"
      version value sid trunc
  in
  ignore (Model_io.of_string (doc ()));
  List.iter
    (fun (what, text, atom) ->
      match Model_io.of_string text with
      | exception Model_io.Parse_error msg ->
          Alcotest.(check bool)
            (what ^ ": error names " ^ atom)
            true
            (try ignore (Str.search_forward (Str.regexp_string atom) msg 0); true
             with Not_found -> false)
      | exception e -> Alcotest.failf "%s: escaped as %s" what (Printexc.to_string e)
      | _ -> Alcotest.failf "%s accepted" what)
    [
      ("version overflow", doc ~version:"99999999999999999999" (), "99999999999999999999");
      ("non-numeric int", doc ~value:"(i abc)" (), "abc");
      ("non-boolean bool", doc ~value:"(b maybe)" (), "maybe");
      ("non-numeric sid", doc ~sid:"s3" (), "s3");
      ("bad truncated flag", doc ~trunc:"perhaps" (), "perhaps");
    ]

let qcheck_sexp_roundtrip =
  (* Random nested sexps, atoms of arbitrary bytes, survive print/parse. *)
  let rec gen depth rng =
    if depth = 0 || Packet.Rng.int rng 3 = 0 then
      Model_io.Atom (String.init (Packet.Rng.int rng 6) (fun _ -> Char.chr (Packet.Rng.int rng 256)))
    else
      Model_io.List (List.init (Packet.Rng.int rng 4) (fun _ -> gen (depth - 1) rng))
  in
  QCheck.Test.make ~name:"model_io: sexp print/parse roundtrip" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Packet.Rng.create seed in
      let s = gen 4 rng in
      Model_io.parse_sexp (Model_io.sexp_to_string s) = s)

(* A model file written by the previous format version (version 2,
   terms inline) reads back as the model a fresh synthesis builds, and
   re-export writes the current version. The file is found next to the
   test executable (the build copies test/data there), so the test
   reads it whatever the working directory; a missing file fails it. *)
let test_v2_file_compat () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat "data" "lb_v2.model")
  in
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let m = Model_io.of_string (String.trim text) in
  Alcotest.(check string) "lb v2 file imports as lb"
    (Model.to_string (extract_nf "lb").Extract.model)
    (Model.to_string m);
  let s = Model_io.to_string m in
  Alcotest.(check bool) "re-export writes version 3" true
    (String.starts_with ~prefix:"(nfactor-model (version 3) " s);
  List.iter
    (fun name ->
      let s = Model_io.to_string (extract_nf name).Extract.model in
      Alcotest.(check string) (name ^ " v3 text is a fixpoint") s
        (Model_io.to_string (Model_io.of_string s)))
    Nfs.Corpus.names

(* Damaged documents, every truncation and a seeded set of single-byte
   flips, either decode or raise [Parse_error]: no other exception
   escapes the reader or the term table (flipped digits make forward
   and out-of-range references). *)
let test_damaged_input () =
  let rng = Packet.Rng.create 2024 in
  let flips = "0123456789() \"\\-+ax" in
  let survives what decode text =
    let attempt label s =
      match decode s with
      | _ | (exception Model_io.Parse_error _) -> ()
      | exception e -> Alcotest.failf "%s, %s: escaped as %s" what label (Printexc.to_string e)
    in
    for len = 0 to String.length text - 1 do
      attempt (Printf.sprintf "truncated to %d bytes" len) (String.sub text 0 len)
    done;
    for _ = 1 to 300 do
      let i = Packet.Rng.int rng (String.length text) in
      let c =
        if Packet.Rng.int rng 4 = 0 then Char.chr (Packet.Rng.int rng 256)
        else flips.[Packet.Rng.int rng (String.length flips)]
      in
      attempt
        (Printf.sprintf "byte %d set to %C" i c)
        (String.mapi (fun j x -> if j = i then c else x) text)
    done
  in
  List.iter
    (fun name ->
      survives name Model_io.of_string (Model_io.to_string (extract_nf name).Extract.model))
    Nfs.Corpus.names;
  let ex = extract_nf "nat" in
  survives "nat paths" Pipeline.Artifact.paths_of_string
    (Pipeline.Artifact.paths_to_string (ex.Extract.paths, ex.Extract.stats))

let suite =
  [
    Alcotest.test_case "model roundtrip (all NFs)" `Quick test_roundtrip_all_nfs;
    Alcotest.test_case "behavioural roundtrip" `Quick test_roundtrip_behaviour;
    Alcotest.test_case "atom quoting" `Quick test_sexp_atom_quoting;
    Alcotest.test_case "value roundtrip" `Quick test_value_roundtrip;
    Alcotest.test_case "expr roundtrip" `Quick test_expr_roundtrip;
    Alcotest.test_case "v1 document compat" `Quick test_v1_document_compat;
    Alcotest.test_case "residual roundtrip" `Quick test_residual_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "malformed atoms are parse errors" `Quick test_malformed_atoms;
    Alcotest.test_case "v2 file compat" `Quick test_v2_file_compat;
    Alcotest.test_case "damaged input is a parse error" `Quick test_damaged_input;
    QCheck_alcotest.to_alcotest qcheck_sexp_roundtrip;
  ]
