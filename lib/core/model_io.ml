(** Model serialization.

    The paper's deployment story has NF vendors running NFactor on
    proprietary code and shipping {e only the model} to operators.
    This module is that interchange format: a small s-expression
    encoding of {!Model.t} with a total parser, so models round-trip
    through files and can be consumed by external verification
    tooling. It also owns the term codec that the pipeline's cached
    artifacts reuse.

    Terms are hash-consed with session-local ids ({!Sexpr.id}), so the
    encoding is purely structural: writing renders term structure, and
    parsing rebuilds terms through the interning smart constructors, so
    a parsed model's terms are unique representatives in the {e
    reader's} intern table whatever process wrote the file.

    The format is self-describing and versioned:

    {v
    (nfactor-model (version 3) (name lb)
      (pkt-var pkt) (cfg-vars mode ...) (ois-vars f2b_nat ...)
      (terms (sym pkt.dport) (const (i 80)) (bin == 0 1) ...)
      (entries (entry (config ...) (flow (+ 2)) (state ...) (residual ...)
                      (action ...) (updates ...)) ...))
    v}

    Version 3 writes every distinct term once, in the [terms] table,
    and refers to it by index everywhere else. Versions 1 and 2 (no
    table: each term is written inline as a tree of the same
    definitions; version 1 also lacks [residual]) still parse. *)

open Symexec

(* ------------------------------------------------------------------ *)
(* S-expressions                                                      *)
(* ------------------------------------------------------------------ *)

type sexp = Atom of string | List of sexp list

exception Parse_error of string

(* Atom-alphabet membership is the parser's innermost loop; a 256-entry
   table beats re-scanning the punctuation string per character. *)
let atom_char_table =
  let t = Array.make 256 false in
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || String.contains "_.:+*/%<>=!&|#~?@^-" c
  in
  for i = 0 to 255 do
    t.(i) <- ok (Char.chr i)
  done;
  t

let atom_ok_char c = Array.unsafe_get atom_char_table (Char.code c)

let atom_needs_quotes s =
  s = "" || not (String.for_all atom_ok_char s)

let rec print_sexp buf = function
  | Atom s ->
      if atom_needs_quotes s then Buffer.add_string buf (Printf.sprintf "%S" s)
      else Buffer.add_string buf s
  | List items ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ' ';
          print_sexp buf item)
        items;
      Buffer.add_char buf ')'

let sexp_to_string s =
  let buf = Buffer.create 256 in
  print_sexp buf s;
  Buffer.contents buf

let parse_sexp (input : string) =
  let pos = ref 0 in
  let n = String.length input in
  let peek () = if !pos < n then String.unsafe_get input !pos else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      &&
      match String.unsafe_get input !pos with ' ' | '\n' | '\t' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let parse_quoted () =
    advance ();
    (* opening quote *)
    let b = Buffer.create 16 in
    (* One digit of an OCaml-style decimal escape \DDD. *)
    let digit () =
      match peek () with
      | '0' .. '9' as c ->
          advance ();
          Char.code c - 48
      | _ -> raise (Parse_error "bad \\DDD escape")
    in
    let rec go () =
      if !pos >= n then raise (Parse_error "unterminated string")
      else
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | '0' .. '9' ->
                let d1 = digit () in
                let d2 = digit () in
                let code = (d1 * 100) + (d2 * 10) + digit () in
                if code > 255 then raise (Parse_error (Printf.sprintf "bad escape \\%d" code));
                Buffer.add_char b (Char.chr code)
            | c ->
                advance ();
                Buffer.add_char b
                  (match c with 'n' -> '\n' | 't' -> '\t' | 'b' -> '\b' | 'r' -> '\r' | c -> c));
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Atom (Buffer.contents b)
  in
  let rec parse () =
    skip_ws ();
    if !pos >= n then raise (Parse_error "unexpected end of input")
    else
      match peek () with
      | '(' ->
          advance ();
          let items = ref [] in
          let rec go () =
            skip_ws ();
            if !pos >= n then raise (Parse_error "unterminated list")
            else if peek () = ')' then advance ()
            else begin
              items := parse () :: !items;
              go ()
            end
          in
          go ();
          List (List.rev !items)
      | '"' -> parse_quoted ()
      | ')' -> raise (Parse_error "unexpected ')'")
      | _ ->
          let start = !pos in
          while !pos < n && atom_ok_char (String.unsafe_get input !pos) do
            incr pos
          done;
          if !pos = start then raise (Parse_error (Printf.sprintf "stray character %C" (peek ())));
          Atom (String.sub input start (!pos - start))
  in
  let result = parse () in
  skip_ws ();
  if !pos <> n then raise (Parse_error "trailing input");
  result

let err what s = raise (Parse_error (what ^ ": " ^ sexp_to_string s))

(* Checked atom conversions: a malformed number or flag is a
   [Parse_error] naming the atom, never a bare [Failure]. *)
let int_of_atom s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> raise (Parse_error (Printf.sprintf "bad integer %S" s))

let bool_of_atom s =
  match bool_of_string_opt s with
  | Some b -> b
  | None -> raise (Parse_error (Printf.sprintf "bad boolean %S" s))

(* ------------------------------------------------------------------ *)
(* Value encoding                                                     *)
(* ------------------------------------------------------------------ *)

let rec sexp_of_value = function
  | Value.Int n -> List [ Atom "i"; Atom (string_of_int n) ]
  | Value.Bool b -> List [ Atom "b"; Atom (string_of_bool b) ]
  | Value.Str s -> List [ Atom "s"; Atom s ]
  | Value.Tuple vs -> List (Atom "tuple" :: List.map sexp_of_value vs)
  | Value.List vs -> List (Atom "list" :: List.map sexp_of_value vs)
  | Value.Dict kvs ->
      List
        (Atom "dict"
        :: List.map (fun (k, v) -> List [ sexp_of_value k; sexp_of_value v ]) kvs)
  | Value.Pkt _ -> raise (Parse_error "packets are not serializable model constants")

let rec value_of_sexp = function
  | List [ Atom "i"; Atom n ] -> Value.Int (int_of_atom n)
  | List [ Atom "b"; Atom b ] -> Value.Bool (bool_of_atom b)
  | List [ Atom "s"; Atom s ] -> Value.Str s
  | List (Atom "tuple" :: vs) -> Value.Tuple (List.map value_of_sexp vs)
  | List (Atom "list" :: vs) -> Value.List (List.map value_of_sexp vs)
  | List (Atom "dict" :: kvs) ->
      Value.Dict
        (List.map
           (function
             | List [ k; v ] -> (value_of_sexp k, value_of_sexp v)
             | _ -> raise (Parse_error "bad dict pair"))
           kvs)
  | s -> err "bad value" s

(* ------------------------------------------------------------------ *)
(* Terms                                                              *)
(* ------------------------------------------------------------------ *)

let binop_name op = Nfl.Pretty.binop_str op

let binop_of_name s =
  let table =
    [
      Nfl.Ast.Add; Nfl.Ast.Sub; Nfl.Ast.Mul; Nfl.Ast.Div; Nfl.Ast.Mod; Nfl.Ast.Eq; Nfl.Ast.Ne;
      Nfl.Ast.Lt; Nfl.Ast.Le; Nfl.Ast.Gt; Nfl.Ast.Ge; Nfl.Ast.And; Nfl.Ast.Or; Nfl.Ast.Band;
      Nfl.Ast.Bor; Nfl.Ast.Shl; Nfl.Ast.Shr;
    ]
  in
  match List.find_opt (fun op -> binop_name op = s) table with
  | Some op -> op
  | None -> raise (Parse_error ("unknown operator " ^ s))

(* The term layer is hash-consed, and a document replicates the same
   subterms across its entries (dpi's merged model repeats one large
   [ite] in every entry; path environments repeat the configuration and
   state terms on every path). Terms are therefore written as a DAG:
   one topologically ordered definition table in which each distinct
   term appears exactly once, and every term position elsewhere in the
   document, a definition's children included, is an index into it. *)

type encoder = {
  mutable defs_rev : sexp list;
  index : (int, int) Hashtbl.t;  (* Sexpr.id -> definition index *)
}

let encoder () = { defs_rev = []; index = Hashtbl.create 256 }

let rec term enc e =
  match Hashtbl.find_opt enc.index (Sexpr.id e) with
  | Some i -> Atom (string_of_int i)
  | None ->
      (* Children first: definitions only reference smaller indices. *)
      let def =
        match Sexpr.view e with
        | Sexpr.Const v -> List [ Atom "const"; sexp_of_value v ]
        | Sexpr.Sym s -> List [ Atom "sym"; Atom s ]
        | Sexpr.Bin (op, a, b) -> List [ Atom "bin"; Atom (binop_name op); term enc a; term enc b ]
        | Sexpr.Not a -> List [ Atom "not"; term enc a ]
        | Sexpr.Neg a -> List [ Atom "neg"; term enc a ]
        | Sexpr.Tup es -> List (Atom "tup" :: List.map (term enc) es)
        | Sexpr.Lst es -> List (Atom "lst" :: List.map (term enc) es)
        | Sexpr.Get (a, b) -> List [ Atom "get"; term enc a; term enc b ]
        | Sexpr.Ufun (f, args) -> List (Atom "ufun" :: Atom f :: List.map (term enc) args)
        | Sexpr.Mem (d, k) -> List [ Atom "mem"; dict enc d; term enc k ]
        | Sexpr.Dget (d, k) -> List [ Atom "dget"; dict enc d; term enc k ]
        | Sexpr.Ite (g, a, b) -> List [ Atom "ite"; term enc g; term enc a; term enc b ]
      in
      let i = Hashtbl.length enc.index in
      enc.defs_rev <- def :: enc.defs_rev;
      Hashtbl.replace enc.index (Sexpr.id e) i;
      Atom (string_of_int i)

and dict enc (d : Sexpr.dict_state) =
  List (Atom "dictstate" :: Atom d.Sexpr.base :: writes enc d.Sexpr.writes)

and writes enc ws =
  List.map
    (fun (k, v) ->
      match v with
      | Some value -> List [ Atom "set"; term enc k; term enc value ]
      | None -> List [ Atom "del"; term enc k ])
    ws

let terms enc = List (Atom "terms" :: List.rev enc.defs_rev)

(* Decoding maps one definition onto the smart constructors, which
   re-intern (and re-fold, a no-op for terms the constructors built in
   the first place) in the current session's table. [child] resolves a
   child position: an index into the table in version 3, an inline
   definition in versions 1 and 2. *)
let writes_of child =
  List.map (function
    | List [ Atom "set"; k; v ] -> (child k, Some (child v))
    | List [ Atom "del"; k ] -> (child k, None)
    | s -> err "bad write" s)

let dict_of child = function
  | List (Atom "dictstate" :: Atom base :: ws) -> { Sexpr.base; writes = writes_of child ws }
  | s -> err "bad dict state" s

let of_def child = function
  | List [ Atom "const"; v ] -> Sexpr.const (value_of_sexp v)
  | List [ Atom "sym"; Atom s ] -> Sexpr.sym s
  | List [ Atom "bin"; Atom op; a; b ] -> Sexpr.mk_bin (binop_of_name op) (child a) (child b)
  | List [ Atom "not"; a ] -> Sexpr.mk_not (child a)
  | List [ Atom "neg"; a ] -> Sexpr.mk_neg (child a)
  | List (Atom "tup" :: es) -> Sexpr.mk_tuple (List.map child es)
  | List (Atom "lst" :: es) -> Sexpr.mk_list (List.map child es)
  | List [ Atom "get"; a; b ] -> Sexpr.mk_get (child a) (child b)
  | List (Atom "ufun" :: Atom f :: args) -> Sexpr.mk_ufun f (List.map child args)
  | List [ Atom "mem"; d; k ] -> Sexpr.mk_mem (dict_of child d) (child k)
  | List [ Atom "dget"; d; k ] -> Sexpr.mk_dget (dict_of child d) (child k)
  | List [ Atom "ite"; g; a; b ] -> Sexpr.mk_ite (child g) (child a) (child b)
  | s -> err "bad term" s

(* The table folds left to right; a reference resolves only against
   the already-rebuilt prefix. *)
let table = function
  | List (Atom "terms" :: defs) ->
      let rebuilt = Array.make (List.length defs) Sexpr.tru in
      let filled = ref 0 in
      let child = function
        | Atom i as s ->
            let i = int_of_atom i in
            if i < 0 || i >= !filled then err "bad term reference" s else rebuilt.(i)
        | s -> err "bad term reference" s
      in
      List.iter
        (fun def ->
          rebuilt.(!filled) <- of_def child def;
          incr filled)
        defs;
      child
  | s -> err "bad term table" s

(* ------------------------------------------------------------------ *)
(* Model encoding                                                     *)
(* ------------------------------------------------------------------ *)

let sexp_of_literal enc (l : Solver.literal) =
  List [ Atom (if l.Solver.positive then "+" else "-"); term enc l.Solver.atom ]

let literal_of_sexp child = function
  | List [ Atom "+"; a ] -> Solver.lit (child a) true
  | List [ Atom "-"; a ] -> Solver.lit (child a) false
  | s -> err "bad literal" s

let sexp_of_snapshot enc snap = List (List.map (fun (f, e) -> List [ Atom f; term enc e ]) snap)

let snapshot_of_sexp child = function
  | List fields ->
      List.map (function List [ Atom f; e ] -> (f, child e) | s -> err "bad field" s) fields
  | s -> err "bad snapshot" s

let sexp_of_update enc (v, u) =
  match u with
  | Model.Set_scalar e -> List [ Atom "set-scalar"; Atom v; term enc e ]
  | Model.Dict_ops ops -> List (Atom "dict-ops" :: Atom v :: writes enc ops)

let update_of_sexp child = function
  | List [ Atom "set-scalar"; Atom v; e ] -> (v, Model.Set_scalar (child e))
  | List (Atom "dict-ops" :: Atom v :: ops) -> (v, Model.Dict_ops (writes_of child ops))
  | s -> err "bad update" s

let sexp_of_entry enc (e : Model.entry) =
  let lits tag ls = List (Atom tag :: List.map (sexp_of_literal enc) ls) in
  List
    [
      Atom "entry";
      lits "config" e.Model.config;
      lits "flow" e.Model.flow_match;
      lits "state" e.Model.state_match;
      lits "residual" e.Model.residual_match;
      List
        [
          Atom "action";
          (match e.Model.pkt_action with
          | Model.Drop -> List [ Atom "drop" ]
          | Model.Forward snaps -> List (Atom "forward" :: List.map (sexp_of_snapshot enc) snaps));
        ];
      List (Atom "updates" :: List.map (sexp_of_update enc) e.Model.state_update);
      List (Atom "path" :: List.map (fun sid -> Atom (string_of_int sid)) e.Model.path_sids);
      List [ Atom "truncated"; Atom (string_of_bool e.Model.truncated) ];
    ]

let entry_of_sexp child = function
  | List
      (Atom "entry"
      :: List (Atom "config" :: config)
      :: List (Atom "flow" :: flow)
      :: List (Atom "state" :: state)
      :: rest) -> (
      (* The [residual] clause arrived in version 2; version-1 entries
         lack it and parse with an empty residual. *)
      let residual, rest =
        match rest with
        | List (Atom "residual" :: residual) :: rest -> (residual, rest)
        | _ -> ([], rest)
      in
      match rest with
      | [
       List [ Atom "action"; action ];
       List (Atom "updates" :: updates);
       List (Atom "path" :: path);
       List [ Atom "truncated"; Atom trunc ];
      ] ->
          {
            Model.config = List.map (literal_of_sexp child) config;
            flow_match = List.map (literal_of_sexp child) flow;
            state_match = List.map (literal_of_sexp child) state;
            residual_match = List.map (literal_of_sexp child) residual;
            pkt_action =
              (match action with
              | List [ Atom "drop" ] -> Model.Drop
              | List (Atom "forward" :: snaps) ->
                  Model.Forward (List.map (snapshot_of_sexp child) snaps)
              | s -> err "bad action" s);
            state_update = List.map (update_of_sexp child) updates;
            path_sids =
              List.map
                (function Atom s -> int_of_atom s | _ -> raise (Parse_error "bad sid"))
                path;
            truncated = bool_of_atom trunc;
          }
      | _ -> raise (Parse_error "bad entry body"))
  | s -> err "bad entry" s

let version = 3

(** Serialize a model to its interchange text. *)
let to_string (m : Model.t) =
  let enc = encoder () in
  (* Entries first, so the table they reference is complete, then the
     table up front for one-pass decoding. *)
  let entries = List.map (sexp_of_entry enc) m.Model.entries in
  sexp_to_string
    (List
       [
         Atom "nfactor-model";
         List [ Atom "version"; Atom (string_of_int version) ];
         List [ Atom "name"; Atom m.Model.nf_name ];
         List [ Atom "pkt-var"; Atom m.Model.pkt_var ];
         List (Atom "cfg-vars" :: List.map (fun v -> Atom v) m.Model.cfg_vars);
         List (Atom "ois-vars" :: List.map (fun v -> Atom v) m.Model.ois_vars);
         terms enc;
         List (Atom "entries" :: entries);
       ])

(** Parse a model back.
    @raise Parse_error on malformed or wrong-version input. *)
let of_string input =
  match parse_sexp input with
  | List
      (Atom "nfactor-model"
      :: List [ Atom "version"; Atom v ]
      :: List [ Atom "name"; Atom nf_name ]
      :: List [ Atom "pkt-var"; Atom pkt_var ]
      :: List (Atom "cfg-vars" :: cfg)
      :: List (Atom "ois-vars" :: ois)
      :: body) ->
      let v = int_of_atom v in
      let child, entries =
        match (v, body) with
        | 3, [ terms; List (Atom "entries" :: entries) ] -> (table terms, entries)
        | (1 | 2), [ List (Atom "entries" :: entries) ] ->
            let rec inline s = of_def inline s in
            (inline, entries)
        | (1 | 2 | 3), _ -> raise (Parse_error "bad model body")
        | _ -> raise (Parse_error (Printf.sprintf "unsupported version %d" v))
      in
      let names l =
        List.map (function Atom s -> s | _ -> raise (Parse_error "bad name")) l
      in
      {
        Model.nf_name;
        pkt_var;
        cfg_vars = names cfg;
        ois_vars = names ois;
        entries = List.map (entry_of_sexp child) entries;
      }
  | _ -> raise (Parse_error "not an nfactor-model document")
