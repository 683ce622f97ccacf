(** Recursive-descent parser for NFL.

    Precedence (low to high): [or] < [and] < [not] < comparison /
    membership < [|] < [&] < shifts < additive < multiplicative < unary
    < postfix (call, index, field).

    Python-style multiple assignment ([a, b = e1, e2;]) desugars to a
    sequence of simple assignments, matching the paper's Figure-1
    idiom; targets must therefore not appear in later right-hand
    sides. *)

exception Error of string * Ast.pos

(* Tokens are pulled from the lexer on demand through a two-token
   window: [tok] is the current token and [nxt] the one after it
   ([peek2]), each with its start position. *)
type state = {
  lex : Lexer.t;
  mutable tok : Lexer.token;
  mutable tok_pos : Ast.pos;
  mutable nxt : Lexer.token;
  mutable nxt_pos : Ast.pos;
  gen : Ast.idgen;
}

let make src =
  let lex = Lexer.make src in
  let tok = Lexer.next lex in
  let tok_pos = Lexer.tok_pos lex in
  let nxt = Lexer.next lex in
  { lex; tok; tok_pos; nxt; nxt_pos = Lexer.tok_pos lex; gen = Ast.idgen () }

let peek st = st.tok
let peek_pos st = st.tok_pos
let peek2 st = st.nxt

let advance st =
  match st.tok with
  | Lexer.EOF -> ()
  | _ ->
      st.tok <- st.nxt;
      st.tok_pos <- st.nxt_pos;
      st.nxt <- Lexer.next st.lex;
      st.nxt_pos <- Lexer.tok_pos st.lex

let fail st msg =
  raise (Error (Printf.sprintf "%s (got %s)" msg (Lexer.token_to_string (peek st)), peek_pos st))

(* [expect]/[accept] are only ever given payload-free tokens, which are
   immediate values, so physical equality decides them without a
   polymorphic [compare]. *)
let expect st tok msg = if peek st == tok then advance st else fail st ("expected " ^ msg)

let accept st tok =
  if peek st == tok then begin
    advance st;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if accept st Lexer.PIPEPIPE || accept st Lexer.KW_or then
    Ast.Binop (Ast.Or, lhs, parse_or st)
  else lhs

and parse_and st =
  let lhs = parse_not st in
  if accept st Lexer.AMPAMP || accept st Lexer.KW_and then
    Ast.Binop (Ast.And, lhs, parse_and st)
  else lhs

and parse_not st =
  if accept st Lexer.KW_not then Ast.Unop (Ast.Not, parse_not st) else parse_cmp st

and parse_cmp st =
  let lhs = parse_bitor st in
  let op =
    match peek st with
    | Lexer.EQ -> Some Ast.Eq
    | Lexer.NE -> Some Ast.Ne
    | Lexer.LT -> Some Ast.Lt
    | Lexer.LE -> Some Ast.Le
    | Lexer.GT -> Some Ast.Gt
    | Lexer.GE -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | Some op ->
      advance st;
      Ast.Binop (op, lhs, parse_bitor st)
  | None -> (
      match peek st with
      | Lexer.KW_in ->
          advance st;
          Ast.Mem (lhs, parse_bitor st)
      | Lexer.KW_not when peek2 st == Lexer.KW_in ->
          advance st;
          advance st;
          Ast.Unop (Ast.Not, Ast.Mem (lhs, parse_bitor st))
      | _ -> lhs)

(* The left-associative levels loop through [*_rest] helpers that take
   the state as an argument, so no closure is allocated per operand. *)
and parse_bitor st = bitor_rest st (parse_bitand st)

and bitor_rest st lhs =
  match peek st with
  | Lexer.PIPE ->
      advance st;
      bitor_rest st (Ast.Binop (Ast.Bor, lhs, parse_bitand st))
  | _ -> lhs

and parse_bitand st = bitand_rest st (parse_shift st)

and bitand_rest st lhs =
  match peek st with
  | Lexer.AMP ->
      advance st;
      bitand_rest st (Ast.Binop (Ast.Band, lhs, parse_shift st))
  | _ -> lhs

and parse_shift st = shift_rest st (parse_add st)

and shift_rest st lhs =
  match peek st with
  | Lexer.SHL ->
      advance st;
      shift_rest st (Ast.Binop (Ast.Shl, lhs, parse_add st))
  | Lexer.SHR ->
      advance st;
      shift_rest st (Ast.Binop (Ast.Shr, lhs, parse_add st))
  | _ -> lhs

and parse_add st = add_rest st (parse_mul st)

and add_rest st lhs =
  match peek st with
  | Lexer.PLUS ->
      advance st;
      add_rest st (Ast.Binop (Ast.Add, lhs, parse_mul st))
  | Lexer.MINUS ->
      advance st;
      add_rest st (Ast.Binop (Ast.Sub, lhs, parse_mul st))
  | _ -> lhs

and parse_mul st = mul_rest st (parse_unary st)

and mul_rest st lhs =
  match peek st with
  | Lexer.STAR ->
      advance st;
      mul_rest st (Ast.Binop (Ast.Mul, lhs, parse_unary st))
  | Lexer.SLASH ->
      advance st;
      mul_rest st (Ast.Binop (Ast.Div, lhs, parse_unary st))
  | Lexer.PERCENT ->
      advance st;
      mul_rest st (Ast.Binop (Ast.Mod, lhs, parse_unary st))
  | _ -> lhs

and parse_unary st =
  match peek st with
  | Lexer.MINUS ->
      advance st;
      Ast.Unop (Ast.Neg, parse_unary st)
  | Lexer.BANG ->
      advance st;
      Ast.Unop (Ast.Not, parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st = postfix_rest st (parse_atom st)

and postfix_rest st e =
  match peek st with
  | Lexer.LBRACKET ->
      advance st;
      let k = parse_expr st in
      expect st Lexer.RBRACKET "']'";
      postfix_rest st (Ast.Index (e, k))
  | Lexer.DOT -> (
      advance st;
      match peek st with
      | Lexer.ID f ->
          advance st;
          postfix_rest st (Ast.Field (e, f))
      | _ -> fail st "expected field name after '.'")
  | _ -> e

and parse_atom st =
  match peek st with
  | Lexer.INT n ->
      advance st;
      Ast.Int n
  | Lexer.STR s ->
      advance st;
      Ast.Str s
  | Lexer.KW_true ->
      advance st;
      Ast.Bool true
  | Lexer.KW_false ->
      advance st;
      Ast.Bool false
  | Lexer.ID name ->
      advance st;
      if accept st Lexer.LPAREN then begin
        let args = if peek st == Lexer.RPAREN then [] else parse_expr_list st in
        expect st Lexer.RPAREN "')'";
        Ast.Call (name, args)
      end
      else Ast.Var name
  | Lexer.LPAREN ->
      advance st;
      let e = parse_expr st in
      if accept st Lexer.COMMA then begin
        let rest = if peek st == Lexer.RPAREN then [] else parse_expr_list st in
        expect st Lexer.RPAREN "')'";
        Ast.Tuple (e :: rest)
      end
      else begin
        expect st Lexer.RPAREN "')'";
        e
      end
  | Lexer.LBRACKET ->
      advance st;
      let es = if peek st == Lexer.RBRACKET then [] else parse_expr_list st in
      expect st Lexer.RBRACKET "']'";
      Ast.List_lit es
  | Lexer.LBRACE ->
      advance st;
      expect st Lexer.RBRACE "'}' (only empty dict literals exist)";
      Ast.Dict_lit
  | _ -> fail st "expected expression"

and parse_expr_list st =
  let e = parse_expr st in
  if accept st Lexer.COMMA then e :: parse_expr_list st else [ e ]

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

let lvalue_of_expr st = function
  | Ast.Var x -> Ast.L_var x
  | Ast.Index (Ast.Var d, k) -> Ast.L_index (d, k)
  | Ast.Field (Ast.Var p, f) -> Ast.L_field (p, f)
  | _ -> fail st "invalid assignment target"

let mk st pos kind : Ast.stmt = { sid = Ast.fresh_sid st.gen; pos; kind }

let rec parse_stmt st : Ast.stmt list =
  let pos = peek_pos st in
  match peek st with
  | Lexer.KW_if -> [ parse_if st pos ]
  | Lexer.KW_while ->
      advance st;
      expect st Lexer.LPAREN "'('";
      let cond = parse_expr st in
      expect st Lexer.RPAREN "')'";
      let body = parse_block st in
      [ mk st pos (Ast.While (cond, body)) ]
  | Lexer.KW_for -> (
      advance st;
      match peek st with
      | Lexer.ID x ->
          advance st;
          expect st Lexer.KW_in "'in'";
          let e = parse_expr st in
          let body = parse_block st in
          [ mk st pos (Ast.For_in (x, e, body)) ]
      | _ -> fail st "expected loop variable")
  | Lexer.KW_return ->
      advance st;
      let e = if peek st == Lexer.SEMI then None else Some (parse_expr st) in
      expect st Lexer.SEMI "';'";
      [ mk st pos (Ast.Return e) ]
  | Lexer.KW_del -> (
      advance st;
      match peek st with
      | Lexer.ID d ->
          advance st;
          expect st Lexer.LBRACKET "'['";
          let k = parse_expr st in
          expect st Lexer.RBRACKET "']'";
          expect st Lexer.SEMI "';'";
          [ mk st pos (Ast.Delete (d, k)) ]
      | _ -> fail st "expected dictionary name after 'del'")
  | Lexer.KW_pass ->
      advance st;
      expect st Lexer.SEMI "';'";
      [ mk st pos Ast.Pass ]
  | _ -> parse_simple_stmt st pos

and parse_if st pos =
  expect st Lexer.KW_if "'if'";
  expect st Lexer.LPAREN "'('";
  let cond = parse_expr st in
  expect st Lexer.RPAREN "')'";
  let then_b = parse_block st in
  let else_b =
    if accept st Lexer.KW_else then
      if peek st == Lexer.KW_if then [ parse_if st (peek_pos st) ] else parse_block st
    else []
  in
  mk st pos (Ast.If (cond, then_b, else_b))

and parse_simple_stmt st pos =
  let first = parse_expr st in
  match peek st with
  | Lexer.ASSIGN | Lexer.COMMA ->
      (* One or more targets. *)
      let rec targets acc =
        if accept st Lexer.COMMA then targets (parse_expr st :: acc) else List.rev acc
      in
      let tgt_exprs = targets [ first ] in
      expect st Lexer.ASSIGN "'='";
      let rhs = parse_expr_list st in
      expect st Lexer.SEMI "';'";
      if List.length tgt_exprs <> List.length rhs then
        fail st "assignment arity mismatch";
      List.map2
        (fun t e -> mk st pos (Ast.Assign (lvalue_of_expr st t, e)))
        tgt_exprs rhs
  | Lexer.PLUS_EQ ->
      advance st;
      let e = parse_expr st in
      expect st Lexer.SEMI "';'";
      let lv = lvalue_of_expr st first in
      [ mk st pos (Ast.Assign (lv, Ast.Binop (Ast.Add, first, e))) ]
  | Lexer.MINUS_EQ ->
      advance st;
      let e = parse_expr st in
      expect st Lexer.SEMI "';'";
      let lv = lvalue_of_expr st first in
      [ mk st pos (Ast.Assign (lv, Ast.Binop (Ast.Sub, first, e))) ]
  | _ ->
      expect st Lexer.SEMI "';'";
      [ mk st pos (Ast.Expr first) ]

and parse_block st : Ast.block =
  expect st Lexer.LBRACE "'{'";
  let rec go acc =
    if accept st Lexer.RBRACE then List.rev acc
    else go (List.rev_append (parse_stmt st) acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Top level                                                          *)
(* ------------------------------------------------------------------ *)

let parse_params st =
  expect st Lexer.LPAREN "'('";
  let rec go acc =
    match peek st with
    | Lexer.RPAREN ->
        advance st;
        List.rev acc
    | Lexer.ID x ->
        advance st;
        if accept st Lexer.COMMA then go (x :: acc)
        else begin
          expect st Lexer.RPAREN "')'";
          List.rev (x :: acc)
        end
    | _ -> fail st "expected parameter name"
  in
  go []

(** Parse a complete NFL program from source text. *)
let program src : Ast.program =
  let st = make src in
  let globals = ref [] in
  let funcs = ref [] in
  let main = ref None in
  let rec go () =
    match peek st with
    | Lexer.EOF -> ()
    | Lexer.KW_def -> (
        advance st;
        match peek st with
        | Lexer.ID fname ->
            advance st;
            let params = parse_params st in
            let body = parse_block st in
            funcs := { Ast.fname; params; body } :: !funcs;
            go ()
        | _ -> fail st "expected function name")
    | Lexer.KW_main ->
        advance st;
        let body = parse_block st in
        (match !main with
        | None -> main := Some body
        | Some _ -> fail st "duplicate main block");
        go ()
    | _ ->
        let ss = parse_stmt st in
        List.iter
          (fun (s : Ast.stmt) ->
            match s.kind with
            | Ast.Assign _ -> globals := s :: !globals
            | _ -> raise (Error ("only assignments allowed at top level", s.pos)))
          ss;
        go ()
  in
  go ();
  let main =
    match !main with Some m -> m | None -> raise (Error ("program has no main block", Ast.dummy_pos))
  in
  (* Renumber to dense source pre-order: the parser builds children
     before their enclosing compound statement, so raw ids are
     bottom-up. *)
  Ast.renumber
    { globals = List.rev !globals; funcs = List.rev !funcs; main; next_sid = st.gen.next }
