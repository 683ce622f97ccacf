(** Pretty-printer: renders AST back to parseable NFL source.

    Used to display slices (the paper highlights slice statements in the
    original listing — [program ~slice] renders non-slice statements as
    dimmed comments instead), to round-trip programs in tests, and to
    show synthesized programs produced by the structure transforms. *)

let binop_str = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Eq -> "=="
  | Ast.Ne -> "!="
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.And -> "&&"
  | Ast.Or -> "||"
  | Ast.Band -> "&"
  | Ast.Bor -> "|"
  | Ast.Shl -> "<<"
  | Ast.Shr -> ">>"

let prec = function
  | Ast.Or -> 1
  | Ast.And -> 2
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 4
  | Ast.Bor -> 5
  | Ast.Band -> 6
  | Ast.Shl | Ast.Shr -> 7
  | Ast.Add | Ast.Sub -> 8
  | Ast.Mul | Ast.Div | Ast.Mod -> 9

(* Expressions are written straight into a buffer: [ctx] is the
   ambient precedence, and a sub-expression binding looser than it is
   parenthesized. *)
let rec add_expr b ctx e =
  let str = Buffer.add_string b in
  let paren p body =
    if p < ctx then begin
      Buffer.add_char b '(';
      body ();
      Buffer.add_char b ')'
    end
    else body ()
  in
  let list l = List.iteri (fun i e -> if i > 0 then str ", "; add_expr b 0 e) l in
  match e with
  | Ast.Int n -> str (string_of_int n)
  | Ast.Bool true -> str "true"
  | Ast.Bool false -> str "false"
  | Ast.Str s ->
      (* [%S] quoting, which the lexer reads back byte for byte *)
      Buffer.add_char b '"';
      str (String.escaped s);
      Buffer.add_char b '"'
  | Ast.Var x -> str x
  | Ast.Tuple es ->
      Buffer.add_char b '(';
      list es;
      Buffer.add_char b ')'
  | Ast.List_lit es ->
      Buffer.add_char b '[';
      list es;
      Buffer.add_char b ']'
  | Ast.Dict_lit -> str "{}"
  | Ast.Binop (op, x, y) ->
      (* Match the parser's associativity: [&&]/[||] are right-
         associative, comparisons don't chain, everything else is
         left-associative. *)
      let p = prec op in
      let lctx, rctx =
        match op with
        | Ast.And | Ast.Or -> (p + 1, p)
        | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (p + 1, p + 1)
        | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor | Ast.Shl
        | Ast.Shr ->
            (p, p + 1)
      in
      paren p (fun () ->
          add_expr b lctx x;
          Buffer.add_char b ' ';
          str (binop_str op);
          Buffer.add_char b ' ';
          add_expr b rctx y)
  | Ast.Unop (Ast.Not, e) ->
      paren 3 (fun () ->
          str "not ";
          add_expr b 5 e)
  | Ast.Unop (Ast.Neg, e) ->
      paren 10 (fun () ->
          Buffer.add_char b '-';
          add_expr b 10 e)
  | Ast.Index (x, k) ->
      add_expr b 11 x;
      Buffer.add_char b '[';
      add_expr b 0 k;
      Buffer.add_char b ']'
  | Ast.Field (x, f) ->
      add_expr b 11 x;
      Buffer.add_char b '.';
      str f
  | Ast.Call (f, args) ->
      str f;
      Buffer.add_char b '(';
      list args;
      Buffer.add_char b ')'
  | Ast.Mem (k, d) ->
      paren 4 (fun () ->
          add_expr b 5 k;
          str " in ";
          add_expr b 5 d)

let expr ?(ctx = 0) e =
  let b = Buffer.create 32 in
  add_expr b ctx e;
  Buffer.contents b

let add_lvalue b = function
  | Ast.L_var x -> Buffer.add_string b x
  | Ast.L_index (d, k) ->
      Buffer.add_string b d;
      Buffer.add_char b '[';
      add_expr b 0 k;
      Buffer.add_char b ']'
  | Ast.L_field (p, f) ->
      Buffer.add_string b p;
      Buffer.add_char b '.';
      Buffer.add_string b f

let lvalue lv =
  let b = Buffer.create 16 in
  add_lvalue b lv;
  Buffer.contents b

(* The printer and the renumbering share one walk, so the statement
   ids and positions [layout] assigns are by construction the ones a
   parse of the printed text would: the parser numbers statements in
   source pre-order from 1 and places each at its first token, which
   the printer writes at column [indent + 1] of its own line. Every
   line goes through [emit], which counts it; no line holds a raw
   newline ([%S] quoting escapes those inside string literals). *)
type layout = {
  buf : Buffer.t;
  keep : int -> bool;  (** statement ids to print as code, not as pruned comments *)
  gen : Ast.idgen;
  mutable line : int;  (** number of the next line written *)
}

(* One line: the indentation, whatever [write] adds, the newline. *)
let emit lay indent write =
  for _ = 1 to indent do
    Buffer.add_char lay.buf ' '
  done;
  write ();
  Buffer.add_char lay.buf '\n';
  lay.line <- lay.line + 1

let line lay indent str = emit lay indent (fun () -> Buffer.add_string lay.buf str)

(** [stmt lay indent s] prints [s] and returns it renumbered: its
    pre-order id and the position the text gives it. When [lay.keep
    s.sid] is false the statement is rendered as a comment line (slice
    display). *)
let rec stmt lay indent (s : Ast.stmt) : Ast.stmt =
  let sid = Ast.fresh_sid lay.gen in
  let pos = { Ast.line = lay.line; col = indent + 1 } in
  let b = lay.buf in
  let str = Buffer.add_string b in
  (* The statement's own line. *)
  let head write =
    emit lay indent (fun () ->
        if not (lay.keep s.Ast.sid) then str "# [pruned] ";
        write ())
  in
  let close () = line lay indent "}" in
  let kind =
    match s.Ast.kind with
    | Ast.Assign (lv, e) ->
        head (fun () ->
            add_lvalue b lv;
            str " = ";
            add_expr b 0 e;
            str ";");
        s.Ast.kind
    | Ast.Expr e ->
        head (fun () ->
            add_expr b 0 e;
            str ";");
        s.Ast.kind
    | Ast.Return None ->
        head (fun () -> str "return;");
        s.Ast.kind
    | Ast.Return (Some e) ->
        head (fun () ->
            str "return ";
            add_expr b 0 e;
            str ";");
        s.Ast.kind
    | Ast.Delete (d, k) ->
        head (fun () ->
            str "del ";
            str d;
            str "[";
            add_expr b 0 k;
            str "];");
        s.Ast.kind
    | Ast.Pass ->
        head (fun () -> str "pass;");
        s.Ast.kind
    | Ast.If (c, b1, b2) ->
        head (fun () ->
            str "if (";
            add_expr b 0 c;
            str ") {");
        let b1 = block lay (indent + 2) b1 in
        let b2 =
          match b2 with
          | [] -> []
          | _ ->
              line lay indent "} else {";
              block lay (indent + 2) b2
        in
        close ();
        Ast.If (c, b1, b2)
    | Ast.While (c, body) ->
        head (fun () ->
            str "while (";
            add_expr b 0 c;
            str ") {");
        let body = block lay (indent + 2) body in
        close ();
        Ast.While (c, body)
    | Ast.For_in (x, e, body) ->
        head (fun () ->
            str "for ";
            str x;
            str " in ";
            add_expr b 0 e;
            str " {");
        let body = block lay (indent + 2) body in
        close ();
        Ast.For_in (x, e, body)
  in
  { Ast.sid; pos; kind }

and block lay indent b = List.map (stmt lay indent) b

let walk ~keep (p : Ast.program) =
  let lay = { buf = Buffer.create 1024; keep; gen = Ast.idgen (); line = 1 } in
  let globals = block lay 0 p.globals in
  let funcs =
    List.map
      (fun (f : Ast.func) ->
        line lay 0 "";
        line lay 0 (Printf.sprintf "def %s(%s) {" f.fname (String.concat ", " f.params));
        let body = block lay 2 f.body in
        line lay 0 "}";
        { f with body })
      p.funcs
  in
  line lay 0 "";
  line lay 0 "main {";
  let main = block lay 2 p.main in
  line lay 0 "}";
  ({ Ast.globals; funcs; main; next_sid = lay.gen.Ast.next }, Buffer.contents lay.buf)

module Iset = Set.Make (Int)

(** Render a whole program. [slice], when given, is the set of statement
    ids to keep; everything else prints as a pruned comment. *)
let program ?slice (p : Ast.program) =
  let keep =
    match slice with
    | None -> fun _ -> true
    | Some ids ->
        let ids = Iset.of_list ids in
        fun sid -> Iset.mem sid ids
  in
  snd (walk ~keep p)

let layout p = walk ~keep:(fun _ -> true) p

let stmt_to_string (s : Ast.stmt) =
  let lay = { buf = Buffer.create 64; keep = (fun _ -> true); gen = Ast.idgen (); line = 1 } in
  ignore (stmt lay 0 s);
  String.trim (Buffer.contents lay.buf)
