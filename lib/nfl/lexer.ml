(** Hand-written lexer for NFL.

    Notable conveniences for NF source: dotted-quad IPv4 literals
    ([3.3.3.3]) lex directly to their integer value (the language has no
    floats, so the syntax is unambiguous), and [#] starts a line
    comment, as in the paper's Figure-1 listing. *)

type token =
  | INT of int
  | STR of string
  | ID of string
  | KW_true
  | KW_false
  | KW_def
  | KW_main
  | KW_if
  | KW_else
  | KW_while
  | KW_for
  | KW_in
  | KW_not
  | KW_and
  | KW_or
  | KW_return
  | KW_del
  | KW_pass
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | COMMA
  | SEMI
  | DOT
  | ASSIGN
  | PLUS_EQ
  | MINUS_EQ
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | AMP
  | PIPE
  | AMPAMP
  | PIPEPIPE
  | SHL
  | SHR
  | BANG
  | EOF

let token_to_string = function
  | INT n -> string_of_int n
  | STR s -> Printf.sprintf "%S" s
  | ID s -> s
  | KW_true -> "true"
  | KW_false -> "false"
  | KW_def -> "def"
  | KW_main -> "main"
  | KW_if -> "if"
  | KW_else -> "else"
  | KW_while -> "while"
  | KW_for -> "for"
  | KW_in -> "in"
  | KW_not -> "not"
  | KW_and -> "and"
  | KW_or -> "or"
  | KW_return -> "return"
  | KW_del -> "del"
  | KW_pass -> "pass"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | COMMA -> ","
  | SEMI -> ";"
  | DOT -> "."
  | ASSIGN -> "="
  | PLUS_EQ -> "+="
  | MINUS_EQ -> "-="
  | EQ -> "=="
  | NE -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | AMP -> "&"
  | PIPE -> "|"
  | AMPAMP -> "&&"
  | PIPEPIPE -> "||"
  | SHL -> "<<"
  | SHR -> ">>"
  | BANG -> "!"
  | EOF -> "<eof>"

exception Error of string * Ast.pos

(* The lexer is pulled one token at a time ({!next}); the parser keeps
   its own two-token window, so no token list is ever materialized.
   Columns are byte offsets from the start of the line, tracked as the
   offset [bol] of the line's first byte rather than per character. *)
type t = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;
  mutable tok_line : int;  (** where the token last returned by [next] starts *)
  mutable tok_col : int;
}

let make src =
  { src; len = String.length src; pos = 0; line = 1; bol = 0; tok_line = 1; tok_col = 1 }

let cur_pos st : Ast.pos = { line = st.line; col = st.pos - st.bol + 1 }
let char_at st i = if i < st.len then String.unsafe_get st.src i else '\000'
let peek st = char_at st st.pos
let peek2 st = char_at st (st.pos + 1)

(* Consume one byte that is not a newline. *)
let skip st = st.pos <- st.pos + 1

(* Consume one byte, which may be a newline. *)
let advance st =
  if st.pos < st.len then begin
    if String.unsafe_get st.src st.pos = '\n' then begin
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
    end;
    st.pos <- st.pos + 1
  end

let is_digit c = c >= '0' && c <= '9'
let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_id_char c = is_id_start c || is_digit c

let rec skip_ws st =
  if st.pos < st.len then
    match String.unsafe_get st.src st.pos with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_ws st
    | '#' ->
        st.pos <-
          (match String.index_from_opt st.src st.pos '\n' with Some i -> i | None -> st.len);
        skip_ws st
    | _ -> ()

let lex_number st =
  let read_digits () =
    let n = ref 0 in
    while is_digit (peek st) do
      n := (!n * 10) + (Char.code (peek st) - Char.code '0');
      skip st
    done;
    !n
  in
  let n1 = read_digits () in
  (* Dotted quad: number '.' digit can only be an IP literal. *)
  if peek st = '.' && is_digit (peek2 st) then begin
    skip st;
    let n2 = read_digits () in
    if not (peek st = '.' && is_digit (peek2 st)) then
      raise (Error ("malformed IP literal", cur_pos st));
    skip st;
    let n3 = read_digits () in
    if not (peek st = '.' && is_digit (peek2 st)) then
      raise (Error ("malformed IP literal", cur_pos st));
    skip st;
    let n4 = read_digits () in
    if n1 > 255 || n2 > 255 || n3 > 255 || n4 > 255 then
      raise (Error ("IP octet out of range", cur_pos st));
    INT (Packet.Addr.ip n1 n2 n3 n4)
  end
  else INT n1

let lex_hex st =
  (* Called after "0x" has been recognized; leading 0 consumed. *)
  skip st;
  (* consume 'x' *)
  let start = st.pos in
  let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') in
  if not (is_hex (peek st)) then raise (Error ("malformed hex literal", cur_pos st));
  while is_hex (peek st) do
    skip st
  done;
  INT (int_of_string ("0x" ^ String.sub st.src start (st.pos - start)))

(* String escapes cover every one the pretty-printer's [%S] quoting
   writes: a backslash before [n], [t], [r], [b], a backslash or a
   double quote, and a three-digit decimal byte [\DDD], so every
   string the printer emits lexes back to the same bytes. A backslash
   before a digit must start a [\DDD] of value at most 255, or the
   string is an error at the backslash; before any other character it
   stands for that character (snort's ["\x90"] patterns read as
   [x90]). *)
let lex_string st =
  skip st;
  (* opening quote *)
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= st.len then raise (Error ("unterminated string", cur_pos st))
    else
      match peek st with
      | '"' -> skip st
      | '\\' ->
          let at = cur_pos st in
          skip st;
          let simple c =
            Buffer.add_char b c;
            skip st
          in
          (match peek st with
          | 'n' -> simple '\n'
          | 't' -> simple '\t'
          | 'r' -> simple '\r'
          | 'b' -> simple '\b'
          | ('\\' | '"') as c -> simple c
          | '0' .. '9' ->
              let digit i =
                let c = char_at st (st.pos + i) in
                if is_digit c then Char.code c - Char.code '0'
                else raise (Error ("escape \\DDD needs three decimal digits", at))
              in
              let v = (100 * digit 0) + (10 * digit 1) + digit 2 in
              if v > 255 then raise (Error (Printf.sprintf "escape \\%03d is above 255" v, at));
              Buffer.add_char b (Char.chr v);
              st.pos <- st.pos + 3
          | _ when st.pos >= st.len -> raise (Error ("unterminated string", cur_pos st))
          | c -> simple c);
          go ()
      | c ->
          Buffer.add_char b c;
          advance st;
          go ()
  in
  go ();
  STR (Buffer.contents b)

(* Identifiers are the most common token, so this is the lexer's hot
   path: slice the source directly (no per-char buffering) and resolve
   keywords through a compiled string match instead of an assoc scan. *)
let lex_ident st =
  let start = st.pos in
  while is_id_char (peek st) do
    skip st
  done;
  match String.sub st.src start (st.pos - start) with
  | "true" -> KW_true
  | "false" -> KW_false
  | "def" -> KW_def
  | "main" -> KW_main
  | "if" -> KW_if
  | "else" -> KW_else
  | "while" -> KW_while
  | "for" -> KW_for
  | "in" -> KW_in
  | "not" -> KW_not
  | "and" -> KW_and
  | "or" -> KW_or
  | "return" -> KW_return
  | "del" -> KW_del
  | "pass" -> KW_pass
  | s -> ID s

(** Next token; [tok_line]/[tok_col] are set to where it starts. At the
    end of input this keeps returning [EOF]. *)
let next st =
  skip_ws st;
  st.tok_line <- st.line;
  st.tok_col <- st.pos - st.bol + 1;
  let two t =
    st.pos <- st.pos + 2;
    t
  in
  let one t =
    skip st;
    t
  in
  if st.pos >= st.len then EOF
  else
    match peek st with
    | '0' when peek2 st = 'x' || peek2 st = 'X' ->
        skip st;
        lex_hex st
    | '0' .. '9' -> lex_number st
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_ident st
    | '"' -> lex_string st
    | '(' -> one LPAREN
    | ')' -> one RPAREN
    | '[' -> one LBRACKET
    | ']' -> one RBRACKET
    | '{' -> one LBRACE
    | '}' -> one RBRACE
    | ',' -> one COMMA
    | ';' -> one SEMI
    | '.' -> one DOT
    | '+' -> if peek2 st = '=' then two PLUS_EQ else one PLUS
    | '-' -> if peek2 st = '=' then two MINUS_EQ else one MINUS
    | '*' -> one STAR
    | '/' -> one SLASH
    | '%' -> one PERCENT
    | '=' -> if peek2 st = '=' then two EQ else one ASSIGN
    | '!' -> if peek2 st = '=' then two NE else one BANG
    | '<' -> if peek2 st = '=' then two LE else if peek2 st = '<' then two SHL else one LT
    | '>' -> if peek2 st = '=' then two GE else if peek2 st = '>' then two SHR else one GT
    | '&' -> if peek2 st = '&' then two AMPAMP else one AMP
    | '|' -> if peek2 st = '|' then two PIPEPIPE else one PIPE
    | c ->
        raise
          (Error (Printf.sprintf "unexpected character %C" c, { line = st.tok_line; col = st.tok_col }))

let tok_pos st : Ast.pos = { line = st.tok_line; col = st.tok_col }

(** Lex a whole source string. *)
let tokens src =
  let st = make src in
  let rec go acc =
    match next st with
    | EOF -> List.rev ((EOF, tok_pos st) :: acc)
    | t -> go ((t, tok_pos st) :: acc)
  in
  go []
