(** Hand-written lexer for NFL. Dotted-quad IPv4 literals ([3.3.3.3])
    lex to their integer value; [#] starts a line comment. The parser
    pulls tokens one at a time through {!next}. *)

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

val token_to_string : token -> string

exception Error of string * Ast.pos

(** {1 Pull interface} *)

type t
(** Lexing state over one source string. *)

val make : string -> t

val next : t -> token
(** The next token ([EOF], repeatedly, at the end of input). String
    literals read every escape the pretty-printer writes: a backslash
    before [n], [t], [r], [b], a backslash or a double quote, and
    [\DDD], a three-digit decimal byte up to 255. A backslash before
    another digit sequence is an error; before any other character it
    stands for that character.
    @raise Error with position on malformed input. *)

val tok_pos : t -> Ast.pos
(** Where the token last returned by {!next} starts. *)

(** {1 Whole-string lexing} *)

val tokens : string -> (token * Ast.pos) list
(** Lex a whole source string (the final element is [EOF]).
    @raise Error with position on malformed input. *)
