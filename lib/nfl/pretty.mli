(** Pretty-printer: renders AST back to parseable NFL source. Also
    renders slices (non-slice statements become comments, mirroring
    the paper's highlighted Figure-1 listing). *)

val binop_str : Ast.binop -> string

val expr : ?ctx:int -> Ast.expr -> string
(** Parseable rendering; [ctx] is the ambient precedence (used
    internally for minimal parenthesization, matching the parser's
    associativity). *)

val lvalue : Ast.lvalue -> string

val program : ?slice:int list -> Ast.program -> string
(** Render a whole program. With [slice], statements whose id is not
    listed print as ["# [pruned] ..."] comments. *)

val layout : Ast.program -> Ast.program * string
(** [layout p] is [(p', program p)], where [p'] is [p] numbered the way
    parsing that text numbers it, computed in the same walk that prints
    it: statement ids in source pre-order from 1, each statement's
    [pos] the line and column at which the text writes it, and
    [next_sid] one past the last id. For every program whose printed
    statements parse back to themselves, [p'] equals
    [Parser.program (program p)], without the second parse; the tests
    check this on the whole corpus and on generated programs. *)

val stmt_to_string : Ast.stmt -> string
(** One statement (compound statements include their bodies). *)
