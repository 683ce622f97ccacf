(** Concrete runtime values of NFL.

    Dictionaries are kept as association lists sorted by key (canonical
    form), so structural equality of values is semantic equality of
    dictionaries — which the differential-testing experiment relies on
    when comparing final NF states. *)

type t =
  | Int of int
  | Bool of bool
  | Str of string
  | Tuple of t list
  | List of t list
  | Dict of (t * t) list  (** sorted by key *)
  | Pkt of Packet.Pkt.t

exception Type_error of string

let type_name = function
  | Int _ -> "int"
  | Bool _ -> "bool"
  | Str _ -> "string"
  | Tuple _ -> "tuple"
  | List _ -> "list"
  | Dict _ -> "dict"
  | Pkt _ -> "packet"

let rec pp ppf = function
  | Int n -> Fmt.int ppf n
  | Bool b -> Fmt.bool ppf b
  | Str s -> Fmt.pf ppf "%S" s
  | Tuple vs -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") pp) vs
  | List vs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") pp) vs
  | Dict kvs ->
      Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") (pair ~sep:(any ": ") pp pp)) kvs
  | Pkt p -> Fmt.pf ppf "<%a>" Packet.Pkt.pp p

let to_string v = Fmt.str "%a" pp v

(* [Int]/[Int] (and, for [equal], [Str]/[Str]) skip the polymorphic
   compare; the results and the order are exactly [Stdlib.compare]'s. *)
let compare (a : t) (b : t) =
  match (a, b) with Int x, Int y -> Int.compare x y | _ -> Stdlib.compare a b

let equal (a : t) (b : t) =
  match (a, b) with
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | _ -> Stdlib.compare a b = 0

let as_int = function Int n -> n | v -> raise (Type_error ("expected int, got " ^ type_name v))
let as_bool = function
  | Bool b -> b
  | Int n -> n <> 0
  | v -> raise (Type_error ("expected bool, got " ^ type_name v))

let as_pkt = function Pkt p -> p | v -> raise (Type_error ("expected packet, got " ^ type_name v))

let pkt_field (p : Packet.Pkt.t) = function
  | "ip_src" -> Some (Int p.ip_src)
  | "ip_dst" -> Some (Int p.ip_dst)
  | "ip_proto" -> Some (Int p.ip_proto)
  | "ip_ttl" -> Some (Int p.ip_ttl)
  | "ip_len" -> Some (Int p.ip_len)
  | "sport" -> Some (Int p.sport)
  | "dport" -> Some (Int p.dport)
  | "tcp_flags" -> Some (Int p.tcp_flags)
  | "seq" -> Some (Int p.seq)
  | "ack" -> Some (Int p.ack)
  | "payload" -> Some (Str p.payload)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Dictionaries                                                       *)
(* ------------------------------------------------------------------ *)

let dict_empty = Dict []

let dict_mem kvs k = List.exists (fun (k', _) -> equal k k') kvs

let dict_get kvs k =
  match List.find_opt (fun (k', _) -> equal k k') kvs with
  | Some (_, v) -> Some v
  | None -> None

let dict_set kvs k v =
  let rest = List.filter (fun (k', _) -> not (equal k k')) kvs in
  List.sort (fun (a, _) (b, _) -> compare a b) ((k, v) :: rest)

let dict_remove kvs k = List.filter (fun (k', _) -> not (equal k k')) kvs

(* ------------------------------------------------------------------ *)
(* Operators                                                          *)
(* ------------------------------------------------------------------ *)

let int_binop name f a b =
  match (a, b) with
  | Int x, Int y -> Int (f x y)
  | _ -> raise (Type_error (Printf.sprintf "%s: int expected (%s, %s)" name (type_name a) (type_name b)))

let cmp_binop name f a b =
  match (a, b) with
  | Int x, Int y -> Bool (f (Stdlib.compare x y) 0)
  | Str x, Str y -> Bool (f (Stdlib.compare x y) 0)
  | _ -> raise (Type_error (Printf.sprintf "%s: comparable expected (%s, %s)" name (type_name a) (type_name b)))

(** Evaluate a binary operator. [And]/[Or] are also handled here for
    already-evaluated operands; the interpreter short-circuits before
    calling when it can. Division and modulo by zero raise
    {!Type_error} — NF code treats that as a crash, which the analyses
    surface rather than hide. *)
let binop (op : Nfl.Ast.binop) a b =
  match op with
  | Nfl.Ast.Add -> (
      match (a, b) with
      | Str x, Str y -> Str (x ^ y)
      | _ -> int_binop "+" ( + ) a b)
  | Nfl.Ast.Sub -> int_binop "-" ( - ) a b
  | Nfl.Ast.Mul -> int_binop "*" ( * ) a b
  | Nfl.Ast.Div ->
      if as_int b = 0 then raise (Type_error "division by zero") else int_binop "/" ( / ) a b
  | Nfl.Ast.Mod ->
      if as_int b = 0 then raise (Type_error "modulo by zero") else int_binop "%" ( mod ) a b
  | Nfl.Ast.Eq -> Bool (equal a b)
  | Nfl.Ast.Ne -> Bool (not (equal a b))
  | Nfl.Ast.Lt -> cmp_binop "<" ( < ) a b
  | Nfl.Ast.Le -> cmp_binop "<=" ( <= ) a b
  | Nfl.Ast.Gt -> cmp_binop ">" ( > ) a b
  | Nfl.Ast.Ge -> cmp_binop ">=" ( >= ) a b
  | Nfl.Ast.And -> Bool (as_bool a && as_bool b)
  | Nfl.Ast.Or -> Bool (as_bool a || as_bool b)
  | Nfl.Ast.Band -> int_binop "&" ( land ) a b
  | Nfl.Ast.Bor -> int_binop "|" ( lor ) a b
  | Nfl.Ast.Shl -> int_binop "<<" ( lsl ) a b
  | Nfl.Ast.Shr -> int_binop ">>" ( lsr ) a b

let unop (op : Nfl.Ast.unop) a =
  match op with
  | Nfl.Ast.Not -> Bool (not (as_bool a))
  | Nfl.Ast.Neg -> Int (-as_int a)

(* ------------------------------------------------------------------ *)
(* Pure builtins                                                      *)
(* ------------------------------------------------------------------ *)

(* Deterministic FNV-1a over the canonical rendering: [hash] must be a
   pure function of the value so program and model agree. *)
let hash_value v =
  let s = to_string v in
  (* FNV-1a offset basis truncated to OCaml's 63-bit int range. *)
  let h = ref 0x3bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3 land max_int)
    s;
  !h land 0x3FFFFFFF

(* Compared in place at each offset, without copying. *)
let str_contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec occurs_at i j =
    j = n || (String.unsafe_get s (i + j) = String.unsafe_get sub j && occurs_at i (j + 1))
  in
  let rec go i = i + n <= m && (occurs_at i 0 || go (i + 1)) in
  n = 0 || go 0

(** Apply a pure builtin from {!Nfl.Builtins.pure}. *)
let apply_pure name args =
  match (name, args) with
  | "hash", [ v ] -> Int (hash_value v)
  | "len", [ List vs ] -> Int (List.length vs)
  | "len", [ Tuple vs ] -> Int (List.length vs)
  | "len", [ Dict kvs ] -> Int (List.length kvs)
  | "len", [ Str s ] -> Int (String.length s)
  | "min", [ Int a; Int b ] -> Int (min a b)
  | "max", [ Int a; Int b ] -> Int (max a b)
  | "abs", [ Int a ] -> Int (abs a)
  | "tuple_get", [ Tuple vs; Int i ] when i >= 0 && i < List.length vs -> List.nth vs i
  | "str_contains", [ Str s; Str sub ] -> Bool (str_contains ~sub s)
  | "str_prefix", [ Str s; Str p ] -> Bool (String.starts_with ~prefix:p s)
  | _ ->
      raise
        (Type_error
           (Printf.sprintf "builtin %s: bad arguments (%s)" name
              (String.concat ", " (List.map type_name args))))

(* ------------------------------------------------------------------ *)
(* Indexing                                                           *)
(* ------------------------------------------------------------------ *)

let index container key =
  match (container, key) with
  | Dict kvs, k -> (
      match dict_get kvs k with
      | Some v -> v
      | None -> raise (Type_error ("key not in dict: " ^ to_string k)))
  | List vs, Int i when i >= 0 && i < List.length vs -> List.nth vs i
  | Tuple vs, Int i when i >= 0 && i < List.length vs -> List.nth vs i
  | (List _ | Tuple _), Int i -> raise (Type_error ("index out of range: " ^ string_of_int i))
  | c, _ -> raise (Type_error ("not indexable: " ^ type_name c))

let mem key container =
  match container with
  | Dict kvs -> Bool (dict_mem kvs key)
  | List vs -> Bool (List.exists (equal key) vs)
  | Tuple vs -> Bool (List.exists (equal key) vs)
  | c -> raise (Type_error ("membership on " ^ type_name c))
