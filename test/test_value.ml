open Symexec

let v = Alcotest.testable Value.pp Value.equal

let test_binop_arith () =
  let check name op a b expected =
    Alcotest.check v name expected (Value.binop op (Value.Int a) (Value.Int b))
  in
  check "add" Nfl.Ast.Add 2 3 (Value.Int 5);
  check "sub" Nfl.Ast.Sub 2 3 (Value.Int (-1));
  check "mul" Nfl.Ast.Mul 4 3 (Value.Int 12);
  check "div" Nfl.Ast.Div 7 2 (Value.Int 3);
  check "mod" Nfl.Ast.Mod 7 3 (Value.Int 1);
  check "band" Nfl.Ast.Band 6 3 (Value.Int 2);
  check "bor" Nfl.Ast.Bor 6 3 (Value.Int 7);
  check "shl" Nfl.Ast.Shl 1 4 (Value.Int 16);
  check "shr" Nfl.Ast.Shr 16 4 (Value.Int 1)

let test_binop_cmp () =
  Alcotest.check v "lt" (Value.Bool true) (Value.binop Nfl.Ast.Lt (Value.Int 1) (Value.Int 2));
  Alcotest.check v "ge" (Value.Bool false) (Value.binop Nfl.Ast.Ge (Value.Int 1) (Value.Int 2));
  Alcotest.check v "str lt" (Value.Bool true) (Value.binop Nfl.Ast.Lt (Value.Str "a") (Value.Str "b"));
  Alcotest.check v "tuple eq" (Value.Bool true)
    (Value.binop Nfl.Ast.Eq
       (Value.Tuple [ Value.Int 1; Value.Str "x" ])
       (Value.Tuple [ Value.Int 1; Value.Str "x" ]))

let test_div_by_zero () =
  Alcotest.check_raises "div" (Value.Type_error "division by zero") (fun () ->
      ignore (Value.binop Nfl.Ast.Div (Value.Int 1) (Value.Int 0)));
  Alcotest.check_raises "mod" (Value.Type_error "modulo by zero") (fun () ->
      ignore (Value.binop Nfl.Ast.Mod (Value.Int 1) (Value.Int 0)))

let test_str_concat () =
  Alcotest.check v "concat" (Value.Str "ab") (Value.binop Nfl.Ast.Add (Value.Str "a") (Value.Str "b"))

let test_dict_ops () =
  let d = Value.dict_set [] (Value.Int 1) (Value.Str "a") in
  let d = Value.dict_set d (Value.Int 2) (Value.Str "b") in
  Alcotest.(check bool) "mem 1" true (Value.dict_mem d (Value.Int 1));
  Alcotest.(check bool) "mem 3" false (Value.dict_mem d (Value.Int 3));
  Alcotest.check v "get" (Value.Str "b") (Option.get (Value.dict_get d (Value.Int 2)));
  let d = Value.dict_set d (Value.Int 1) (Value.Str "c") in
  Alcotest.check v "overwrite" (Value.Str "c") (Option.get (Value.dict_get d (Value.Int 1)));
  Alcotest.(check int) "size stable on overwrite" 2 (List.length d);
  let d = Value.dict_remove d (Value.Int 1) in
  Alcotest.(check bool) "removed" false (Value.dict_mem d (Value.Int 1))

let test_dict_canonical_equality () =
  (* Same content inserted in different order compares equal. *)
  let d1 = Value.dict_set (Value.dict_set [] (Value.Int 1) (Value.Int 10)) (Value.Int 2) (Value.Int 20) in
  let d2 = Value.dict_set (Value.dict_set [] (Value.Int 2) (Value.Int 20)) (Value.Int 1) (Value.Int 10) in
  Alcotest.check v "order independent" (Value.Dict d1) (Value.Dict d2)

let test_index () =
  Alcotest.check v "list" (Value.Int 20)
    (Value.index (Value.List [ Value.Int 10; Value.Int 20 ]) (Value.Int 1));
  Alcotest.check v "tuple" (Value.Int 10)
    (Value.index (Value.Tuple [ Value.Int 10; Value.Int 20 ]) (Value.Int 0));
  Alcotest.check_raises "oob" (Value.Type_error "index out of range: 5") (fun () ->
      ignore (Value.index (Value.List [ Value.Int 1 ]) (Value.Int 5)))

let test_mem () =
  Alcotest.check v "list mem" (Value.Bool true)
    (Value.mem (Value.Int 2) (Value.List [ Value.Int 1; Value.Int 2 ]));
  Alcotest.check v "dict mem" (Value.Bool false) (Value.mem (Value.Int 9) Value.dict_empty)

let test_pure_builtins () =
  Alcotest.check v "len list" (Value.Int 3)
    (Value.apply_pure "len" [ Value.List [ Value.Int 1; Value.Int 2; Value.Int 3 ] ]);
  Alcotest.check v "len str" (Value.Int 5) (Value.apply_pure "len" [ Value.Str "hello" ]);
  Alcotest.check v "min" (Value.Int 1) (Value.apply_pure "min" [ Value.Int 4; Value.Int 1 ]);
  Alcotest.check v "max" (Value.Int 4) (Value.apply_pure "max" [ Value.Int 4; Value.Int 1 ]);
  Alcotest.check v "abs" (Value.Int 4) (Value.apply_pure "abs" [ Value.Int (-4) ]);
  Alcotest.check v "tuple_get" (Value.Int 7)
    (Value.apply_pure "tuple_get" [ Value.Tuple [ Value.Int 7 ]; Value.Int 0 ]);
  Alcotest.check v "str_contains" (Value.Bool true)
    (Value.apply_pure "str_contains" [ Value.Str "GET / HTTP"; Value.Str "GET" ]);
  Alcotest.check v "str_prefix" (Value.Bool false)
    (Value.apply_pure "str_prefix" [ Value.Str "abc"; Value.Str "bc" ])

let test_hash_deterministic () =
  let h1 = Value.hash_value (Value.Tuple [ Value.Int 1; Value.Str "x" ]) in
  let h2 = Value.hash_value (Value.Tuple [ Value.Int 1; Value.Str "x" ]) in
  Alcotest.(check int) "same value same hash" h1 h2;
  Alcotest.(check bool) "non-negative" true (h1 >= 0)

let qcheck_hash_spread =
  QCheck.Test.make ~name:"value: hash differs on different ints (mostly)" ~count:200
    QCheck.(pair small_int small_int)
    (fun (a, b) -> a = b || Value.hash_value (Value.Int a) <> Value.hash_value (Value.Int b))

let qcheck_dict_set_get =
  QCheck.Test.make ~name:"value: dict set/get roundtrip" ~count:300
    QCheck.(pair small_int small_int)
    (fun (k, x) ->
      let d = Value.dict_set [] (Value.Int k) (Value.Int x) in
      Value.dict_get d (Value.Int k) = Some (Value.Int x))

(* A seeded value generator over a small domain, so equal pairs are
   common: ints at the extremes and around zero, short strings over a
   two-letter alphabet, nested tuples and lists, dicts, packets and
   mixed constructors. *)
let gen_value rng =
  let module R = Packet.Rng in
  let gen_int () =
    match R.int rng 6 with
    | 0 -> R.pick rng [ min_int; max_int; min_int + 1; max_int - 1 ]
    | 1 -> -R.int rng 4
    | 2 -> -R.int rng max_int
    | 3 -> R.int rng max_int
    | _ -> R.int rng 4
  in
  let gen_str () = String.init (R.int rng 4) (fun _ -> R.pick rng [ 'a'; 'b' ]) in
  let rec gen depth =
    match R.int rng (if depth = 0 then 4 else 8) with
    | 0 | 1 -> Value.Int (gen_int ())
    | 2 -> Value.Str (gen_str ())
    | 3 -> Value.Bool (R.bool rng)
    | 4 -> Value.Tuple (List.init (R.int rng 3) (fun _ -> gen (depth - 1)))
    | 5 -> Value.List (List.init (R.int rng 3) (fun _ -> gen (depth - 1)))
    | 6 ->
        Value.Dict
          (List.init (R.int rng 3) (fun _ -> (gen (depth - 1), gen (depth - 1)))
          |> List.sort_uniq (fun (a, _) (b, _) -> Stdlib.compare a b))
    | _ ->
        let a = Packet.Addr.ip 10 0 0 (R.int rng 2) in
        Value.Pkt (Packet.Pkt.make ~ip_src:a ~ip_dst:a ~sport:(R.int rng 2) ~dport:80 ())
  in
  gen 2

(* [Value.equal]/[Value.compare] take fast paths for ints and strings;
   they must agree with the polymorphic compare they replace, sign and
   magnitude alike, on every pair. *)
let test_compare_matches_stdlib () =
  let rng = Packet.Rng.create 29 in
  for _ = 1 to 20_000 do
    let a = gen_value rng in
    let b = if Packet.Rng.int rng 4 = 0 then a else gen_value rng in
    let expected = Stdlib.compare a b in
    if Value.compare a b <> expected || Value.equal a b <> (expected = 0) then
      Alcotest.failf "%s vs %s: compare %d equal %b, Stdlib.compare %d" (Value.to_string a)
        (Value.to_string b) (Value.compare a b) (Value.equal a b) expected
  done;
  List.iter
    (fun (a, b) ->
      Alcotest.(check int) "extreme ints" (Stdlib.compare a b) (Value.compare (Value.Int a) (Value.Int b)))
    [ (min_int, max_int); (max_int, min_int); (min_int, min_int); (-1, 0); (0, -1) ]

(* The definitions the in-place [str_contains]/[str_prefix] replaced. *)
let ref_contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let ref_prefix s p = String.length p <= String.length s && String.sub s 0 (String.length p) = p

let test_str_builtins_match_reference () =
  let rng = Packet.Rng.create 7 in
  let gen max_len =
    String.init (Packet.Rng.int rng (max_len + 1)) (fun _ -> Packet.Rng.pick rng [ 'a'; 'b'; 'c' ])
  in
  let cases = [ ("", ""); ("", "a"); ("a", ""); ("ab", "abc"); ("abc", "abc"); ("xabc", "bc") ] in
  let cases = cases @ List.init 5_000 (fun _ -> (gen 8, gen 4)) in
  List.iter
    (fun (s, sub) ->
      Alcotest.(check bool)
        (Printf.sprintf "str_contains %S %S" s sub)
        (ref_contains ~sub s) (Value.str_contains ~sub s);
      Alcotest.check v
        (Printf.sprintf "str_prefix %S %S" s sub)
        (Value.Bool (ref_prefix s sub))
        (Value.apply_pure "str_prefix" [ Value.Str s; Value.Str sub ]))
    cases

let test_pkt_field () =
  let p =
    Packet.Pkt.make ~ip_src:(Packet.Addr.ip 10 0 0 1) ~ip_dst:(Packet.Addr.ip 3 3 3 3) ~ip_ttl:9
      ~ip_len:77 ~tcp_flags:Packet.Headers.syn ~seq:5 ~ack:6 ~payload:"GET /" ~sport:1234 ~dport:80 ()
  in
  let field = Alcotest.(option v) in
  List.iter
    (fun f -> Alcotest.check field f (Some (Value.Int (Packet.Pkt.get_int p f))) (Value.pkt_field p f))
    Packet.Headers.int_fields;
  Alcotest.check field "payload" (Some (Value.Str "GET /")) (Value.pkt_field p "payload");
  List.iter
    (fun f -> Alcotest.check field (Printf.sprintf "%S" f) None (Value.pkt_field p f))
    [ ""; "ip_src2"; "pkt"; "pkt.dport" ]

let suite =
  [
    Alcotest.test_case "arith binops" `Quick test_binop_arith;
    Alcotest.test_case "comparisons" `Quick test_binop_cmp;
    Alcotest.test_case "div/mod by zero" `Quick test_div_by_zero;
    Alcotest.test_case "string concat" `Quick test_str_concat;
    Alcotest.test_case "dict ops" `Quick test_dict_ops;
    Alcotest.test_case "dict canonical equality" `Quick test_dict_canonical_equality;
    Alcotest.test_case "indexing" `Quick test_index;
    Alcotest.test_case "membership" `Quick test_mem;
    Alcotest.test_case "pure builtins" `Quick test_pure_builtins;
    Alcotest.test_case "hash deterministic" `Quick test_hash_deterministic;
    Alcotest.test_case "equal/compare match Stdlib.compare" `Quick test_compare_matches_stdlib;
    Alcotest.test_case "str_contains/str_prefix match reference" `Quick
      test_str_builtins_match_reference;
    Alcotest.test_case "packet fields by name" `Quick test_pkt_field;
    QCheck_alcotest.to_alcotest qcheck_hash_spread;
    QCheck_alcotest.to_alcotest qcheck_dict_set_get;
  ]
