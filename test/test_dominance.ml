open Nfl

let parse_main src = (Parser.program src).Ast.main

(* ids: 1: x=1; 2: if(c){3: y=1;}else{4: y=2;} 5: z=y; *)
let diamond = "main { x = 1; if (c) { y = 1; } else { y = 2; } z = y; }"

let test_dominators_diamond () =
  let g = Cfg.of_block (parse_main diamond) in
  let dom = Dominance.dominators g in
  let check_dom a b expected =
    Alcotest.(check bool)
      (Cfg.node_to_string a ^ " dom " ^ Cfg.node_to_string b)
      expected
      (Dominance.dominates dom a b)
  in
  check_dom (Cfg.Stmt 1) (Cfg.Stmt 5) true;
  check_dom (Cfg.Stmt 2) (Cfg.Stmt 5) true;
  check_dom (Cfg.Stmt 3) (Cfg.Stmt 5) false;
  check_dom (Cfg.Stmt 4) (Cfg.Stmt 5) false;
  check_dom Cfg.Entry (Cfg.Stmt 3) true;
  check_dom (Cfg.Stmt 5) (Cfg.Stmt 5) true

let test_postdominators_diamond () =
  let g = Cfg.of_block (parse_main diamond) in
  let pdom = Dominance.post_dominators g in
  let check_pdom a b expected =
    Alcotest.(check bool)
      (Cfg.node_to_string a ^ " pdom " ^ Cfg.node_to_string b)
      expected
      (Dominance.dominates pdom a b)
  in
  check_pdom (Cfg.Stmt 5) (Cfg.Stmt 1) true;
  check_pdom (Cfg.Stmt 5) (Cfg.Stmt 3) true;
  check_pdom (Cfg.Stmt 3) (Cfg.Stmt 2) false;
  check_pdom Cfg.Exit (Cfg.Stmt 1) true

let test_immediate_dominators () =
  let g = Cfg.of_block (parse_main diamond) in
  let idom = Dominance.dominators g in
  let get n = Option.get (Dominance.immediate idom n) in
  Alcotest.(check bool) "idom s5 = s2" true (Cfg.node_equal (get (Cfg.Stmt 5)) (Cfg.Stmt 2));
  Alcotest.(check bool) "idom s3 = s2" true (Cfg.node_equal (get (Cfg.Stmt 3)) (Cfg.Stmt 2));
  Alcotest.(check bool) "idom s2 = s1" true (Cfg.node_equal (get (Cfg.Stmt 2)) (Cfg.Stmt 1));
  Alcotest.(check bool) "idom s1 = entry" true (Cfg.node_equal (get (Cfg.Stmt 1)) Cfg.Entry)

let test_loop_postdominance () =
  (* 1: while(c) { 2: x=x+1; } 3: y=x; — s3 postdominates the loop. *)
  let g = Cfg.of_block (parse_main "main { while (c) { x = x + 1; } y = x; }") in
  let pdom = Dominance.post_dominators g in
  Alcotest.(check bool) "s3 pdom s1" true (Dominance.dominates pdom (Cfg.Stmt 3) (Cfg.Stmt 1));
  Alcotest.(check bool) "s3 pdom s2" true (Dominance.dominates pdom (Cfg.Stmt 3) (Cfg.Stmt 2));
  Alcotest.(check bool) "s2 !pdom s1" false (Dominance.dominates pdom (Cfg.Stmt 2) (Cfg.Stmt 1))

(* ids: 1: if(c) { 2: x=1; } 3: y=1; *)
let test_cdg_if () =
  let g = Cfg.of_block (parse_main "main { if (c) { x = 1; } y = 1; }") in
  let cdg = Cdg.compute g in
  let dep_of n = Cdg.deps_of cdg n in
  Alcotest.(check bool) "s2 CD on s1" true (Cfg.Nset.mem (Cfg.Stmt 1) (dep_of (Cfg.Stmt 2)));
  Alcotest.(check bool) "s3 not CD on s1" false (Cfg.Nset.mem (Cfg.Stmt 1) (dep_of (Cfg.Stmt 3)));
  Alcotest.(check bool) "s3 CD on entry" true (Cfg.Nset.mem Cfg.Entry (dep_of (Cfg.Stmt 3)))

let test_cdg_nested () =
  (* 1: if(a){ 2: if(b){ 3: x=1; } } 4: y=1; *)
  let g = Cfg.of_block (parse_main "main { if (a) { if (b) { x = 1; } } y = 1; }") in
  let cdg = Cdg.compute g in
  let dep_of n = Cdg.deps_of cdg n in
  Alcotest.(check bool) "s3 CD on s2" true (Cfg.Nset.mem (Cfg.Stmt 2) (dep_of (Cfg.Stmt 3)));
  Alcotest.(check bool) "s3 not directly CD on s1... (it is transitive via s2)" true
    (not (Cfg.Nset.mem (Cfg.Stmt 1) (dep_of (Cfg.Stmt 3))));
  Alcotest.(check bool) "s2 CD on s1" true (Cfg.Nset.mem (Cfg.Stmt 1) (dep_of (Cfg.Stmt 2)))

let test_cdg_loop_body () =
  (* 1: while(c){ 2: x=1; } 3: y=1; — body CD on loop header; s3 not. *)
  let g = Cfg.of_block (parse_main "main { while (c) { x = 1; } y = 1; }") in
  let cdg = Cdg.compute g in
  Alcotest.(check bool) "body CD on header" true
    (Cfg.Nset.mem (Cfg.Stmt 1) (Cdg.deps_of cdg (Cfg.Stmt 2)));
  Alcotest.(check bool) "continuation not CD on header" false
    (Cfg.Nset.mem (Cfg.Stmt 1) (Cdg.deps_of cdg (Cfg.Stmt 3)))

let test_cdg_else_branch () =
  (* 1: if(c){2: x=1;} else {3: x=2;} — both arms CD on s1. *)
  let g = Cfg.of_block (parse_main "main { if (c) { x = 1; } else { x = 2; } }") in
  let cdg = Cdg.compute g in
  Alcotest.(check bool) "then CD" true (Cfg.Nset.mem (Cfg.Stmt 1) (Cdg.deps_of cdg (Cfg.Stmt 2)));
  Alcotest.(check bool) "else CD" true (Cfg.Nset.mem (Cfg.Stmt 1) (Cdg.deps_of cdg (Cfg.Stmt 3)));
  (* controls view agrees *)
  let c = Cdg.controlled_by cdg (Cfg.Stmt 1) in
  Alcotest.(check int) "controls both arms" 2 (Cfg.Nset.cardinal c)

let test_cdg_early_return () =
  (* 1: if(c){ 2: return; } 3: x=1; — s3 IS control dependent on s1
     (taking the branch skips it). *)
  let g = Cfg.of_block (parse_main "main { if (c) { return; } x = 1; }") in
  let cdg = Cdg.compute g in
  Alcotest.(check bool) "s3 CD on s1" true
    (Cfg.Nset.mem (Cfg.Stmt 1) (Cdg.deps_of cdg (Cfg.Stmt 3)))

(* Dominance against its definition, on every corpus NF's [main] and
   packet-loop body: [m] dominates [n] exactly when [n] is unreachable
   from [Entry] once [m] is removed, [m] post-dominates [n] exactly when
   [Exit] is unreachable from [n] once [m] is removed, and the immediate
   (post-)dominator is the strict one every other strict one
   (post-)dominates. *)
let test_dominance_definition () =
  let check_tree what g ~root ~next tree =
    let nodes = Cfg.nodes g in
    (* Nodes reachable from [root] along [next] without entering [cut]. *)
    let reach ~cut =
      let rec go seen = function
        | [] -> seen
        | n :: rest ->
            if Cfg.Nset.mem n seen || Some n = cut then go seen rest
            else go (Cfg.Nset.add n seen) (next n @ rest)
      in
      go Cfg.Nset.empty [ root ]
    in
    let all = reach ~cut:None in
    Alcotest.(check int) (what ^ ": every node reachable") (List.length nodes)
      (Cfg.Nset.cardinal all);
    let avoiding = List.map (fun m -> (m, reach ~cut:(Some m))) nodes in
    let doms n =
      List.filter_map
        (fun (m, r) -> if Cfg.node_equal m n || not (Cfg.Nset.mem n r) then Some m else None)
        avoiding
    in
    List.iter
      (fun n ->
        let ds = doms n in
        List.iter
          (fun m ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s over %s" what (Cfg.node_to_string m) (Cfg.node_to_string n))
              (List.exists (Cfg.node_equal m) ds)
              (Dominance.dominates tree m n))
          nodes;
        let strict = List.filter (fun m -> not (Cfg.node_equal m n)) ds in
        let idom =
          List.find_opt
            (fun d -> List.for_all (fun o -> List.exists (Cfg.node_equal o) (doms d)) strict)
            strict
        in
        Alcotest.(check (option string))
          (Printf.sprintf "%s: immediate of %s" what (Cfg.node_to_string n))
          (Option.map Cfg.node_to_string idom)
          (Option.map Cfg.node_to_string (Dominance.immediate tree n)))
      nodes
  in
  List.iter
    (fun name ->
      let p =
        Nfactor.Extract.canonical_stage ((Option.get (Nfs.Corpus.find name)).Nfs.Corpus.program ())
      in
      let _, body, _ = Transform.packet_loop p in
      List.iter
        (fun (part, block) ->
          let g = Cfg.of_block block in
          let what dir = Printf.sprintf "%s %s %s" name part dir in
          check_tree (what "dom") g ~root:Cfg.Entry ~next:(Cfg.succ_nodes g)
            (Dominance.dominators g);
          check_tree (what "pdom") g ~root:Cfg.Exit ~next:(Cfg.pred_nodes g)
            (Dominance.post_dominators g))
        [ ("main", p.Ast.main); ("loop body", body) ])
    Nfs.Corpus.names

let suite =
  [
    Alcotest.test_case "dominators (diamond)" `Quick test_dominators_diamond;
    Alcotest.test_case "postdominators (diamond)" `Quick test_postdominators_diamond;
    Alcotest.test_case "immediate dominators" `Quick test_immediate_dominators;
    Alcotest.test_case "loop postdominance" `Quick test_loop_postdominance;
    Alcotest.test_case "dominance matches its definition (corpus)" `Quick
      test_dominance_definition;
    Alcotest.test_case "cdg: if" `Quick test_cdg_if;
    Alcotest.test_case "cdg: nested if" `Quick test_cdg_nested;
    Alcotest.test_case "cdg: loop body" `Quick test_cdg_loop_body;
    Alcotest.test_case "cdg: else branch" `Quick test_cdg_else_branch;
    Alcotest.test_case "cdg: early return" `Quick test_cdg_early_return;
  ]
