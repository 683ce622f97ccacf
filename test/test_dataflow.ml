open Nfl
module Sset = Ast.Sset

let parse_main src = (Parser.program src).Ast.main

let test_defs_uses () =
  let b = parse_main "main { x = y + z; d[k] = v; pkt.ip_src = a; del d[k2]; send(p); }" in
  let s = List.nth b in
  let check_du i defs uses =
    let st = s i in
    Alcotest.(check (slist string compare)) "defs" defs (Sset.elements (Dataflow.Defs_uses.defs st));
    Alcotest.(check (slist string compare)) "uses" uses (Sset.elements (Dataflow.Defs_uses.uses st))
  in
  check_du 0 [ "x" ] [ "y"; "z" ];
  check_du 1 [ "d" ] [ "d"; "k"; "v" ];
  check_du 2 [ "pkt" ] [ "a"; "pkt" ];
  check_du 3 [ "d" ] [ "d"; "k2" ];
  check_du 4 [] [ "p" ]

let test_strong_vs_weak () =
  let b = parse_main "main { x = 1; d[k] = 1; pkt.f = 1; del d[k]; }" in
  let strong i = Dataflow.Defs_uses.is_strong_def (List.nth b i) in
  Alcotest.(check bool) "x=1 strong" true (strong 0);
  Alcotest.(check bool) "d[k]=1 weak" false (strong 1);
  Alcotest.(check bool) "pkt.f=1 weak" false (strong 2);
  Alcotest.(check bool) "del weak" false (strong 3)

(* ids: 1: x=1; 2: x=2; 3: y=x; — only def 2 reaches s3. *)
let test_reaching_kill () =
  let b = parse_main "main { x = 1; x = 2; y = x; }" in
  let g = Cfg.of_block b in
  let sol = Dataflow.Reaching.solve g in
  let defs = Dataflow.Reaching.defs_reaching sol (Cfg.Stmt 3) "x" in
  Alcotest.(check (list int)) "only s2" [ 2 ] defs

(* ids: 1: if(c){2: x=1;}else{3: x=2;} 4: y=x; — both defs reach. *)
let test_reaching_join () =
  let b = parse_main "main { if (c) { x = 1; } else { x = 2; } y = x; }" in
  let g = Cfg.of_block b in
  let sol = Dataflow.Reaching.solve g in
  let defs = Dataflow.Reaching.defs_reaching sol (Cfg.Stmt 4) "x" in
  Alcotest.(check (list int)) "both defs" [ 2; 3 ] (List.sort compare defs)

(* Weak updates accumulate: 1: d[a]=1; 2: d[b]=2; 3: y=d[k]; *)
let test_reaching_weak_updates_accumulate () =
  let b = parse_main "main { d[a] = 1; d[b] = 2; y = d[k]; }" in
  let g = Cfg.of_block b in
  let sol = Dataflow.Reaching.solve g in
  let defs = Dataflow.Reaching.defs_reaching sol (Cfg.Stmt 3) "d" in
  Alcotest.(check (list int)) "both container writes reach" [ 1; 2 ] (List.sort compare defs)

(* Loop-carried: 1: while(c){ 2: x=x+1; } — def at s2 reaches s2 again. *)
let test_reaching_loop_carried () =
  let b = parse_main "main { while (c) { x = x + 1; } }" in
  let g = Cfg.of_block b in
  let sol = Dataflow.Reaching.solve g in
  let defs = Dataflow.Reaching.defs_reaching sol (Cfg.Stmt 2) "x" in
  Alcotest.(check (list int)) "loop carried" [ 2 ] (List.sort compare defs)

let test_reaching_entry_defs () =
  let b = parse_main "main { y = x; }" in
  let g = Cfg.of_block b in
  let sol = Dataflow.Reaching.solve ~entry_defs:(Sset.singleton "x") g in
  let defs = Dataflow.Reaching.defs_reaching sol (Cfg.Stmt 1) "x" in
  Alcotest.(check (list int)) "pseudo-def id 0" [ 0 ] defs

(* ids: 1: x=1; 2: y=x; 3: z=y; — liveness. *)
let test_liveness_chain () =
  let b = parse_main "main { x = 1; y = x; z = y; }" in
  let g = Cfg.of_block b in
  let sol = Dataflow.Liveness.solve g in
  Alcotest.(check (slist string compare)) "x live into s2" [ "x" ]
    (Sset.elements (sol.Dataflow.Liveness.live_in (Cfg.Stmt 2)));
  Alcotest.(check (slist string compare)) "nothing live out of s3" []
    (Sset.elements (sol.Dataflow.Liveness.live_out (Cfg.Stmt 3)));
  Alcotest.(check (slist string compare)) "nothing live into s1" []
    (Sset.elements (sol.Dataflow.Liveness.live_in (Cfg.Stmt 1)))

let test_liveness_branch () =
  (* 1: if(c){2: y=a;}else{3: y=b;} 4: send(y); *)
  let b = parse_main "main { if (c) { y = a; } else { y = b; } send(y); }" in
  let g = Cfg.of_block b in
  let sol = Dataflow.Liveness.solve g in
  let live1 = sol.Dataflow.Liveness.live_in (Cfg.Stmt 1) in
  Alcotest.(check (slist string compare)) "a b c live at branch" [ "a"; "b"; "c" ]
    (Sset.elements live1)

let test_liveness_at_exit () =
  let b = parse_main "main { x = 1; }" in
  let g = Cfg.of_block b in
  let sol = Dataflow.Liveness.solve ~live_at_exit:(Sset.singleton "x") g in
  Alcotest.(check bool) "x live out of s1" true
    (Sset.mem "x" (sol.Dataflow.Liveness.live_out (Cfg.Stmt 1)))

let test_liveness_loop () =
  (* 1: while(c){ 2: x=x+1; } — x live at loop entry (loop-carried use). *)
  let b = parse_main "main { while (c) { x = x + 1; } }" in
  let g = Cfg.of_block b in
  let sol = Dataflow.Liveness.solve g in
  Alcotest.(check bool) "x live into header" true
    (Sset.mem "x" (sol.Dataflow.Liveness.live_in (Cfg.Stmt 1)))

let suite =
  [
    Alcotest.test_case "defs/uses" `Quick test_defs_uses;
    Alcotest.test_case "strong vs weak defs" `Quick test_strong_vs_weak;
    Alcotest.test_case "reaching: kill" `Quick test_reaching_kill;
    Alcotest.test_case "reaching: join" `Quick test_reaching_join;
    Alcotest.test_case "reaching: weak updates accumulate" `Quick test_reaching_weak_updates_accumulate;
    Alcotest.test_case "reaching: loop carried" `Quick test_reaching_loop_carried;
    Alcotest.test_case "reaching: entry defs" `Quick test_reaching_entry_defs;
    Alcotest.test_case "liveness: chain" `Quick test_liveness_chain;
    Alcotest.test_case "liveness: branch" `Quick test_liveness_branch;
    Alcotest.test_case "liveness: live at exit" `Quick test_liveness_at_exit;
    Alcotest.test_case "liveness: loop" `Quick test_liveness_loop;
  ]
