(* The mutable flow-state store: snapshot round-trips, Unresolved
   parity with the reference evaluator, and the capacity bound's LRU
   eviction discipline. *)

open Symexec
open Nfactor_runtime

let smap_of kvs =
  List.fold_left
    (fun acc (k, v) -> Nfactor.Model_interp.Smap.add k v acc)
    Nfactor.Model_interp.Smap.empty kvs

let base_store =
  smap_of
    [
      ("mode", Value.Int 1);
      ("greeting", Value.Str "hi");
      ( "tbl",
        Value.Dict [ (Value.Int 1, Value.Str "a"); (Value.Int 2, Value.Str "b") ] );
    ]

let value = Alcotest.testable Value.pp Value.equal

let test_snapshot_roundtrip () =
  let fs = Flowstate.create base_store in
  Alcotest.(check bool) "snapshot == source store" true
    (Nfactor.Model_interp.Smap.equal Value.equal base_store (Flowstate.snapshot fs))

let test_reads () =
  let fs = Flowstate.create base_store in
  Alcotest.check value "scalar" (Value.Int 1) (Flowstate.read fs "mode");
  Alcotest.check value "table materializes sorted"
    (Value.Dict [ (Value.Int 1, Value.Str "a"); (Value.Int 2, Value.Str "b") ])
    (Flowstate.read fs "tbl");
  Alcotest.(check bool) "mem hit" true (Flowstate.table_mem fs "tbl" (Value.Int 2));
  Alcotest.(check bool) "mem miss" false (Flowstate.table_mem fs "tbl" (Value.Int 9));
  Alcotest.(check (option value)) "find" (Some (Value.Str "a"))
    (Flowstate.table_find fs "tbl" (Value.Int 1))

let test_unresolved () =
  let fs = Flowstate.create base_store in
  Alcotest.check_raises "missing name" (Nfactor.Model_interp.Unresolved "nope") (fun () ->
      ignore (Flowstate.read fs "nope"));
  Alcotest.check_raises "scalar as dict" (Nfactor.Model_interp.Unresolved "dict mode")
    (fun () -> ignore (Flowstate.handle fs "mode"));
  Alcotest.check_raises "missing dict" (Nfactor.Model_interp.Unresolved "dict nope")
    (fun () -> ignore (Flowstate.handle fs "nope"))

let test_writes () =
  let fs = Flowstate.create base_store in
  Flowstate.set_scalar fs "mode" (Value.Int 7);
  Alcotest.check value "scalar overwrite" (Value.Int 7) (Flowstate.read fs "mode");
  Flowstate.table_set fs "tbl" (Value.Int 3) (Value.Str "c");
  Flowstate.table_remove fs "tbl" (Value.Int 1);
  Alcotest.check value "table after set/remove"
    (Value.Dict [ (Value.Int 2, Value.Str "b"); (Value.Int 3, Value.Str "c") ])
    (Flowstate.read fs "tbl");
  (* assigning a Dict value rebuilds the table wholesale *)
  Flowstate.set_scalar fs "tbl" (Value.Dict [ (Value.Int 9, Value.Int 0) ]);
  Alcotest.(check int) "rebuilt table" 1 (Flowstate.table_size fs "tbl")

let test_capacity_eviction () =
  let fs = Flowstate.create ~capacity:2 (smap_of [ ("t", Value.Dict []) ]) in
  Flowstate.bump_clock fs;
  Flowstate.table_set fs "t" (Value.Int 1) (Value.Str "one");
  Flowstate.bump_clock fs;
  Flowstate.table_set fs "t" (Value.Int 2) (Value.Str "two");
  Flowstate.bump_clock fs;
  Flowstate.table_set fs "t" (Value.Int 3) (Value.Str "three");
  Alcotest.(check int) "size stays at capacity" 2 (Flowstate.table_size fs "t");
  Alcotest.(check int) "one eviction" 1 (Flowstate.evictions fs);
  Alcotest.(check bool) "oldest key evicted" false (Flowstate.table_mem fs "t" (Value.Int 1));
  Alcotest.(check bool) "recent keys survive" true
    (Flowstate.table_mem fs "t" (Value.Int 2) && Flowstate.table_mem fs "t" (Value.Int 3));
  (* a bound below one would evict every insert: rejected up front *)
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Flowstate.create: capacity must be >= 1")
    (fun () -> ignore (Flowstate.create ~capacity:0 (smap_of [ ("t", Value.Dict []) ])))

let test_lru_touch () =
  let fs = Flowstate.create ~capacity:2 (smap_of [ ("t", Value.Dict []) ]) in
  Flowstate.bump_clock fs;
  Flowstate.table_set fs "t" (Value.Int 1) (Value.Str "one");
  Flowstate.bump_clock fs;
  Flowstate.table_set fs "t" (Value.Int 2) (Value.Str "two");
  (* reading key 1 refreshes its recency, so key 2 is now the LRU *)
  Flowstate.bump_clock fs;
  ignore (Flowstate.table_find fs "t" (Value.Int 1));
  Flowstate.bump_clock fs;
  Flowstate.table_set fs "t" (Value.Int 3) (Value.Str "three");
  Alcotest.(check bool) "touched key survives" true (Flowstate.table_mem fs "t" (Value.Int 1));
  Alcotest.(check bool) "untouched key evicted" false (Flowstate.table_mem fs "t" (Value.Int 2))

let test_eviction_tiebreak () =
  (* both keys inserted in the same clock tick: the smaller one goes,
     independent of hash-table layout *)
  let fs = Flowstate.create ~capacity:2 (smap_of [ ("t", Value.Dict []) ]) in
  Flowstate.bump_clock fs;
  Flowstate.table_set fs "t" (Value.Int 42) (Value.Str "a");
  Flowstate.table_set fs "t" (Value.Int 7) (Value.Str "b");
  Flowstate.table_set fs "t" (Value.Int 99) (Value.Str "c");
  Alcotest.(check bool) "smaller key evicted" false (Flowstate.table_mem fs "t" (Value.Int 7));
  Alcotest.(check bool) "larger key kept" true (Flowstate.table_mem fs "t" (Value.Int 42))

let test_update_refreshes_no_eviction () =
  let fs = Flowstate.create ~capacity:2 (smap_of [ ("t", Value.Dict []) ]) in
  Flowstate.table_set fs "t" (Value.Int 1) (Value.Str "one");
  Flowstate.table_set fs "t" (Value.Int 2) (Value.Str "two");
  (* overwriting an existing key must not trigger eviction *)
  Flowstate.table_set fs "t" (Value.Int 1) (Value.Str "uno");
  Alcotest.(check int) "no eviction on update" 0 (Flowstate.evictions fs);
  Alcotest.(check (option value)) "updated in place" (Some (Value.Str "uno"))
    (Flowstate.table_find fs "t" (Value.Int 1))

(* Regression for the clock-stamping fix: keys written through a
   whole-dict overwrite carry the overwrite-time clock (the mli's
   "as recent as any other write"), so recency from that point on is
   driven purely by touches — an untouched rebuilt key is evicted
   before a touched one, never the other way around. *)
let test_overwrite_stamps_recency () =
  let fs = Flowstate.create ~capacity:2 (smap_of [ ("t", Value.Dict []) ]) in
  Flowstate.bump_clock fs;
  Flowstate.table_set fs "t" (Value.Int 1) (Value.Str "old");
  Flowstate.bump_clock fs;
  Flowstate.set_scalar fs "t"
    (Value.Dict [ (Value.Int 10, Value.Str "a"); (Value.Int 11, Value.Str "b") ]);
  Alcotest.(check int) "rebuild replaces the table" 2 (Flowstate.table_size fs "t");
  Flowstate.bump_clock fs;
  ignore (Flowstate.table_find fs "t" (Value.Int 11));
  Flowstate.bump_clock fs;
  Flowstate.table_set fs "t" (Value.Int 12) (Value.Str "c");
  Alcotest.(check bool) "untouched rebuilt key evicted" false
    (Flowstate.table_mem fs "t" (Value.Int 10));
  Alcotest.(check bool) "touched rebuilt key survives" true
    (Flowstate.table_mem fs "t" (Value.Int 11));
  (* rebuilt keys within one overwrite share a stamp: eviction among
     them falls back to the deterministic smaller-key tie-break *)
  let fs2 = Flowstate.create ~capacity:2 (smap_of [ ("t", Value.Dict []) ]) in
  Flowstate.bump_clock fs2;
  Flowstate.set_scalar fs2 "t"
    (Value.Dict [ (Value.Int 20, Value.Str "a"); (Value.Int 21, Value.Str "b") ]);
  Flowstate.bump_clock fs2;
  Flowstate.table_set fs2 "t" (Value.Int 5) (Value.Str "c");
  Alcotest.(check bool) "tie-break evicts the smaller rebuilt key" false
    (Flowstate.table_mem fs2 "t" (Value.Int 20))

(* [handle_get] is the allocation-free twin of [handle_find]: same
   values, [Not_found] exactly where [handle_find] is [None], and the
   same recency stamping (a got key must not be the LRU victim). *)
let test_handle_get () =
  let fs = Flowstate.create ~capacity:2 (smap_of [ ("t", Value.Dict []) ]) in
  Flowstate.bump_clock fs;
  Flowstate.table_set fs "t" (Value.Int 1) (Value.Str "one");
  Flowstate.table_set fs "t" (Value.Int 2) (Value.Str "two");
  let h = Flowstate.handle fs "t" in
  Alcotest.check value "get hit" (Value.Str "one") (Flowstate.handle_get fs h (Value.Int 1));
  Alcotest.check_raises "get miss" Stdlib.Not_found (fun () ->
      ignore (Flowstate.handle_get fs h (Value.Int 9)));
  Flowstate.bump_clock fs;
  ignore (Flowstate.handle_get fs h (Value.Int 1));
  Flowstate.bump_clock fs;
  Flowstate.table_set fs "t" (Value.Int 3) (Value.Str "three");
  Alcotest.(check bool) "got key survives eviction" true
    (Flowstate.table_mem fs "t" (Value.Int 1));
  Alcotest.(check bool) "un-got key evicted" false (Flowstate.table_mem fs "t" (Value.Int 2))

let suite =
  [
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "reads" `Quick test_reads;
    Alcotest.test_case "unresolved parity" `Quick test_unresolved;
    Alcotest.test_case "writes" `Quick test_writes;
    Alcotest.test_case "capacity eviction" `Quick test_capacity_eviction;
    Alcotest.test_case "lru touch" `Quick test_lru_touch;
    Alcotest.test_case "eviction tie-break" `Quick test_eviction_tiebreak;
    Alcotest.test_case "update does not evict" `Quick test_update_refreshes_no_eviction;
    Alcotest.test_case "dict overwrite stamps recency" `Quick test_overwrite_stamps_recency;
    Alcotest.test_case "handle_get == handle_find" `Quick test_handle_get;
  ]
