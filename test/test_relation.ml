module R = Dcd_storage.Relation
module Ix = Dcd_storage.Slot_index
module Arena = Dcd_storage.Arena

let test_add_dedup_arity () =
  let r = R.create ~name:"edge" ~arity:2 () in
  Alcotest.(check string) "name" "edge" (R.name r);
  Alcotest.(check int) "arity" 2 (R.arity r);
  Alcotest.(check bool) "fresh" true (R.add r [| 1; 2 |]);
  Alcotest.(check bool) "duplicate" false (R.add r [| 1; 2 |]);
  Alcotest.(check int) "length" 1 (R.length r);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation.add: arity mismatch on edge (got 3, want 2)") (fun () ->
      ignore (R.add r [| 1; 2; 3 |]))

let test_zero_arity () =
  let r = R.create ~name:"flag" ~arity:0 () in
  Alcotest.(check bool) "zero-arity tuple" true (R.add r [||]);
  Alcotest.(check bool) "zero-arity dedup" false (R.add r [||]);
  Alcotest.(check bool) "zero-arity mem" true (R.mem r [||]);
  Alcotest.(check int) "one tuple" 1 (R.length r);
  let n = ref 0 in
  R.iter (fun _ -> incr n) r;
  Alcotest.(check int) "iterated once" 1 !n

let test_growth () =
  let r = R.create ~size_hint:1 ~name:"g" ~arity:2 () in
  for i = 0 to 9999 do
    ignore (R.add r [| i; i * 3 |])
  done;
  Alcotest.(check int) "all kept through growth" 10000 (R.length r);
  for i = 0 to 9999 do
    if not (R.mem r [| i; i * 3 |]) then Alcotest.fail "lost a tuple during growth"
  done

let test_index_maintained_incrementally () =
  let r = R.create ~name:"e" ~arity:2 () in
  ignore (R.add r [| 1; 10 |]);
  let idx = R.ensure_index r ~key_cols:[| 0 |] in
  Alcotest.(check int) "index covers existing" 1 (Ix.count idx [| 1 |]);
  ignore (R.add r [| 1; 11 |]);
  Alcotest.(check int) "index sees later adds" 2 (Ix.count idx [| 1 |]);
  ignore (R.add r [| 1; 11 |]);
  Alcotest.(check int) "duplicates not double-indexed" 2 (Ix.count idx [| 1 |])

let test_composite_key () =
  let r = R.create ~name:"t" ~arity:3 () in
  List.iter (fun t -> ignore (R.add r t)) [ [| 1; 5; 3 |]; [| 1; 6; 3 |]; [| 2; 5; 3 |] ];
  let idx = R.ensure_index r ~key_cols:[| 2; 0 |] in
  (* key is (col2, col0) = (3, 1) for the first two *)
  Alcotest.(check int) "composite key groups" 2 (Ix.count idx [| 3; 1 |]);
  Alcotest.(check int) "other group" 1 (Ix.count idx [| 3; 2 |]);
  Alcotest.(check int) "key order matters" 0 (Ix.count idx [| 1; 3 |])

let test_ensure_index_idempotent () =
  let r = R.create ~name:"e" ~arity:2 () in
  let a = R.ensure_index r ~key_cols:[| 1 |] in
  let b = R.ensure_index r ~key_cols:[| 1 |] in
  Alcotest.(check bool) "same physical index" true (a == b);
  let c = R.ensure_index r ~key_cols:[| 0 |] in
  Alcotest.(check bool) "different cols different index" true (c != a);
  Alcotest.(check (option unit)) "find_index"
    (Some ())
    (Option.map (fun _ -> ()) (R.find_index r ~key_cols:[| 0 |]));
  Alcotest.(check bool) "find missing" true (R.find_index r ~key_cols:[| 0; 1 |] = None)

let test_iter_to_vec () =
  let r = R.create ~name:"x" ~arity:1 () in
  List.iter (fun i -> ignore (R.add r [| i |])) [ 3; 1; 2; 1 ];
  let sum = ref 0 in
  R.iter (fun t -> sum := !sum + t.(0)) r;
  Alcotest.(check int) "iter covers all" 6 !sum;
  Alcotest.(check int) "to_vec size" 3 (Dcd_util.Vec.length (R.to_vec r));
  let a = R.arena r in
  Alcotest.(check (list int)) "arena rows in insertion order" [ 3; 1; 2 ]
    (List.init (Arena.length a) (fun s -> Arena.read a s 0))

(* Index matches and prefix scans, with and without the sorted index,
   against a linear filter of the distinct rows. *)
let prop_matches_filter =
  QCheck.Test.make ~name:"index matches and prefix scans = linear filter" ~count:200
    QCheck.(pair (list (pair (int_range 0 10) (int_range 0 10))) (int_range 0 10))
    (fun (rows, probe) ->
      let r = R.create ~size_hint:1 ~name:"e" ~arity:2 () in
      let idx = R.ensure_index r ~key_cols:[| 0 |] in
      List.iter (fun (a, b) -> ignore (R.add r [| a; b |])) rows;
      let want = List.filter (fun (a, _) -> a = probe) (List.sort_uniq compare rows) in
      let got = ref [] in
      Ix.iter idx [| probe |] (fun data off -> got := (data.(off), data.(off + 1)) :: !got);
      let scan () =
        let acc = ref [] in
        R.iter_prefix r ~prefix:[| probe |] (fun t -> acc := (t.(0), t.(1)) :: !acc);
        List.sort compare !acc
      in
      let flat = scan () in
      ignore (R.ensure_sorted_index r ~cols:[| 0; 1 |]);
      List.sort compare !got = want
      && Ix.count idx [| probe |] = List.length want
      && flat = want
      && scan () = want)

(* An arity-3 relation with one index holds each tuple once: the slot
   table, the chain links and a key table of one entry per distinct
   key, no second copy of the tuples. *)
let test_footprint () =
  let n = 100_000 and keys = 10_000 in
  let r = R.create ~name:"w" ~arity:3 () in
  for i = 0 to n - 1 do
    ignore (R.add r [| i mod keys; i; i * 7 |])
  done;
  ignore (R.ensure_index r ~key_cols:[| 0 |]);
  let per_tuple = float_of_int (Obj.reachable_words (Obj.repr r)) /. float_of_int n in
  if per_tuple > 12. then Alcotest.failf "%.1f words per tuple, bound 12" per_tuple

(* Inserting into a pre-sized relation allocates nothing per tuple:
   linking a fresh slot into the indexes builds no closure. *)
let test_insert_allocation () =
  let n = 10_000 in
  let r = R.create ~size_hint:n ~name:"a" ~arity:2 () in
  ignore (R.ensure_index r ~key_cols:[| 0 |]);
  let row = [| 0; 0 |] in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    row.(0) <- i mod 100;
    row.(1) <- i;
    ignore (R.add_slice r row 0)
  done;
  let per_tuple = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "all inserted" n (R.length r);
  if per_tuple >= 1. then Alcotest.failf "%.2f minor words per inserted tuple, bound 1" per_tuple

let () =
  Alcotest.run "relation"
    [
      ( "unit",
        [
          Alcotest.test_case "add/dedup/arity" `Quick test_add_dedup_arity;
          Alcotest.test_case "zero arity" `Quick test_zero_arity;
          Alcotest.test_case "growth from capacity 1" `Quick test_growth;
          Alcotest.test_case "incremental index" `Quick test_index_maintained_incrementally;
          Alcotest.test_case "composite reordered key" `Quick test_composite_key;
          Alcotest.test_case "ensure_index idempotent" `Quick test_ensure_index_idempotent;
          Alcotest.test_case "iter/to_vec" `Quick test_iter_to_vec;
          Alcotest.test_case "footprint" `Quick test_footprint;
          Alcotest.test_case "insert allocates nothing" `Quick test_insert_allocation;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_matches_filter ]);
    ]
