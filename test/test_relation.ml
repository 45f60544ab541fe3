module R = Dcd_storage.Relation
module Ix = Dcd_storage.Slot_index
module Arena = Dcd_storage.Arena
module Tt = Dcd_storage.Tuple_table
module P = Dcd_storage.Partition
module Si = Dcd_storage.Sorted_index

(* matches of a keyed probe, through the relation *)
let count ix key =
  let n = ref 0 in
  R.iter_index ix key (fun _ _ -> incr n);
  !n

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
  Alcotest.(check int) "index covers existing" 1 (count idx [| 1 |]);
  ignore (R.add r [| 1; 11 |]);
  Alcotest.(check int) "index sees later adds" 2 (count idx [| 1 |]);
  ignore (R.add r [| 1; 11 |]);
  Alcotest.(check int) "duplicates not double-indexed" 2 (count idx [| 1 |])

let test_composite_key () =
  let r = R.create ~name:"t" ~arity:3 () in
  List.iter (fun t -> ignore (R.add r t)) [ [| 1; 5; 3 |]; [| 1; 6; 3 |]; [| 2; 5; 3 |] ];
  let idx = R.ensure_index r ~key_cols:[| 2; 0 |] in
  (* key is (col2, col0) = (3, 1) for the first two *)
  Alcotest.(check int) "composite key groups" 2 (count idx [| 3; 1 |]);
  Alcotest.(check int) "other group" 1 (count idx [| 3; 2 |]);
  Alcotest.(check int) "key order matters" 0 (count idx [| 1; 3 |])

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
  let a = (R.arenas r).(0) in
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
      R.iter_index idx [| probe |] (fun data off -> got := (data.(off), data.(off + 1)) :: !got);
      let scan () =
        let acc = ref [] in
        R.iter_prefix r ~prefix:[| probe |] (fun t -> acc := (t.(0), t.(1)) :: !acc);
        List.sort compare !acc
      in
      let flat = scan () in
      ignore (R.ensure_sorted_index r ~cols:[| 0; 1 |]);
      List.sort compare !got = want
      && Ix.count (Option.get (R.slot_index idx)) [| probe |] = List.length want
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

(* --- sharded relations ---

   [sharded n ~cols rows] splits the distinct rows into n tables by
   Partition's placement on [cols], as the engine's workers fill them,
   and adopts the tables as one relation.  Every read is checked
   against a linear model: the distinct rows. *)

let sharded n ~cols rows =
  let h = P.create ~workers:n in
  let tables = Array.init n (fun _ -> Tt.create ~arity:3 ()) in
  List.iter (fun t -> ignore (Tt.add tables.(P.of_slice h ~cols t 0) t)) rows;
  R.of_shards ~name:"e" ~arity:3 ~cols tables

let project t cols = Array.map (fun c -> t.(c)) cols

let holds_shard_cols ~cols key_cols = Array.for_all (fun c -> Array.mem c key_cols) cols

let shard_col_choices = [ [| 0 |]; [| 1 |]; [| 2; 0 |]; [| 0; 1; 2 |] ]

(* key-column lists, some holding the shard columns and some not, for
   every choice above *)
let key_col_choices = [ [| 0 |]; [| 1 |]; [| 2 |]; [| 1; 0 |]; [| 0; 2 |]; [| 2; 1; 0 |] ]

(* [None] when every read agrees with the model, else the first
   disagreement *)
let check_sharded n ~cols rows ~absent =
  let r = sharded n ~cols rows in
  let model = List.sort_uniq compare rows in
  let sorted_rows l = List.sort compare l in
  let fail fmt = Printf.ksprintf (fun m -> Some m) fmt in
  let ( >>= ) a f = match a with Some _ -> a | None -> f () in
  let buf = Array.make 8 (-1) in
  let mem_slice t =
    Array.blit t 0 buf 3 3;
    R.mem_slice r buf 3
  in
  let visited () =
    let acc = ref [] in
    R.iter_slices r (fun data off -> acc := Array.sub data off 3 :: !acc);
    sorted_rows !acc
  in
  let keyed_all () =
    List.fold_left
      (fun acc key_cols ->
        acc >>= fun () ->
        let ix = R.ensure_index r ~key_cols in
        let probes = List.map (fun t -> project t key_cols) (model @ absent) in
        List.fold_left
          (fun acc key ->
            acc >>= fun () ->
            let got = ref [] in
            R.iter_index ix key (fun data off -> got := Array.sub data off 3 :: !got);
            let want = List.filter (fun t -> project t key_cols = key) model in
            if sorted_rows !got = want then None
            else
              fail "n=%d: probe on %s (%s the shard columns) found %d, want %d" n
                (String.concat "," (Array.to_list (Array.map string_of_int key_cols)))
                (if holds_shard_cols ~cols key_cols then "holds" else "lacks")
                (List.length !got) (List.length want))
          None probes)
      None key_col_choices
  in
  let prefixes () =
    List.fold_left
      (fun acc t ->
        acc >>= fun () ->
        List.fold_left
          (fun acc k ->
            acc >>= fun () ->
            let prefix = Array.sub t 0 k in
            let got = ref [] in
            R.iter_prefix r ~prefix (fun t -> got := t :: !got);
            let want = List.filter (fun t -> Array.sub t 0 k = prefix) model in
            if sorted_rows !got = want then None else fail "n=%d: iter_prefix of length %d" n k)
          None [ 1; 2 ])
      None (model @ absent)
  in
  (if R.shards r <> n then fail "%d shards, want %d" (R.shards r) n else None)
  >>= (fun () -> if R.length r <> List.length model then fail "n=%d: length" n else None)
  >>= (fun () ->
  match List.find_opt (fun t -> not (R.mem r t && mem_slice t)) model with
  | Some _ -> fail "n=%d: a present tuple is not found" n
  | None -> None)
  >>= (fun () ->
  match List.find_opt (fun t -> R.mem r t || mem_slice t) absent with
  | Some _ -> fail "n=%d: an absent tuple is found" n
  | None -> None)
  >>= (fun () -> if visited () <> model then fail "n=%d: iter_slices visits another set" n else None)
  >>= (fun () ->
  if Array.fold_left (fun acc a -> acc + Arena.length a) 0 (R.arenas r) <> List.length model then
    fail "n=%d: arena rows" n
  else None)
  >>= keyed_all >>= prefixes
  >>= (fun () ->
  if n > 1 && (try ignore (R.add r [| 0; 0; 0 |]); true with Invalid_argument _ -> false) then
    fail "n=%d: a sharded relation took an insert" n
  else None)
  >>= (fun () ->
  (* the sorted index merges the shards into one table; the keyed
     indexes follow it *)
  let si = R.ensure_sorted_index r ~cols:[| 0; 1; 2 |] in
  if R.shards r <> 1 then fail "n=%d: %d shards after the sorted index" n (R.shards r)
  else if Si.length si <> List.length model then fail "n=%d: sorted index length" n
  else None)
  >>= keyed_all >>= prefixes
  >>= fun () -> if visited () <> model then fail "n=%d: merged relation visits another set" n else None

let row_gen = QCheck.(triple (int_range 0 7) (int_range 0 7) (int_range 0 7))

let prop_sharded_model =
  QCheck.Test.make ~name:"sharded relation = linear model (n = 1, 2, 4)" ~count:60
    QCheck.(pair (list_of_size (Gen.int_range 0 80) row_gen) (list_of_size (Gen.return 12) row_gen))
    (fun (rows, absent) ->
      let rows = List.map (fun (a, b, c) -> [| a; b; c |]) rows in
      let absent =
        List.filter (fun t -> not (List.mem t rows)) (List.map (fun (a, b, c) -> [| a; b; c |]) absent)
      in
      List.for_all
        (fun n ->
          List.for_all
            (fun cols ->
              match check_sharded n ~cols rows ~absent with
              | None -> true
              | Some m -> QCheck.Test.fail_report m)
            shard_col_choices)
        [ 1; 2; 4 ])

(* A fixed instance over enough keys that every shard holds tuples and
   every probe kind finds matches, at each shard count. *)
let test_sharded_fixed () =
  let rows = List.init 400 (fun i -> [| i mod 37; i mod 11; i |]) in
  let absent = List.init 50 (fun i -> [| i; i + 100; 1000 + i |]) in
  List.iter
    (fun n ->
      List.iter
        (fun cols ->
          let r = sharded n ~cols rows in
          Array.iter
            (fun a -> if Arena.length a = 0 then Alcotest.failf "n=%d: an empty shard" n)
            (R.arenas r);
          match check_sharded n ~cols rows ~absent with
          | None -> ()
          | Some m -> Alcotest.fail m)
        shard_col_choices)
    [ 1; 2; 4 ]

let test_sharded_refuses_insert () =
  let r = sharded 2 ~cols:[| 0 |] [ [| 1; 2; 3 |]; [| 2; 3; 4 |] ] in
  Alcotest.check_raises "insert into a sharded relation"
    (Invalid_argument "Relation.add: e has 2 shards") (fun () -> ignore (R.add r [| 5; 6; 7 |]));
  Alcotest.(check int) "nothing added" 2 (R.length r);
  let one = sharded 1 ~cols:[| 0 |] [ [| 1; 2; 3 |] ] in
  Alcotest.(check bool) "one adopted shard takes inserts" true (R.add one [| 5; 6; 7 |]);
  Alcotest.(check bool) "and finds them" true (R.mem one [| 5; 6; 7 |])

let test_of_shards_rejects () =
  let bad what tables =
    match R.of_shards ~name:"e" ~arity:2 ~cols:[| 0 |] tables with
    | _ -> Alcotest.failf "accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  bad "no tables" [||];
  bad "another arity" [| Tt.create ~arity:3 () |];
  bad "extra columns" [| Tt.create ~extra:1 ~arity:2 () |];
  let freed = Tt.create ~arity:2 () in
  ignore (Tt.add freed [| 1; 2 |]);
  ignore (Tt.add freed [| 3; 4 |]);
  ignore (Tt.remove_slice freed [| 1; 2 |] 0);
  bad "a freed slot" [| freed |];
  match R.of_shards ~name:"e" ~arity:2 ~cols:[| 2 |] [| Tt.create ~arity:2 () |] with
  | _ -> Alcotest.fail "accepted a shard column out of range"
  | exception Invalid_argument _ -> ()

(* An existence probe on a sharded relation hashes the shard columns
   and probes one table: no closure, no allocation. *)
let test_sharded_mem_allocation () =
  let rows = List.init 1000 (fun i -> [| i; i * 3; i * 7 |]) in
  let r = sharded 4 ~cols:[| 1 |] rows in
  let probe = [| 0; 0; 0 |] in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    let j = i mod 2000 in
    probe.(0) <- j;
    probe.(1) <- j * 3;
    probe.(2) <- j * 7;
    if R.mem_slice r probe 0 then incr hits
  done;
  let per_probe = (Gc.minor_words () -. before) /. 10_000. in
  Alcotest.(check int) "half present" 5000 !hits;
  if per_probe >= 1. then Alcotest.failf "%.2f minor words per probe, bound 1" per_probe

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
      ( "sharded",
        [
          Alcotest.test_case "fixed instance, n = 1, 2, 4" `Quick test_sharded_fixed;
          Alcotest.test_case "refused insert" `Quick test_sharded_refuses_insert;
          Alcotest.test_case "of_shards rejects non-shards" `Quick test_of_shards_rejects;
          Alcotest.test_case "mem allocates nothing" `Quick test_sharded_mem_allocation;
          QCheck_alcotest.to_alcotest prop_sharded_model;
        ] );
    ]
