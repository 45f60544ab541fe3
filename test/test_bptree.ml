module B = Dcd_btree.Bptree

let test_compare_key () =
  Alcotest.(check int) "equal" 0 (B.compare_key [| 1; 2 |] [| 1; 2 |]);
  Alcotest.(check bool) "lex order" true (B.compare_key [| 1; 2 |] [| 1; 3 |] < 0);
  Alcotest.(check bool) "prefix sorts first" true (B.compare_key [| 1 |] [| 1; 0 |] < 0);
  Alcotest.(check bool) "first column dominates" true (B.compare_key [| 2; 0 |] [| 1; 9 |] > 0)

let test_insert_find () =
  let t = B.create ~branching:4 () in
  Alcotest.(check bool) "fresh empty" true (B.is_empty t);
  for i = 0 to 200 do
    B.insert t [| (i * 37) mod 211 |] i
  done;
  B.check_invariants t;
  Alcotest.(check int) "length" 201 (B.length t);
  Alcotest.(check (option int)) "find" (Some 0) (B.find_opt t [| 0 |]);
  Alcotest.(check (option int)) "absent" None (B.find_opt t [| 999 |])

let test_insert_replaces () =
  let t = B.create () in
  B.insert t [| 5 |] 1;
  B.insert t [| 5 |] 2;
  Alcotest.(check int) "no duplicate key" 1 (B.length t);
  Alcotest.(check (option int)) "replaced" (Some 2) (B.find_opt t [| 5 |])

let test_upsert () =
  let t = B.create () in
  B.upsert t [| 1 |] (function None -> 10 | Some v -> v + 1);
  B.upsert t [| 1 |] (function None -> 10 | Some v -> v + 1);
  Alcotest.(check (option int)) "upsert accumulates" (Some 11) (B.find_opt t [| 1 |])

let test_add_if_absent () =
  let t = B.create ~branching:4 () in
  (* fresh keys insert; repeats are absorbed without replacing *)
  for i = 0 to 300 do
    let k = [| (i * 37) mod 211; i mod 3 |] in
    let inserted = B.add_if_absent t k i in
    Alcotest.(check bool) "first occurrence inserts" true inserted
  done;
  B.check_invariants t;
  Alcotest.(check int) "length" 301 (B.length t);
  for i = 0 to 300 do
    let k = [| (i * 37) mod 211; i mod 3 |] in
    let inserted = B.add_if_absent t k (-1) in
    Alcotest.(check bool) "repeat absorbed" false inserted
  done;
  B.check_invariants t;
  Alcotest.(check int) "length unchanged" 301 (B.length t);
  Alcotest.(check (option int)) "existing value untouched" (Some 0) (B.find_opt t [| 0; 0 |])

let test_add_if_absent_scratch_key () =
  (* the key buffer may be reused by the caller: the tree must copy *)
  let t = B.create ~branching:4 () in
  let scratch = [| 0 |] in
  for i = 0 to 63 do
    scratch.(0) <- i;
    ignore (B.add_if_absent t scratch i)
  done;
  B.check_invariants t;
  Alcotest.(check int) "all distinct keys stored" 64 (B.length t);
  for i = 0 to 63 do
    Alcotest.(check (option int)) "key survives scratch reuse" (Some i) (B.find_opt t [| i |])
  done

let test_add_if_absent_agrees_with_mem_insert () =
  (* differential: add_if_absent must behave exactly like the
     mem-then-insert sequence it replaces, under a random workload *)
  let rng = Random.State.make [| 42 |] in
  let a = B.create ~branching:4 () in
  let b = B.create ~branching:4 () in
  for i = 0 to 2_000 do
    let k = [| Random.State.int rng 97; Random.State.int rng 7 |] in
    let via_mem = not (B.mem b k) in
    if via_mem then B.insert b k i;
    let via_single = B.add_if_absent a k i in
    Alcotest.(check bool) "same decision" via_mem via_single
  done;
  B.check_invariants a;
  B.check_invariants b;
  Alcotest.(check int) "same cardinality" (B.length b) (B.length a);
  Alcotest.(check bool) "same contents" true (B.to_list a = B.to_list b)

let test_iter_sorted () =
  let t = B.create ~branching:5 () in
  let rng = Dcd_util.Rng.create 3 in
  for _ = 1 to 500 do
    B.insert t [| Dcd_util.Rng.int rng 1000; Dcd_util.Rng.int rng 1000 |] 0
  done;
  let prev = ref [||] in
  let sorted = ref true in
  B.iter t (fun k _ ->
      if Array.length !prev > 0 && B.compare_key !prev k >= 0 then sorted := false;
      prev := k);
  Alcotest.(check bool) "ascending iteration" true !sorted

let test_prefix () =
  let t = B.create ~branching:4 () in
  for a = 0 to 9 do
    for b = 0 to 9 do
      B.insert t [| a; b |] ((a * 10) + b)
    done
  done;
  let got = ref [] in
  B.iter_prefix t ~prefix:[| 4 |] (fun _ v -> got := v :: !got);
  Alcotest.(check (list int)) "prefix matches" (List.init 10 (fun b -> 40 + b)) (List.rev !got);
  let none = ref 0 in
  B.iter_prefix t ~prefix:[| 42 |] (fun _ _ -> incr none);
  Alcotest.(check int) "no match" 0 !none

let test_of_sorted () =
  let entries = Array.init 1234 (fun i -> ([| i * 2 |], i)) in
  let t = B.of_sorted ~branching:6 entries in
  B.check_invariants t;
  Alcotest.(check int) "bulk length" 1234 (B.length t);
  Alcotest.(check (option int)) "bulk find" (Some 617) (B.find_opt t [| 1234 |]);
  Alcotest.check_raises "unsorted rejected" (Invalid_argument "Bptree.of_sorted: keys must be strictly increasing")
    (fun () -> ignore (B.of_sorted [| ([| 2 |], 0); ([| 1 |], 1) |]))

let test_branching_below_four_rejected () =
  Alcotest.check_raises "create" (Invalid_argument "Bptree.create: branching must be >= 4")
    (fun () -> ignore (B.create ~branching:3 ()));
  Alcotest.check_raises "of_sorted" (Invalid_argument "Bptree.of_sorted") (fun () ->
      ignore (B.of_sorted ~branching:3 [| ([| 1 |], 0) |]));
  let t = B.create ~branching:4 () in
  B.insert t [| 1 |] 1;
  Alcotest.(check int) "branching 4 accepted" 1 (B.length t)

let test_defensive_key_copy () =
  let t = B.create () in
  let k = [| 7 |] in
  B.insert t k 1;
  k.(0) <- 8;
  (* caller mutates its buffer *)
  Alcotest.(check (option int)) "tree unaffected" (Some 1) (B.find_opt t [| 7 |])

(* model-based qcheck against Map *)
module M = Map.Make (struct
  type t = int array

  let compare = B.compare_key
end)

type op =
  | Insert of int * int
  | Add_if_absent of int * int
  | Upsert of int

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun k v -> Insert (k, v)) (int_range 0 200) small_int;
        map2 (fun k v -> Add_if_absent (k, v)) (int_range 0 200) small_int;
        map (fun k -> Upsert k) (int_range 0 200);
      ])

let prop_matches_map =
  QCheck.Test.make ~name:"random ops match Map" ~count:60
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 500) op_gen))
    (fun ops ->
      let branching = 4 + (List.length ops mod 5) in
      let t = B.create ~branching () in
      let m = ref M.empty in
      List.iter
        (fun op ->
          match op with
          | Insert (k, v) ->
            B.insert t [| k |] v;
            m := M.add [| k |] v !m
          | Add_if_absent (k, v) ->
            let a = B.add_if_absent t [| k |] v in
            let b = not (M.mem [| k |] !m) in
            if b then m := M.add [| k |] v !m;
            assert (a = b)
          | Upsert k ->
            let f = function None -> 1 | Some v -> v + 1 in
            B.upsert t [| k |] f;
            m := M.update [| k |] (fun cur -> Some (f cur)) !m)
        ops;
      B.check_invariants t;
      B.length t = M.cardinal !m
      && M.for_all (fun k v -> B.find_opt t k = Some v) !m
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> B.compare_key k1 k2 = 0 && v1 = v2)
           (B.to_list t) (M.bindings !m))

let prop_prefix_matches_map =
  (* iter_prefix is the sorted-index scan of relations and aggregate
     tables: every binding carrying the prefix, ascending, and no other *)
  QCheck.Test.make ~name:"prefix scan matches Map filtering" ~count:60
    QCheck.(
      triple
        (list (triple (int_range 0 6) (int_range 0 6) small_int))
        (int_range 0 7) (int_range 0 7))
    (fun (kvs, a, b) ->
      let t = B.create ~branching:4 () in
      let m = ref M.empty in
      List.iter
        (fun (x, y, v) ->
          B.insert t [| x; y |] v;
          m := M.add [| x; y |] v !m)
        kvs;
      let agrees prefix =
        let got = ref [] in
        B.iter_prefix t ~prefix (fun k v -> got := (k, v) :: !got);
        let lp = Array.length prefix in
        let expect = M.bindings !m |> List.filter (fun (k, _) -> Array.sub k 0 lp = prefix) in
        List.rev !got = expect
      in
      agrees [||] && agrees [| a |] && agrees [| a; b |])

let prop_of_sorted_matches_map =
  (* relations bulk-load their sorted indexes, and a restored aggregate
     table keeps merging into its bulk-loaded tree *)
  QCheck.Test.make ~name:"of_sorted matches Map" ~count:60
    QCheck.(pair (int_range 4 9) (list (pair (pair (int_range 0 40) (int_range 0 40)) small_int)))
    (fun (branching, kvs) ->
      let m = List.fold_left (fun m ((x, y), v) -> M.add [| x; y |] v m) M.empty kvs in
      let t = B.of_sorted ~branching (Array.of_list (M.bindings m)) in
      B.check_invariants t;
      let loaded =
        B.length t = M.cardinal m
        && B.to_list t = M.bindings m
        && M.for_all (fun k v -> B.find_opt t k = Some v) m
        && not (B.mem t [| 41; 0 |])
      in
      (* upsert a column of keys, present or absent, into the loaded tree *)
      let f = function None -> -1 | Some v -> v in
      let m = ref m in
      for x = 0 to 41 do
        B.upsert t [| x; 20 |] f;
        m := M.update [| x; 20 |] (fun cur -> Some (f cur)) !m
      done;
      B.check_invariants t;
      loaded && B.to_list t = M.bindings !m)

(* --- batch-sorted merge (merge_sorted_slice) --- *)

let msorted t keys ~merge =
  let keys = Array.of_list keys in
  B.merge_sorted_slice t ~n:(Array.length keys) ~key:(fun i -> Array.copy keys.(i)) ~merge

let test_merge_sorted_empty_tree () =
  (* an empty tree degenerates to a bulk load *)
  let t = B.create ~branching:4 () in
  let keys = List.init 500 (fun i -> [| i * 3 |]) in
  msorted t keys ~merge:(fun i -> function None -> Some i | Some _ -> None);
  B.check_invariants t;
  Alcotest.(check int) "bulk loaded" 500 (B.length t);
  Alcotest.(check (option int)) "found" (Some 123) (B.find_opt t [| 369 |]);
  Alcotest.(check bool) "sorted contents" true
    (List.map fst (B.to_list t) = List.init 500 (fun i -> [| i * 3 |]))

let test_merge_sorted_semantics () =
  let t = B.create ~branching:4 () in
  for i = 0 to 9 do
    B.insert t [| 2 * i |] 100
  done;
  (* keys 0,2,..,18 bound to 100; merge a run overlapping half of them *)
  let seen = ref [] in
  msorted t
    (List.init 10 (fun i -> [| i |]))
    ~merge:(fun i cur ->
      seen := (i, cur) :: !seen;
      match cur with
      | Some v -> if i < 4 then Some (v + 1) else None (* overwrite vs keep *)
      | None -> if i mod 2 = 1 then Some (-i) else None (* insert vs skip *));
  B.check_invariants t;
  (* each index visited exactly once, ascending, with the right binding *)
  Alcotest.(check int) "all indices visited" 10 (List.length !seen);
  List.iteri
    (fun j (i, cur) ->
      Alcotest.(check int) "ascending order" j i;
      Alcotest.(check bool) "existing binding seen" (i mod 2 = 0) (cur <> None))
    (List.rev !seen);
  Alcotest.(check (option int)) "overwritten" (Some 101) (B.find_opt t [| 0 |]);
  Alcotest.(check (option int)) "kept" (Some 100) (B.find_opt t [| 4 |]);
  Alcotest.(check (option int)) "inserted" (Some (-1)) (B.find_opt t [| 1 |]);
  Alcotest.(check (option int)) "skipped" None (B.find_opt t [| 8; 0 |]);
  Alcotest.(check int) "count tracks inserts only" (10 + 5) (B.length t)

let test_merge_sorted_bulk_split () =
  (* a run much larger than one leaf forces bulk leaf splits, cascading
     internal splits and root growth in a single call *)
  let t = B.create ~branching:4 () in
  for i = 0 to 30 do
    B.insert t [| i * 100 |] i
  done;
  B.check_invariants t;
  (* dense run landing almost entirely inside existing leaf segments *)
  let keys = List.init 2000 (fun i -> [| i * 7 mod 3100; i * 7 / 3100 |]) in
  let keys = List.sort_uniq B.compare_key keys in
  msorted t keys ~merge:(fun _ -> function None -> Some (-1) | Some _ -> None);
  B.check_invariants t;
  Alcotest.(check int) "all inserted" (31 + List.length keys) (B.length t);
  (* leaf chain still enumerates ascending (checked by invariants) and
     old bindings survived *)
  Alcotest.(check (option int)) "old binding survives" (Some 30) (B.find_opt t [| 3000 |])

let test_merge_sorted_repeated_runs () =
  (* many successive runs over the same tree: the steady-state shape the
     iteration merge path produces *)
  let t = B.create ~branching:6 () in
  let m = ref M.empty in
  let rng = Random.State.make [| 7 |] in
  for _round = 1 to 40 do
    let batch =
      List.init (1 + Random.State.int rng 200) (fun _ ->
          [| Random.State.int rng 500; Random.State.int rng 4 |])
      |> List.sort_uniq B.compare_key
    in
    let batch_arr = Array.of_list batch in
    B.merge_sorted_slice t ~n:(Array.length batch_arr)
      ~key:(fun i -> batch_arr.(i))
      ~merge:(fun i -> function
        | Some _ -> None
        | None ->
          m := M.add batch_arr.(i) i !m;
          Some i);
    B.check_invariants t
  done;
  Alcotest.(check int) "cardinality matches model" (M.cardinal !m) (B.length t);
  Alcotest.(check bool) "contents match model" true
    (List.for_all2
       (fun (k1, v1) (k2, v2) -> B.compare_key k1 k2 = 0 && v1 = v2)
       (B.to_list t) (M.bindings !m))

let prop_merge_sorted_matches_add_if_absent =
  (* differential: a batch-sorted merge of each run must leave exactly
     the tree that per-tuple add_if_absent builds, insert decisions
     included, across random branchings and interleaved run shapes *)
  QCheck.Test.make ~name:"merge_sorted_slice = per-tuple add_if_absent" ~count:60
    QCheck.(
      pair (int_range 4 9)
        (small_list (small_list (pair (int_range 0 120) (int_range 0 5)))))
    (fun (branching, runs) ->
      let bulk = B.create ~branching () in
      let ref_t = B.create ~branching () in
      List.iteri
        (fun round run ->
          let keys =
            List.map (fun (a, b) -> [| a; b |]) run |> List.sort_uniq B.compare_key
          in
          let arr = Array.of_list keys in
          let decisions = Array.make (Array.length arr) false in
          B.merge_sorted_slice bulk ~n:(Array.length arr)
            ~key:(fun i -> arr.(i))
            ~merge:(fun i -> function
              | Some _ -> None
              | None ->
                decisions.(i) <- true;
                Some round);
          Array.iteri
            (fun i k ->
              let ins = B.add_if_absent ref_t k round in
              assert (ins = decisions.(i)))
            arr;
          B.check_invariants bulk)
        runs;
      B.check_invariants ref_t;
      B.length bulk = B.length ref_t
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> B.compare_key k1 k2 = 0 && v1 = v2)
           (B.to_list bulk) (B.to_list ref_t))

let prop_merge_sorted_upsert_matches_map =
  (* aggregate-shaped merges (min upsert) against the Map model *)
  QCheck.Test.make ~name:"merge_sorted_slice min-upsert matches Map" ~count:60
    QCheck.(small_list (small_list (pair (int_range 0 60) (int_range 0 100))))
    (fun runs ->
      let t = B.create ~branching:4 () in
      let m = ref M.empty in
      List.iter
        (fun run ->
          (* combine duplicates within the run like the run-sorter does *)
          let combined =
            List.fold_left
              (fun acc (k, v) ->
                M.update [| k |] (function None -> Some v | Some v0 -> Some (min v0 v)) acc)
              M.empty run
          in
          let arr = Array.of_list (M.bindings combined) in
          B.merge_sorted_slice t ~n:(Array.length arr)
            ~key:(fun i -> fst arr.(i))
            ~merge:(fun i cur ->
              let v = snd arr.(i) in
              match cur with
              | None -> Some v
              | Some v0 -> if v < v0 then Some v else None);
          M.iter
            (fun k v ->
              m := M.update k (function None -> Some v | Some v0 -> Some (min v0 v)) !m)
            combined;
          B.check_invariants t)
        runs;
      B.length t = M.cardinal !m && M.for_all (fun k v -> B.find_opt t k = Some v) !m)

let () =
  Alcotest.run "bptree"
    [
      ( "unit",
        [
          Alcotest.test_case "compare_key" `Quick test_compare_key;
          Alcotest.test_case "insert/find" `Quick test_insert_find;
          Alcotest.test_case "insert replaces" `Quick test_insert_replaces;
          Alcotest.test_case "upsert" `Quick test_upsert;
          Alcotest.test_case "add_if_absent" `Quick test_add_if_absent;
          Alcotest.test_case "add_if_absent scratch key" `Quick test_add_if_absent_scratch_key;
          Alcotest.test_case "add_if_absent = mem+insert" `Quick
            test_add_if_absent_agrees_with_mem_insert;
          Alcotest.test_case "sorted iteration" `Quick test_iter_sorted;
          Alcotest.test_case "prefix" `Quick test_prefix;
          Alcotest.test_case "of_sorted" `Quick test_of_sorted;
          Alcotest.test_case "defensive key copy" `Quick test_defensive_key_copy;
          Alcotest.test_case "branching below 4 rejected" `Quick test_branching_below_four_rejected;
        ] );
      ( "bulk merge",
        [
          Alcotest.test_case "empty tree = bulk load" `Quick test_merge_sorted_empty_tree;
          Alcotest.test_case "merge-callback semantics" `Quick test_merge_sorted_semantics;
          Alcotest.test_case "bulk leaf/internal splits" `Quick test_merge_sorted_bulk_split;
          Alcotest.test_case "repeated runs" `Quick test_merge_sorted_repeated_runs;
          QCheck_alcotest.to_alcotest prop_merge_sorted_matches_add_if_absent;
          QCheck_alcotest.to_alcotest prop_merge_sorted_upsert_matches_map;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_matches_map;
          QCheck_alcotest.to_alcotest prop_prefix_matches_map;
          QCheck_alcotest.to_alcotest prop_of_sorted_matches_map;
        ] );
    ]
