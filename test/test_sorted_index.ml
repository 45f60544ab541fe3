(* The sorted slot array under relations: seeks from every kind of
   cursor (forward gallops, backward re-seeks, no cursor), prefix seeks
   over composite keys, a walk of successor seeks, prefix walks, seeks
   over random tables and column orders against a Map model, prefix
   scans against a linear filter, leapfrog against set intersection,
   and the relation's refusal to insert once it holds such an index. *)

module Tt = Dcd_storage.Tuple_table
module Si = Dcd_storage.Sorted_index
module R = Dcd_storage.Relation

let table_of ?(extra = 0) ~arity rows =
  let t = Tt.create ~capacity:1 ~extra ~arity () in
  List.iter (fun r -> ignore (Tt.add t r)) rows;
  t

(* the tuple at position [p], in index order *)
let tuple_at si p = Array.init (Array.length (Si.cols si)) (fun i -> Si.value si p i)

let tuple = Alcotest.(array int)

(* odd keys 1, 3, ..., 2n-1, inserted in a scrambled order *)
let odd_index n =
  let rows = List.init n (fun i -> [| (2 * ((i * 7) mod n)) + 1 |]) in
  Si.create (table_of ~arity:1 rows) ~cols:[| 0 |]

let test_seek_across () =
  let n = 40 in
  let si = odd_index n in
  Alcotest.(check int) "length" n (Si.length si);
  (* from the last position forward, from position 0 (a gallop across
     the array) and from the end (no cursor) *)
  List.iter
    (fun from_of ->
      for i = 0 to n - 1 do
        let k = (2 * i) + 1 in
        let p = Si.seek_geq si ~from:(from_of i) [| k |] 1 in
        Alcotest.(check int) "exact hit" i p;
        Alcotest.(check int) "lands on key" k (Si.value si p 0);
        let p = Si.seek_geq si ~from:(from_of i) [| k - 1 |] 1 in
        Alcotest.(check int) "between keys rounds up" k (Si.value si p 0)
      done)
    [ (fun i -> max 0 (i - 1)); (fun _ -> 0); (fun _ -> n) ];
  (* backward seeks from a cursor past the answer *)
  for i = 0 to n - 1 do
    Alcotest.(check int) "backward" i (Si.seek_geq si ~from:(n - 1) [| (2 * i) + 1 |] 1)
  done;
  Alcotest.(check int) "re-seek same key" 39 (Si.seek_geq si ~from:39 [| 79 |] 1)

let test_empty_and_past_max () =
  let empty = Si.create (table_of ~arity:1 []) ~cols:[| 0 |] in
  Alcotest.(check int) "empty index" 0 (Si.seek_geq empty ~from:0 [| 0 |] 1);
  Alcotest.(check bool) "nothing carries a prefix" false (Si.prefix_eq empty 0 [| 0 |] 0);
  let si = odd_index 10 in
  Alcotest.(check int) "past max" 10 (Si.seek_geq si ~from:3 [| 20 |] 1);
  Alcotest.(check int) "past max, no cursor" 10 (Si.seek_geq si ~from:10 [| 20 |] 1);
  Alcotest.(check bool) "end carries no prefix" false (Si.prefix_eq si 10 [| 20 |] 0);
  Alcotest.(check int) "re-seek from the end" 0 (Si.seek_geq si ~from:10 [| 0 |] 1);
  Alcotest.(check int) "back to min" 1 (Si.value si 0 0);
  Alcotest.(check int) "below min from a cursor" 0 (Si.seek_geq si ~from:7 [| min_int |] 1);
  Alcotest.(check int) "empty key lands first" 0 (Si.seek_geq si ~from:5 [||] 0);
  Alcotest.check_raises "key narrower than its width"
    (Invalid_argument "Sorted_index.seek_geq: key width") (fun () ->
      ignore (Si.seek_geq si ~from:0 [| 1 |] 2))

let test_prefix_seek () =
  (* composite keys: a prefix seek (shorter key) lands on the first
     tuple carrying that prefix, the contract generic join relies on *)
  let rows = [ [| 4; 2 |]; [| 1; 9 |]; [| 2; 7 |]; [| 1; 5 |]; [| 2; 0 |] ] in
  let si = Si.create (table_of ~arity:2 rows) ~cols:[| 0; 1 |] in
  let at key = tuple_at si (Si.seek_geq si ~from:0 key (Array.length key)) in
  Alcotest.check tuple "first under 1" [| 1; 5 |] (at [| 1 |]);
  Alcotest.check tuple "first under 2" [| 2; 0 |] (at [| 2 |]);
  Alcotest.check tuple "absent prefix 3 rounds up" [| 4; 2 |] (at [| 3 |]);
  Alcotest.(check int) "prefix past max" 5 (Si.seek_geq si ~from:0 [| 5 |] 1);
  let p = Si.seek_geq si ~from:0 [| 1; 6 |] 2 in
  Alcotest.check tuple "within a prefix" [| 1; 9 |] (tuple_at si p);
  Alcotest.(check bool) "still under 1" true (Si.prefix_eq si p [| 1 |] 1);
  let p = Si.seek_geq si ~from:p [| 1; 10 |] 2 in
  Alcotest.(check bool) "past the prefix" false (Si.prefix_eq si p [| 1 |] 1);
  Alcotest.check tuple "next prefix" [| 2; 0 |] (tuple_at si p);
  (* the reversed column order sorts by the second column first *)
  let rev = Si.create (table_of ~arity:2 rows) ~cols:[| 1; 0 |] in
  let p = Si.seek_geq rev ~from:0 [| 3 |] 1 in
  Alcotest.check tuple "reversed order" [| 5; 1 |] (tuple_at rev p)

let test_successor_walk () =
  (* a full scan by strict-successor seeks, each from the last position *)
  let rows = ref [] in
  for a = 0 to 11 do
    for b = 0 to a mod 4 do
      rows := [| (a * 37) mod 12; b * 5 |] :: !rows
    done
  done;
  let si = Si.create (table_of ~arity:2 !rows) ~cols:[| 0; 1 |] in
  let got = ref [] in
  let rec walk p =
    if p < Si.length si then begin
      let k = tuple_at si p in
      got := k :: !got;
      walk (Si.seek_geq si ~from:p [| k.(0); k.(1) + 1 |] 2)
    end
  in
  walk (Si.seek_geq si ~from:0 [||] 0);
  Alcotest.(check (list tuple)) "walk = sorted contents"
    (List.sort_uniq compare !rows)
    (List.rev !got)

let test_live_slots_only () =
  (* freed slots of the table stay out of the index; extra columns
     after the key are skipped by the stride *)
  let t = table_of ~extra:1 ~arity:2 [ [| 3; 0 |]; [| 1; 1 |]; [| 2; 2 |]; [| 0; 3 |] ] in
  Tt.set t (Tt.find t [| 1; 1 |]) 0 99;
  ignore (Tt.remove_slice t [| 2; 2 |] 0);
  let si = Si.create t ~cols:[| 1; 0 |] in
  Alcotest.(check (list tuple)) "live tuples in column-1 order"
    [ [| 0; 3 |]; [| 1; 1 |]; [| 3; 0 |] ]
    (List.init (Si.length si) (tuple_at si));
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Sorted_index.create: cols must permute all columns") (fun () ->
      ignore (Si.create t ~cols:[| 1; 1 |]))

let test_iter_prefix () =
  (* each match is handed over as the table's own row, in table column
     order and in index order, extra columns included *)
  let t =
    table_of ~extra:1 ~arity:2 [ [| 5; 1 |]; [| 2; 3 |]; [| 9; 1 |]; [| 4; 3 |]; [| 7; 2 |] ]
  in
  Tt.set t (Tt.find t [| 9; 1 |]) 0 42;
  let si = Si.create t ~cols:[| 1; 0 |] in
  let rows prefix =
    let acc = ref [] in
    Si.iter_prefix si prefix (fun data off -> acc := Array.sub data off 3 :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list tuple)) "under 1" [ [| 5; 1; 0 |]; [| 9; 1; 42 |] ] (rows [| 1 |]);
  Alcotest.(check (list tuple)) "under 3" [ [| 2; 3; 0 |]; [| 4; 3; 0 |] ] (rows [| 3 |]);
  Alcotest.(check (list tuple)) "full key" [ [| 7; 2; 0 |] ] (rows [| 2; 7 |]);
  Alcotest.(check (list tuple)) "full key absent" [] (rows [| 2; 8 |]);
  Alcotest.(check (list tuple)) "absent prefix" [] (rows [| 0 |]);
  Alcotest.(check (list tuple)) "past max" [] (rows [| 4 |]);
  Alcotest.(check (list int)) "empty prefix walks all in index order" [ 5; 9; 7; 2; 4 ]
    (List.map (fun r -> r.(0)) (rows [||]))

(* --- properties --- *)

module M = Map.Make (struct
  type t = int array

  let compare = compare
end)

(* a random table: arity 1-3, small values so tuples share prefixes,
   some rows removed again *)
let gen_table =
  QCheck.Gen.(
    int_range 1 3 >>= fun arity ->
    pair
      (list_size (int_bound 40) (array_size (return arity) (int_range 0 5)))
      (list_size (int_bound 10) (array_size (return arity) (int_range 0 5)))
    >>= fun (rows, removed) ->
    shuffle_l (List.init arity Fun.id) >>= fun cols ->
    int_range 0 1 >|= fun extra -> (arity, rows, removed, Array.of_list cols, extra))

let gen_probe arity =
  QCheck.Gen.(
    int_range 0 arity >>= fun n ->
    pair (array_size (return n) (int_range (-1) 6)) (int_range (-1) 45))

let prop_seek_matches_map =
  QCheck.Test.make ~name:"seeks over random tables and column orders match a Map" ~count:300
    QCheck.(
      make
        Gen.(
          gen_table >>= fun ((arity, _, _, _, _) as tbl) ->
          pair (return tbl) (list_size (int_bound 30) (gen_probe arity))))
    (fun ((arity, rows, removed, cols, extra), probes) ->
      let t = table_of ~extra ~arity rows in
      List.iter (fun r -> ignore (Tt.remove_slice t r 0)) removed;
      let live = List.filter (fun r -> not (List.mem r removed)) rows in
      let m =
        List.fold_left (fun m r -> M.add (Array.map (fun c -> r.(c)) cols) () m) M.empty live
      in
      let si = Si.create t ~cols in
      let not_below key n k =
        compare (Array.sub k 0 n) (Array.sub key 0 n) >= 0
      in
      (* each probe runs from a random cursor and from the previous
         answer, as leapfrog's forward seeks do *)
      let last = ref 0 in
      Si.length si = M.cardinal m
      && List.for_all
           (fun (key, from) ->
             let n = Array.length key in
             let want = M.find_first_opt (not_below key n) m in
             List.for_all
               (fun from ->
                 let p = Si.seek_geq si ~from key n in
                 last := p;
                 match want with
                 | None -> p = Si.length si
                 | Some (k, ()) ->
                   p < Si.length si
                   && tuple_at si p = k
                   && Si.prefix_eq si p key n = (Array.sub k 0 n = key))
               [ from; !last ])
           probes)

let prop_iter_prefix_matches_filter =
  QCheck.Test.make ~name:"Relation.iter_prefix = linear filter" ~count:300
    QCheck.(
      make
        Gen.(
          pair
            (list_size (int_bound 50) (array_size (return 3) (int_range 0 4)))
            (int_range 0 3 >>= fun n -> array_size (return n) (int_range 0 4))))
    (fun (rows, prefix) ->
      let r = R.create ~size_hint:1 ~name:"t" ~arity:3 () in
      List.iter (fun row -> ignore (R.add r row)) rows;
      let n = Array.length prefix in
      let want = List.filter (fun row -> Array.sub row 0 n = prefix) (List.sort_uniq compare rows) in
      let scan () =
        let acc = ref [] in
        R.iter_prefix r ~prefix (fun tup -> acc := tup :: !acc);
        List.rev !acc
      in
      let flat = scan () in
      ignore (R.ensure_sorted_index r ~cols:[| 0; 1; 2 |]);
      let sorted = scan () in
      (* through the index, matches arrive in ascending order; the
         empty prefix iterates in insertion order either way *)
      List.sort compare flat = want
      && (if n = 0 then List.sort compare sorted else sorted) = want)

let prop_leapfrog_matches_intersection =
  (* generic join's step on one variable: leapfrog over unary indexes,
     each seek from that index's own last position, finds exactly the
     values every index holds *)
  QCheck.Test.make ~name:"leapfrog over sorted indexes = set intersection" ~count:300
    QCheck.(
      make
        ~print:Print.(list (list int))
        Gen.(list_size (int_range 1 4) (list_size (int_bound 30) (int_range 0 30))))
    (fun sets ->
      let idx =
        Array.of_list
          (List.map
             (fun s -> Si.create (table_of ~arity:1 (List.map (fun v -> [| v |]) s)) ~cols:[| 0 |])
             sets)
      in
      let pos = Array.make (Array.length idx) 0 in
      let at i = Si.value idx.(i) pos.(i) 0 in
      let seek i v = pos.(i) <- Si.seek_geq idx.(i) ~from:pos.(i) [| v |] 1 in
      let out = ref [] in
      let rec step () =
        if Array.for_all2 (fun si p -> p < Si.length si) idx pos then begin
          let vals = Array.init (Array.length idx) at in
          let hi = Array.fold_left max min_int vals in
          if Array.for_all (fun v -> v = hi) vals then begin
            out := hi :: !out;
            Array.iteri (fun i _ -> seek i (hi + 1)) idx
          end
          else Array.iteri (fun i _ -> if at i < hi then seek i hi) idx;
          step ()
        end
      in
      step ();
      let want =
        List.filter (fun v -> List.for_all (List.mem v) sets) (List.sort_uniq compare (List.hd sets))
      in
      List.rev !out = want)

(* --- the relation's guard --- *)

let test_insert_refused () =
  let r = R.create ~name:"e" ~arity:2 () in
  List.iter (fun t -> ignore (R.add r t)) [ [| 1; 2 |]; [| 2; 3 |] ];
  ignore (R.ensure_sorted_index r ~cols:[| 1; 0 |]);
  let refused = Invalid_argument "Relation.add: e has a sorted index" in
  Alcotest.check_raises "fresh tuple" refused (fun () -> ignore (R.add r [| 3; 4 |]));
  Alcotest.check_raises "duplicate" refused (fun () -> ignore (R.add r [| 1; 2 |]));
  Alcotest.check_raises "flat slice" refused (fun () -> ignore (R.add_slice r [| 5; 6 |] 0));
  Alcotest.(check int) "contents unchanged" 2 (R.length r);
  Alcotest.(check bool) "same index on request" true
    (R.ensure_sorted_index r ~cols:[| 1; 0 |] == Option.get (R.find_sorted_index r ~cols:[| 1; 0 |]));
  Alcotest.check_raises "partial column order"
    (Invalid_argument "Sorted_index.create: cols must permute all columns") (fun () ->
      ignore (R.ensure_sorted_index r ~cols:[| 0 |]))

let () =
  Alcotest.run "sorted_index"
    [
      ( "seek",
        [
          Alcotest.test_case "seek_geq across the array" `Quick test_seek_across;
          Alcotest.test_case "empty and past-max" `Quick test_empty_and_past_max;
          Alcotest.test_case "prefix seek" `Quick test_prefix_seek;
          Alcotest.test_case "successor walk = sorted contents" `Quick test_successor_walk;
          Alcotest.test_case "live slots only" `Quick test_live_slots_only;
          Alcotest.test_case "iter_prefix hands over table rows" `Quick test_iter_prefix;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_seek_matches_map;
          QCheck_alcotest.to_alcotest prop_iter_prefix_matches_filter;
          QCheck_alcotest.to_alcotest prop_leapfrog_matches_intersection;
        ] );
      ("relation", [ Alcotest.test_case "insert after a sorted index" `Quick test_insert_refused ]);
    ]
