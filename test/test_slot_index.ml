(* The keyed index over a tuple table's slots, probed directly: chain
   contents and order, building over existing members, unlinking from
   the head, middle and tail of a chain, the length-only form, and the
   checker catching an index its owner forgot to keep in step. *)

module Tt = Dcd_storage.Tuple_table
module Ix = Dcd_storage.Slot_index

let chain idx key =
  let acc = ref [] and s = ref (Ix.head idx key) in
  while !s >= 0 do
    acc := !s :: !acc;
    s := Ix.next idx !s
  done;
  List.rev !acc

let rows idx key =
  let acc = ref [] in
  Ix.iter idx key (fun data off -> acc := data.(off + 1) :: !acc);
  List.rev !acc

let expect_ok what idx =
  match Ix.check idx with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let expect_broken what idx =
  match Ix.check idx with
  | Ok () -> Alcotest.failf "%s: the checker passed a broken index" what
  | Error _ -> ()

let index_of tbl rows ~cols =
  let idx = Ix.create tbl ~cols in
  List.iter (fun r -> Ix.add idx (Tt.add tbl r)) rows;
  idx

let test_single_column () =
  let t = Tt.create ~arity:2 () in
  let idx = index_of t [ [| 1; 10 |]; [| 1; 11 |]; [| 2; 20 |] ] ~cols:[| 0 |] in
  Alcotest.(check int) "count" 2 (Ix.count idx [| 1 |]);
  Alcotest.(check int) "other key" 1 (Ix.count idx [| 2 |]);
  Alcotest.(check int) "missing key" 0 (Ix.count idx [| 9 |]);
  Alcotest.(check int) "missing key has no head" (-1) (Ix.head idx [| 9 |]);
  Alcotest.(check (list int)) "bucket content, newest first" [ 11; 10 ] (rows idx [| 1 |]);
  Alcotest.(check (list int)) "head/next walk the same chain"
    [ Tt.find t [| 1; 11 |]; Tt.find t [| 1; 10 |] ]
    (chain idx [| 1 |]);
  Alcotest.(check (array int)) "key columns" [| 0 |] (Ix.cols idx);
  expect_ok "single column" idx

let test_multi_column () =
  let t = Tt.create ~arity:3 () in
  let idx = index_of t [ [| 1; 5; 3 |]; [| 1; 6; 3 |]; [| 2; 5; 3 |] ] ~cols:[| 2; 0 |] in
  (* key is (col2, col0) = (3, 1) for the first two *)
  Alcotest.(check int) "composite key groups" 2 (Ix.count idx [| 3; 1 |]);
  Alcotest.(check int) "other group" 1 (Ix.count idx [| 3; 2 |]);
  Alcotest.(check int) "key order matters" 0 (Ix.count idx [| 1; 3 |]);
  Alcotest.(check (list int)) "rows of the group" [ 6; 5 ] (rows idx [| 3; 1 |]);
  expect_ok "multi column" idx

(* An index created over a table that already holds members (freed
   slots among them) starts with exactly the live ones, then follows
   later adds past the table's first capacity. *)
let test_over_existing_members () =
  let t = Tt.create ~capacity:2 ~arity:2 () in
  List.iter (fun r -> ignore (Tt.add t r)) [ [| 1; 2 |]; [| 1; 3 |]; [| 4; 5 |] ];
  ignore (Tt.remove_slice t [| 1; 2 |] 0);
  let idx = Ix.create t ~cols:[| 0 |] in
  Alcotest.(check int) "built from the live members" 1 (Ix.count idx [| 1 |]);
  Alcotest.(check int) "other key" 1 (Ix.count idx [| 4 |]);
  for i = 0 to 99 do
    Ix.add idx (Tt.add t [| 1; 100 + i |])
  done;
  Alcotest.(check int) "later adds past growth" 101 (Ix.count idx [| 1 |]);
  Alcotest.(check int) "chain walk" 101 (List.length (chain idx [| 1 |]));
  expect_ok "over existing members" idx

let test_remove_unlinks () =
  let t = Tt.create ~arity:2 () in
  let idx = index_of t [ [| 1; 10 |]; [| 1; 11 |]; [| 1; 12 |]; [| 2; 20 |] ] ~cols:[| 0 |] in
  let drop r =
    let s = Tt.find t r in
    Ix.remove idx s;
    Tt.remove_slot t s;
    expect_ok (Printf.sprintf "after removing (%d, %d)" r.(0) r.(1)) idx
  in
  drop [| 1; 11 |];
  Alcotest.(check (list int)) "middle unlinked" [ 12; 10 ] (rows idx [| 1 |]);
  drop [| 1; 12 |];
  Alcotest.(check (list int)) "head unlinked" [ 10 ] (rows idx [| 1 |]);
  Ix.add idx (Tt.add t [| 1; 13 |]);
  Alcotest.(check (list int)) "re-linked at the head" [ 13; 10 ] (rows idx [| 1 |]);
  drop [| 1; 10 |];
  Alcotest.(check (list int)) "tail unlinked" [ 13 ] (rows idx [| 1 |]);
  drop [| 1; 13 |];
  Alcotest.(check int) "emptied chain's key gone" 0 (Ix.count idx [| 1 |]);
  Alcotest.(check int) "and its head" (-1) (Ix.head idx [| 1 |]);
  Alcotest.(check int) "other chain untouched" 1 (Ix.count idx [| 2 |]);
  let stray = Tt.add t [| 5; 50 |] in
  Alcotest.check_raises "unlinking from a missing chain"
    (Invalid_argument "Slot_index.remove: unlinking a member from a missing chain") (fun () ->
      Ix.remove idx stray)

let test_length_only () =
  let t = Tt.create ~arity:2 () in
  let rs = List.init 50 (fun i -> [| i mod 5; i |]) in
  let linked = index_of t [] ~cols:[| 0 |] in
  let counted = Ix.create ~linked:false t ~cols:[| 0 |] in
  List.iter
    (fun r ->
      let s = Tt.add t r in
      Ix.add linked s;
      Ix.add counted s)
    rs;
  for k = 0 to 4 do
    Alcotest.(check int) (Printf.sprintf "count of %d" k) 10 (Ix.count counted [| k |])
  done;
  let s = Tt.find t [| 3; 8 |] in
  Ix.remove counted s;
  Ix.remove linked s;
  Tt.remove_slot t s;
  Alcotest.(check int) "remove decrements" 9 (Ix.count counted [| 3 |]);
  expect_ok "length-only" counted;
  Alcotest.(check bool) "no link columns" true (Ix.words counted < Ix.words linked)

(* The owner adds and removes members by hand, so the checker must
   notice each way of getting out of step with the table. *)
let test_check_catches_drift () =
  let fresh () =
    let t = Tt.create ~arity:2 () in
    (t, index_of t [ [| 1; 10 |]; [| 1; 11 |] ] ~cols:[| 0 |])
  in
  let t, idx = fresh () in
  ignore (Tt.add t [| 2; 20 |]);
  expect_broken "a member never indexed" idx;
  let t, idx = fresh () in
  Tt.remove_slot t (Tt.find t [| 1; 11 |]);
  expect_broken "a member freed while still chained" idx;
  let t, idx = fresh () in
  Ix.add idx (Tt.find t [| 1; 10 |]);
  expect_broken "a member indexed twice" idx;
  let t, idx = fresh () in
  let counted = Ix.create ~linked:false t ~cols:[| 0 |] in
  Ix.add counted (Tt.find t [| 1; 10 |]);
  expect_broken "a length-only count ahead of its members" counted;
  expect_ok "the linked index beside it" idx

(* Random adds and removes over a deletable table: every chain is the
   linear filter of the live rows, newest first. *)
let prop_matches_filter =
  QCheck.Test.make ~name:"iter = linear filter, newest first" ~count:200
    QCheck.(pair (list (pair bool (pair (int_range 0 5) (int_range 0 5)))) (int_range 0 5))
    (fun (ops, probe) ->
      let t = Tt.create ~capacity:1 ~arity:2 () in
      let idx = Ix.create t ~cols:[| 0 |] in
      (* live rows, newest first *)
      let live = ref [] in
      List.iter
        (fun (add, (a, b)) ->
          let s = Tt.find t [| a; b |] in
          if add && s < 0 then begin
            Ix.add idx (Tt.add t [| a; b |]);
            live := (a, b) :: !live
          end
          else if (not add) && s >= 0 then begin
            Ix.remove idx s;
            Tt.remove_slot t s;
            live := List.filter (( <> ) (a, b)) !live
          end)
        ops;
      let got = ref [] in
      Ix.iter idx [| probe |] (fun data off -> got := (data.(off), data.(off + 1)) :: !got);
      let want = List.filter (fun (a, _) -> a = probe) !live in
      List.rev !got = want && Ix.count idx [| probe |] = List.length want && Ix.check idx = Ok ())

let () =
  Alcotest.run "slot_index"
    [
      ( "unit",
        [
          Alcotest.test_case "single column" `Quick test_single_column;
          Alcotest.test_case "multi column" `Quick test_multi_column;
          Alcotest.test_case "over existing members" `Quick test_over_existing_members;
          Alcotest.test_case "remove unlinks" `Quick test_remove_unlinks;
          Alcotest.test_case "length-only" `Quick test_length_only;
          Alcotest.test_case "checker catches drift" `Quick test_check_catches_drift;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_matches_filter ]);
    ]
