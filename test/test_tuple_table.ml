(* The deletable flat tuple table and its slot indexes against a
   Hashtbl model: random add/replace/remove/find/iter sequences over a
   small key space, from tiny capacities so that growth and backward
   shifts across the end of the probe table happen often, while one
   linked and one length-only index on random column lists follow
   every insertion and removal. *)

module Tt = Dcd_storage.Tuple_table
module Ix = Dcd_storage.Slot_index
module Tuple = Dcd_storage.Tuple

let test_basic () =
  let t = Tt.create ~extra:2 ~arity:2 () in
  let s = Tt.add t [| 1; 2 |] in
  Alcotest.(check int) "found at its slot" s (Tt.find t [| 1; 2 |]);
  Alcotest.(check int) "re-add keeps the slot" s (Tt.add t [| 1; 2 |]);
  Alcotest.(check int) "fresh columns are zero" 0 (Tt.get t s 1);
  Tt.set t s 0 7;
  Tt.set t s 1 9;
  Alcotest.(check (pair int int)) "columns" (7, 9) (Tt.get t s 0, Tt.get t s 1);
  Alcotest.(check (array int)) "row is key ++ columns" [| 1; 2; 7; 9 |]
    (Array.sub (Tt.data t) (Tt.offset t s) (Tt.stride t));
  Alcotest.(check int) "absent" (-1) (Tt.find t [| 2; 1 |]);
  Alcotest.(check int) "removed from its slot" s (Tt.remove_slice t [| 1; 2 |] 0);
  Alcotest.(check bool) "slot no longer live" false (Tt.live t s);
  Alcotest.(check int) "remove of an absent key" (-1) (Tt.remove_slice t [| 1; 2 |] 0);
  let s' = Tt.add t [| 5; 5 |] in
  Alcotest.(check int) "freed slot reused" s s';
  Alcotest.(check int) "reused slot's columns reset" 0 (Tt.get t s' 0)

let test_zero_arity () =
  let t = Tt.create ~arity:0 () in
  let s = Tt.add t [||] in
  Alcotest.(check int) "one key" 1 (Tt.length t);
  Alcotest.(check int) "dedup" s (Tt.add t [||]);
  Tt.remove_slot t s;
  Alcotest.(check int) "empty" 0 (Tt.length t);
  Alcotest.(check int) "reused" s (Tt.add t [||])

(* Fresh slots are handed out densely while nothing is freed, so
   growth from a capacity of one keeps every key at slot = insertion
   rank. *)
let test_growth () =
  let t = Tt.create ~capacity:1 ~extra:1 ~arity:2 () in
  for i = 0 to 9999 do
    let s = Tt.add t [| i; i * 3 |] in
    if s <> i then Alcotest.failf "key %d at slot %d" i s;
    Tt.set t s 0 (i + 1)
  done;
  Alcotest.(check int) "all kept through growth" 10000 (Tt.length t);
  Alcotest.(check int) "no gaps" 10000 (Tt.slots t);
  Alcotest.(check bool) "capacity covers the slots" true (Tt.capacity t >= Tt.slots t);
  for i = 0 to 9999 do
    let s = Tt.find t [| i; i * 3 |] in
    if s <> i || Tt.get t s 0 <> i + 1 then Alcotest.failf "lost key %d during growth" i
  done

let test_iter_clear () =
  let t = Tt.create ~extra:1 ~arity:1 () in
  List.iter (fun k -> Tt.set t (Tt.add t [| k |]) 0 (k * 10)) [ 1; 2; 3 ];
  ignore (Tt.remove_slice t [| 2 |] 0);
  let sum = ref 0 in
  Tt.iter_slices t (fun data off -> sum := !sum + data.(off) + data.(off + 1));
  Alcotest.(check int) "iter_slices sees key ++ column of live slots" 44 !sum;
  let cap = Tt.capacity t in
  Tt.clear t;
  Alcotest.(check int) "cleared" 0 (Tt.length t);
  Alcotest.(check int) "no slots handed out" 0 (Tt.slots t);
  Alcotest.(check int) "capacity retained" cap (Tt.capacity t);
  Alcotest.(check int) "old key gone" (-1) (Tt.find t [| 1 |]);
  Tt.iter t (fun _ -> Alcotest.fail "iteration after clear");
  let s = Tt.add t [| 3 |] in
  Alcotest.(check int) "add after clear takes slot 0" 0 s;
  Alcotest.(check int) "with a zero column" 0 (Tt.get t s 0);
  Alcotest.(check int) "one key" 1 (Tt.length t)

(* Three keys sharing the last probe position of an eight-position
   table fill positions 7, 0 and 1; removing the first must shift the
   other two back across the wrap, and a key homed at 0 behind them
   must stay findable. *)
let test_wraparound_shift () =
  let home k = Tuple.hash_slice [| k |] ~off:0 ~len:1 land 7 in
  let pick h n =
    let rec go k acc =
      if List.length acc = n then List.rev acc
      else go (k + 1) (if home k = h then k :: acc else acc)
    in
    go 0 []
  in
  let last = pick 7 3 and first = pick 0 1 in
  let t = Tt.create ~capacity:4 ~arity:1 () in
  List.iter (fun k -> ignore (Tt.add t [| k |])) (last @ first);
  ignore (Tt.remove_slice t [| List.hd last |] 0);
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "key %d after shift" k) true (Tt.find t [| k |] >= 0))
    (List.tl last @ first);
  Alcotest.(check int) "removed key gone" (-1) (Tt.find t [| List.hd last |]);
  List.iter (fun k -> ignore (Tt.remove_slice t [| k |] 0)) (List.tl last);
  Alcotest.(check bool) "wrapped key survives its run's removal" true
    (Tt.find t [| List.hd first |] >= 0)

type op =
  | Add of int list
  | Replace of int list * int
  | Remove of int list
  | Find of int list
  | Iter

let op_gen arity =
  let open QCheck.Gen in
  let key = list_repeat arity (int_range 0 5) in
  frequency
    [
      (4, map (fun k -> Add k) key);
      (2, map2 (fun k v -> Replace (k, v)) key small_nat);
      (3, map (fun k -> Remove k) key);
      (2, map (fun k -> Find k) key);
      (1, return Iter);
    ]

let show_op = function
  | Add k -> "add " ^ String.concat "," (List.map string_of_int k)
  | Replace (k, v) ->
    Printf.sprintf "replace %s=%d" (String.concat "," (List.map string_of_int k)) v
  | Remove k -> "remove " ^ String.concat "," (List.map string_of_int k)
  | Find k -> "find " ^ String.concat "," (List.map string_of_int k)
  | Iter -> "iter"

(* an index key: distinct columns of the table in any order, such as
   [2; 0] *)
let cols_gen arity =
  QCheck.Gen.(
    list_size (int_range 0 arity) (int_range 0 (max 0 (arity - 1))) >|= fun l ->
    if arity = 0 then []
    else List.rev (List.fold_left (fun acc c -> if List.mem c acc then acc else c :: acc) [] l))

let show_ints l = String.concat "," (List.map string_of_int l)

let case_gen =
  QCheck.Gen.(
    int_range 0 3 >>= fun arity ->
    int_range 1 4 >>= fun capacity ->
    cols_gen arity >>= fun linked ->
    cols_gen arity >>= fun counted ->
    list_size (int_range 0 300) (op_gen arity) >|= fun ops ->
    (arity, capacity, (linked, counted), ops))

let arb_case =
  QCheck.make case_gen ~print:(fun (a, c, (l, n), ops) ->
      Printf.sprintf "arity=%d capacity=%d linked=[%s] counted=[%s] [%s]" a c (show_ints l)
        (show_ints n)
        (String.concat "; " (List.map show_op ops)))

(* The model maps each live key to (slot, column value); [freed] holds
   slots freed and not yet handed out again.  After every operation,
   each index's chains hold exactly the model's slots under each
   projected key. *)
let run (arity, capacity, (linked, counted), ops) =
  let t = Tt.create ~capacity ~extra:1 ~arity () in
  let ix = Ix.create t ~cols:(Array.of_list linked) in
  let nx = Ix.create ~linked:false t ~cols:(Array.of_list counted) in
  let model : (int list, int * int) Hashtbl.t = Hashtbl.create 16 in
  let freed = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
  let add k =
    match Hashtbl.find_opt model k with
    | Some (s, _) -> if Tt.add t (Array.of_list k) <> s then fail "re-add moved a live slot"
    | None ->
      let high = Tt.slots t in
      let s = Tt.add t (Array.of_list k) in
      (match !freed with
      | [] -> if s <> high then fail "fresh slot %d, expected %d with nothing freed" s high
      | l ->
        if not (List.mem s l) then fail "slot %d taken while freed slots were waiting" s;
        freed := List.filter (( <> ) s) l);
      Ix.add ix s;
      Ix.add nx s;
      Hashtbl.replace model k (s, 0)
  in
  let project cols k = List.map (List.nth k) cols in
  let check_index what idx cols touched =
    (match Ix.check idx with Ok () -> () | Error msg -> fail "%s index: %s" what msg);
    let expect = Hashtbl.create 16 in
    List.iter (fun k -> Hashtbl.replace expect (project cols k) []) touched;
    Hashtbl.iter
      (fun k (s, _) ->
        let pk = project cols k in
        Hashtbl.replace expect pk (s :: Option.value ~default:[] (Hashtbl.find_opt expect pk)))
      model;
    Hashtbl.iter
      (fun pk slots ->
        let key = Array.of_list pk in
        if Ix.count idx key <> List.length slots then
          fail "%s index: key [%s] counts %d, model %d" what (show_ints pk) (Ix.count idx key)
            (List.length slots);
        if idx == ix then begin
          let chain = ref [] and s = ref (Ix.head idx key) in
          while !s >= 0 do
            chain := !s :: !chain;
            s := Ix.next idx !s
          done;
          if List.sort compare !chain <> List.sort compare slots then
            fail "%s index: chain of [%s] is not the model's filter" what (show_ints pk);
          let rows = ref 0 in
          Ix.iter idx key (fun data off ->
              incr rows;
              if project cols (Array.to_list (Array.sub data off arity)) <> pk then
                fail "%s index: a row under [%s] has another key" what (show_ints pk));
          if !rows <> List.length slots then fail "%s index: iter and head disagree" what
        end)
      expect
  in
  List.iter
    (fun op ->
      (match op with
      | Add k -> add k
      | Replace (k, v) ->
        add k;
        let s, _ = Hashtbl.find model k in
        Tt.set t s 0 v;
        Hashtbl.replace model k (s, v)
      | Remove k -> (
        let s = Tt.find t (Array.of_list k) in
        if s >= 0 then begin
          Ix.remove ix s;
          Ix.remove nx s
        end;
        let got = Tt.remove_slice t (Array.of_list k) 0 in
        match Hashtbl.find_opt model k with
        | Some (s, _) ->
          if got <> s then fail "removed slot %d, model says %d" got s;
          Hashtbl.remove model k;
          freed := s :: !freed
        | None -> if got <> -1 then fail "removed an absent key")
      | Find k -> (
        let got = Tt.find t (Array.of_list k) in
        match Hashtbl.find_opt model k with
        | Some (s, v) ->
          if got <> s then fail "found slot %d, model says %d" got s;
          if Tt.get t s 0 <> v then fail "column lost"
        | None -> if got <> -1 then fail "found an absent key")
      | Iter ->
        let seen = Hashtbl.create 16 in
        Tt.iter t (fun s ->
            let k = Array.to_list (Tt.key t s) in
            if Hashtbl.mem seen k then fail "iteration visited a key twice";
            Hashtbl.add seen k ();
            match Hashtbl.find_opt model k with
            | Some (s', _) when s' = s -> ()
            | _ -> fail "iteration visited a slot the model does not hold");
        if Hashtbl.length seen <> Hashtbl.length model then fail "iteration missed a key");
      (* after every operation: every live key still at its slot *)
      if Tt.length t <> Hashtbl.length model then
        fail "length %d, model %d" (Tt.length t) (Hashtbl.length model);
      Hashtbl.iter
        (fun k (s, _) ->
          if Tt.find t (Array.of_list k) <> s then fail "live slot of a key moved";
          if not (Tt.live t s) then fail "live key on a dead slot")
        model;
      let touched =
        match op with
        | Add k | Replace (k, _) | Remove k | Find k -> [ k ]
        | Iter -> []
      in
      check_index "linked" ix linked touched;
      check_index "length-only" nx counted touched)
    ops;
  true

(* the random cases above, pinned to a reordered pair of columns *)
let test_reordered_pair () =
  let ops =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 7 |]) (QCheck.Gen.list_repeat 300 (op_gen 3))
  in
  ignore (run (3, 1, ([ 2; 0 ], [ 2; 0 ]), ops))

let prop_model =
  QCheck.Test.make ~name:"add/replace/remove/find/iter match a Hashtbl model" ~count:500 arb_case
    run

let () =
  Alcotest.run "tuple_table"
    [
      ( "unit",
        [
          Alcotest.test_case "slots, columns, reuse" `Quick test_basic;
          Alcotest.test_case "zero arity" `Quick test_zero_arity;
          Alcotest.test_case "growth from capacity 1" `Quick test_growth;
          Alcotest.test_case "iter/clear" `Quick test_iter_clear;
          Alcotest.test_case "backward shift across the wrap" `Quick test_wraparound_shift;
          Alcotest.test_case "indexes on a reordered pair" `Quick test_reordered_pair;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_model ]);
    ]
