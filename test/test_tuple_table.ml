(* The deletable flat tuple table against a Hashtbl model: random
   add/replace/remove/find/iter sequences over a small key space, from
   tiny capacities so that growth and backward shifts across the end of
   the probe table happen often. *)

module Tt = Dcd_storage.Tuple_table
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

let case_gen =
  QCheck.Gen.(
    int_range 0 3 >>= fun arity ->
    int_range 1 4 >>= fun capacity ->
    list_size (int_range 0 300) (op_gen arity) >|= fun ops -> (arity, capacity, ops))

let arb_case =
  QCheck.make case_gen ~print:(fun (a, c, ops) ->
      Printf.sprintf "arity=%d capacity=%d [%s]" a c (String.concat "; " (List.map show_op ops)))

(* The model maps each live key to (slot, column value); [freed] holds
   slots freed and not yet handed out again. *)
let run (arity, capacity, ops) =
  let t = Tt.create ~capacity ~extra:1 ~arity () in
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
      Hashtbl.replace model k (s, 0)
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
        model)
    ops;
  true

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
          Alcotest.test_case "backward shift across the wrap" `Quick test_wraparound_shift;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_model ]);
    ]
