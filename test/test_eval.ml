open Dcd_datalog
module Ph = Dcd_planner.Physical
module Eval = Dcd_engine.Eval
module Relation = Dcd_storage.Relation
module Vec = Dcd_util.Vec

(* Build a tiny manual context over in-memory relations. *)
let make_ctx rels =
  let find name = List.assoc name rels in
  {
    Eval.lookup =
      (fun (l : Ph.lookup) ->
        match l.rel with
        | Ph.R_rec { pred; _ } -> Alcotest.fail ("unexpected rec lookup " ^ pred)
        | Ph.R_base pred ->
          if Array.length l.key_cols = 0 then
            Eval.Iter (fun _ f -> Relation.iter_slices (find pred) f)
          else
            Eval.Index
              (Option.get
                 (Relation.slot_index (Relation.ensure_index (find pred) ~key_cols:l.key_cols))));
    base_sorted =
      (fun pred cols -> Relation.ensure_sorted_index (find pred) ~cols);
  }

let rel name arity rows =
  let r = Relation.create ~name ~arity () in
  List.iter (fun row -> ignore (Relation.add r (Array.of_list row))) rows;
  (name, r)

let compile_single src =
  let info = Result.get_ok (Analysis.analyze (Parser.parse_program src)) in
  let plan = Result.get_ok (Ph.compile info) in
  let sp = List.hd plan.strata in
  List.hd (sp.init_rules @ sp.delta_rules)

let collect cr ctx scan =
  let out = ref [] in
  let n =
    Eval.run cr ctx ~scan ~emit:(fun ~tuple ~contributor ->
        out := (Array.to_list tuple, Array.to_list contributor) :: !out)
  in
  (n, List.sort compare !out)

let test_scan_project () =
  let cr = compile_single "p(Y, X) <- e(X, Y)." in
  let ctx = make_ctx [ rel "e" 2 [ [ 1; 2 ]; [ 3; 4 ] ] ] in
  let n, out = collect cr ctx (`Tuples (Vec.of_list [ [| 1; 2 |]; [| 3; 4 |] ])) in
  Alcotest.(check int) "scanned" 2 n;
  Alcotest.(check (list (pair (list int) (list int))))
    "projection swaps columns"
    [ ([ 2; 1 ], []); ([ 4; 3 ], []) ]
    out

let test_index_join () =
  let cr = compile_single "p(X, Z) <- e(X, Y), f(Y, Z)." in
  let ctx = make_ctx [ rel "e" 2 []; rel "f" 2 [ [ 2; 20 ]; [ 2; 21 ]; [ 9; 90 ] ] ] in
  let n, out = collect cr ctx (`Tuples (Vec.of_list [ [| 1; 2 |] ])) in
  Alcotest.(check int) "one scan tuple" 1 n;
  Alcotest.(check (list (pair (list int) (list int))))
    "two join matches"
    [ ([ 1; 20 ], []); ([ 1; 21 ], []) ]
    out

let test_filter_and_compute () =
  let cr = compile_single "p(X, C) <- e(X, Y), Y > 1, C = X * 10 + Y." in
  let ctx = make_ctx [ rel "e" 2 [] ] in
  let _, out = collect cr ctx (`Tuples (Vec.of_list [ [| 1; 2 |]; [| 3; 0 |] ])) in
  Alcotest.(check (list (pair (list int) (list int)))) "filter drops, compute computes"
    [ ([ 1; 12 ], []) ]
    out

let test_division_by_zero_drops () =
  let cr = compile_single "p(C) <- e(X, Y), C = X / Y." in
  let ctx = make_ctx [ rel "e" 2 [] ] in
  let _, out = collect cr ctx (`Tuples (Vec.of_list [ [| 6; 2 |]; [| 1; 0 |] ])) in
  Alcotest.(check (list (pair (list int) (list int)))) "zero divisor dropped silently"
    [ ([ 3 ], []) ]
    out

let test_repeated_var_in_scan () =
  let cr = compile_single "p(X) <- e(X, X)." in
  let ctx = make_ctx [ rel "e" 2 [] ] in
  let _, out = collect cr ctx (`Tuples (Vec.of_list [ [| 1; 1 |]; [| 1; 2 |]; [| 3; 3 |] ])) in
  Alcotest.(check (list (pair (list int) (list int)))) "diagonal only"
    [ ([ 1 ], []); ([ 3 ], []) ]
    out

let test_repeated_var_in_lookup () =
  let cr = compile_single "p(X) <- e(X, Y), f(Y, Y)." in
  let ctx = make_ctx [ rel "e" 2 []; rel "f" 2 [ [ 2; 2 ]; [ 3; 4 ] ] ] in
  let _, out = collect cr ctx (`Tuples (Vec.of_list [ [| 1; 2 |]; [| 9; 3 |] ])) in
  Alcotest.(check (list (pair (list int) (list int)))) "lookup residual check"
    [ ([ 1 ], []) ]
    out

let test_negation () =
  let cr = compile_single "p(X) <- e(X, Y), !f(Y)." in
  let ctx = make_ctx [ rel "e" 2 []; rel "f" 1 [ [ 2 ] ] ] in
  let _, out = collect cr ctx (`Tuples (Vec.of_list [ [| 1; 2 |]; [| 3; 4 |] ])) in
  Alcotest.(check (list (pair (list int) (list int)))) "anti-join"
    [ ([ 3 ], []) ]
    out

let test_unit_scan () =
  let cr = compile_single "p(X, Y) <- X = 1, Y = 2." in
  let ctx = make_ctx [] in
  let n, out = collect cr ctx `Unit in
  Alcotest.(check int) "unit processes once" 1 n;
  Alcotest.(check (list (pair (list int) (list int)))) "constants" [ ([ 1; 2 ], []) ] out

let test_agg_emit () =
  let cr = compile_single "c(Y, count<X>) <- e(Y, X)." in
  let ctx = make_ctx [ rel "e" 2 [] ] in
  let _, out = collect cr ctx (`Tuples (Vec.of_list [ [| 1; 7 |] ])) in
  Alcotest.(check (list (pair (list int) (list int)))) "contributor carried"
    [ ([ 1; 0 ], [ 7 ]) ]
    out

let test_scan_constant_check () =
  let cr = compile_single "p(X) <- e(3, X)." in
  let ctx = make_ctx [ rel "e" 2 [] ] in
  let _, out = collect cr ctx (`Tuples (Vec.of_list [ [| 3; 5 |]; [| 4; 6 |] ])) in
  Alcotest.(check (list (pair (list int) (list int)))) "constant filters scan"
    [ ([ 5 ], []) ]
    out

(* A context that counts its resolutions and serves every lookup of
   relation [f] from [access]. *)
let counting_ctx f access =
  let calls = ref 0 in
  ( calls,
    {
      Eval.lookup =
        (fun (l : Ph.lookup) ->
          incr calls;
          access f l);
      base_sorted = (fun _ _ -> Alcotest.fail "unexpected trie");
    } )

let test_lookup_resolved_once () =
  let cr = compile_single "p(X, Z) <- e(X, Y), f(Y, Z)." in
  let _, f = rel "f" 2 [ [ 2; 20 ]; [ 2; 21 ]; [ 9; 90 ] ] in
  let calls, ctx =
    counting_ctx f (fun f l ->
        Eval.Index (Option.get (Relation.slot_index (Relation.ensure_index f ~key_cols:l.Ph.key_cols))))
  in
  let n, out =
    collect cr ctx (`Tuples (Vec.of_list [ [| 1; 2 |]; [| 3; 2 |]; [| 4; 9 |]; [| 5; 7 |] ]))
  in
  Alcotest.(check int) "four scan tuples" 4 n;
  Alcotest.(check int) "five matches" 5 (List.length out);
  Alcotest.(check int) "one resolution for one lookup step" 1 !calls

let test_membership_access () =
  (* f(X, Y) is fully bound after the scan: a membership probe serves
     it, as the join and as the anti-join *)
  let _, f = rel "f" 2 [ [ 1; 2 ] ] in
  let mem f _ = Eval.Mem (fun key -> Relation.mem f key) in
  let run src =
    let _, ctx = counting_ctx f mem in
    let out = ref [] in
    let p =
      Eval.prepare (compile_single src) ctx ~emit:(fun ~tuple ~contributor:_ ->
          out := Array.to_list tuple :: !out)
    in
    (* one row at a time, the first read from the middle of a wider row *)
    Eval.run_row p [| 7; 1; 2; 7 |] 1;
    Eval.run_row p [| 3; 4 |] 0;
    List.sort compare !out
  in
  Alcotest.(check (list (list int))) "join" [ [ 1 ] ] (run "p(X) <- e(X, Y), f(X, Y).");
  Alcotest.(check (list (list int))) "anti-join" [ [ 3 ] ] (run "p(X) <- e(X, Y), !f(X, Y).")

let () =
  Alcotest.run "eval"
    [
      ( "unit",
        [
          Alcotest.test_case "scan/project" `Quick test_scan_project;
          Alcotest.test_case "index join" `Quick test_index_join;
          Alcotest.test_case "filter and compute" `Quick test_filter_and_compute;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero_drops;
          Alcotest.test_case "repeated var in scan" `Quick test_repeated_var_in_scan;
          Alcotest.test_case "repeated var in lookup" `Quick test_repeated_var_in_lookup;
          Alcotest.test_case "negation" `Quick test_negation;
          Alcotest.test_case "unit scan" `Quick test_unit_scan;
          Alcotest.test_case "aggregate emit" `Quick test_agg_emit;
          Alcotest.test_case "constant in scan" `Quick test_scan_constant_check;
          Alcotest.test_case "lookup resolved once" `Quick test_lookup_resolved_once;
          Alcotest.test_case "membership access, one-row run" `Quick test_membership_access;
        ] );
    ]
