module A = Dcd_storage.Agg_table
module Vec = Dcd_util.Vec

let both_backends f () =
  f A.Indexed;
  f A.Scan

let test_min backend =
  let t = A.create ~backend ~kind:A.Min ~group_arity:1 () in
  Alcotest.(check (option int)) "first value" (Some 5) (A.merge t ~group:[| 1 |] 5);
  Alcotest.(check (option int)) "worse absorbed" None (A.merge t ~group:[| 1 |] 7);
  Alcotest.(check (option int)) "better updates" (Some 3) (A.merge t ~group:[| 1 |] 3);
  Alcotest.(check (option int)) "equal absorbed" None (A.merge t ~group:[| 1 |] 3);
  Alcotest.(check (option int)) "find" (Some 3) (A.find t [| 1 |]);
  Alcotest.(check (option int)) "missing group" None (A.find t [| 9 |]);
  Alcotest.(check int) "groups" 1 (A.length t)

let test_max backend =
  let t = A.create ~backend ~kind:A.Max ~group_arity:1 () in
  ignore (A.merge t ~group:[| 1 |] 5);
  Alcotest.(check (option int)) "better updates" (Some 9) (A.merge t ~group:[| 1 |] 9);
  Alcotest.(check (option int)) "worse absorbed" None (A.merge t ~group:[| 1 |] 2)

let test_count backend =
  let t = A.create ~backend ~kind:A.Count ~group_arity:1 () in
  Alcotest.(check (option int)) "first contributor" (Some 1)
    (A.merge t ~group:[| 1 |] ~contributor:[| 100 |] 0);
  Alcotest.(check (option int)) "repeat contributor absorbed" None
    (A.merge t ~group:[| 1 |] ~contributor:[| 100 |] 0);
  Alcotest.(check (option int)) "new contributor counts" (Some 2)
    (A.merge t ~group:[| 1 |] ~contributor:[| 101 |] 0);
  Alcotest.(check (option int)) "same contributor other group" (Some 1)
    (A.merge t ~group:[| 2 |] ~contributor:[| 100 |] 0)

let test_sum_replaceable backend =
  let t = A.create ~backend ~kind:A.Sum ~group_arity:1 () in
  Alcotest.(check (option int)) "first contribution" (Some 10)
    (A.merge t ~group:[| 1 |] ~contributor:[| 7 |] 10);
  Alcotest.(check (option int)) "second contributor adds" (Some 15)
    (A.merge t ~group:[| 1 |] ~contributor:[| 8 |] 5);
  (* the PageRank behavior: same contributor, new value -> adjust by diff *)
  Alcotest.(check (option int)) "replacement adjusts" (Some 12)
    (A.merge t ~group:[| 1 |] ~contributor:[| 7 |] 7);
  Alcotest.(check (option int)) "same value absorbed" None
    (A.merge t ~group:[| 1 |] ~contributor:[| 7 |] 7);
  Alcotest.(check (option int)) "find" (Some 12) (A.find t [| 1 |])

let test_contributor_validation () =
  let t = A.create ~kind:A.Min ~group_arity:1 () in
  Alcotest.check_raises "min rejects contributor"
    (Invalid_argument "Agg_table.merge: contributor not allowed for min/max") (fun () ->
      ignore (A.merge t ~group:[| 1 |] ~contributor:[| 2 |] 0));
  let c = A.create ~kind:A.Count ~group_arity:1 () in
  Alcotest.check_raises "count requires contributor"
    (Invalid_argument "Agg_table.merge: contributor required for count") (fun () ->
      ignore (A.merge c ~group:[| 1 |] 0))

let test_iter_prefix backend =
  let t = A.create ~backend ~kind:A.Min ~group_arity:2 () in
  ignore (A.merge t ~group:[| 1; 5 |] 50);
  ignore (A.merge t ~group:[| 1; 6 |] 60);
  ignore (A.merge t ~group:[| 2; 5 |] 70);
  let got = ref [] in
  A.iter_prefix t ~prefix:[| 1 |] (fun g v -> got := (g.(1), v) :: !got);
  Alcotest.(check (list (pair int int))) "prefix groups" [ (5, 50); (6, 60) ]
    (List.sort compare !got)

let test_backends_agree =
  QCheck.Test.make ~name:"Indexed and Scan backends agree" ~count:100
    QCheck.(list (triple (int_range 0 5) (int_range 0 5) (int_range 0 50)))
    (fun ops ->
      let a = A.create ~backend:A.Indexed ~kind:A.Sum ~group_arity:1 () in
      let b = A.create ~backend:A.Scan ~kind:A.Sum ~group_arity:1 () in
      List.iter
        (fun (g, c, v) ->
          let ra = A.merge a ~group:[| g |] ~contributor:[| c |] v in
          let rb = A.merge b ~group:[| g |] ~contributor:[| c |] v in
          assert (ra = rb))
        ops;
      let dump t = List.sort compare (List.map (fun (g, v) -> (g.(0), v)) (Vec.to_list (A.to_vec t))) in
      dump a = dump b)

let () =
  Alcotest.run "agg_table"
    [
      ( "unit",
        [
          Alcotest.test_case "min both backends" `Quick (both_backends test_min);
          Alcotest.test_case "max both backends" `Quick (both_backends test_max);
          Alcotest.test_case "count both backends" `Quick (both_backends test_count);
          Alcotest.test_case "sum replaceable" `Quick (both_backends test_sum_replaceable);
          Alcotest.test_case "contributor validation" `Quick test_contributor_validation;
          Alcotest.test_case "iter_prefix" `Quick (both_backends test_iter_prefix);
        ] );
      ("property", [ QCheck_alcotest.to_alcotest test_backends_agree ]);
    ]
