(* End-to-end tests of the parallel engine: every paper query on
   hand-checked inputs, across strategies, worker counts and
   optimization settings. *)

module D = Dcdatalog

let rows = Alcotest.(list (list int))

let run ?params ?(config = D.default_config) src edb =
  match D.query ?params ~config src ~edb:(List.map (fun (n, r) -> (n, D.tuples r)) edb) with
  | Ok result -> result
  | Error e -> Alcotest.fail e

let strategies = [ ("global", D.Coord.Global); ("ssp1", D.Coord.Ssp 1); ("dws", D.Coord.Dws) ]

let each_config f () =
  List.iter
    (fun (sname, strategy) ->
      List.iter
        (fun workers ->
          f
            (Printf.sprintf "%s/w%d" sname workers)
            { D.default_config with strategy; workers })
        [ 1; 3 ])
    strategies

let arc_chain = [ ("arc", [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 2; 5 ] ]) ]

let tc_expected =
  [ [ 1; 2 ]; [ 1; 3 ]; [ 1; 4 ]; [ 1; 5 ]; [ 2; 3 ]; [ 2; 4 ]; [ 2; 5 ]; [ 3; 4 ] ]

let test_tc_everywhere =
  each_config (fun label config ->
      let r = run ~config D.Queries.tc.source arc_chain in
      Alcotest.check rows ("tc " ^ label) tc_expected (D.relation r "tc"))

let test_cc_everywhere =
  each_config (fun label config ->
      let edb = [ ("arc", [ [ 1; 2 ]; [ 2; 1 ]; [ 2; 3 ]; [ 3; 2 ]; [ 5; 6 ]; [ 6; 5 ] ]) ] in
      let r = run ~config D.Queries.cc.source edb in
      Alcotest.check rows ("cc " ^ label)
        [ [ 1; 1 ]; [ 2; 1 ]; [ 3; 1 ]; [ 5; 5 ]; [ 6; 5 ] ]
        (D.relation r "cc"))

let test_sssp_everywhere =
  each_config (fun label config ->
      let edb = [ ("warc", [ [ 1; 2; 10 ]; [ 1; 3; 2 ]; [ 3; 2; 3 ]; [ 2; 4; 1 ]; [ 3; 4; 100 ] ]) ] in
      let r = run ~params:[ ("start", 1) ] ~config D.Queries.sssp.source edb in
      Alcotest.check rows ("sssp " ^ label)
        [ [ 1; 0 ]; [ 2; 5 ]; [ 3; 2 ]; [ 4; 6 ] ]
        (D.relation r "results"))

let test_apsp_everywhere =
  each_config (fun label config ->
      let edb = [ ("warc", [ [ 1; 2; 1 ]; [ 2; 3; 1 ]; [ 3; 1; 1 ] ]) ] in
      let r = run ~config D.Queries.apsp.source edb in
      Alcotest.check rows ("apsp " ^ label)
        [
          [ 1; 1; 3 ]; [ 1; 2; 1 ]; [ 1; 3; 2 ];
          [ 2; 1; 2 ]; [ 2; 2; 3 ]; [ 2; 3; 1 ];
          [ 3; 1; 1 ]; [ 3; 2; 2 ]; [ 3; 3; 3 ];
        ]
        (D.relation r "apsp"))

let test_delivery_everywhere =
  each_config (fun label config ->
      let edb =
        [
          ("assbl", [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 3 ]; [ 1; 4 ]; [ 2; 5 ] ]);
          ("basic", [ [ 3; 7 ]; [ 4; 2 ]; [ 5; 10 ] ]);
        ]
      in
      let r = run ~config D.Queries.delivery.source edb in
      Alcotest.check rows ("delivery " ^ label)
        [ [ 0; 10 ]; [ 1; 7 ]; [ 2; 10 ]; [ 3; 7 ]; [ 4; 2 ]; [ 5; 10 ] ]
        (D.relation r "results"))

let test_attend_everywhere =
  each_config (fun label config ->
      let edb =
        [
          ("organizer", [ [ 1 ]; [ 2 ]; [ 3 ] ]);
          ("friend", [ [ 10; 1 ]; [ 10; 2 ]; [ 10; 3 ]; [ 11; 1 ]; [ 11; 2 ]; [ 11; 10 ] ]);
        ]
      in
      let r = run ~config D.Queries.attend.source edb in
      (* 10 attends via 3 organizers, then 11 attends via 1, 2, 10 *)
      Alcotest.check rows ("attend " ^ label)
        [ [ 1 ]; [ 2 ]; [ 3 ]; [ 10 ]; [ 11 ] ]
        (D.relation r "attend"))

let test_sg_everywhere =
  each_config (fun label config ->
      let edb = [ ("arc", [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 4 ]; [ 3; 5 ] ]) ] in
      let r = run ~config D.Queries.sg.source edb in
      Alcotest.check rows ("sg " ^ label)
        [ [ 2; 3 ]; [ 3; 2 ]; [ 4; 5 ]; [ 5; 4 ] ]
        (D.relation r "sg"))

let test_pagerank_converges () =
  let edb = [ ("matrix", [ [ 1; 2; 1 ]; [ 2; 1; 1 ] ]) ] in
  (* the 0.85^k geometric tail needs ~120 rounds to reach the fixed-point
     integer fixpoint; lockstep Global keeps the symmetric cycle exact *)
  let config =
    { D.default_config with max_iterations = 500; workers = 2; strategy = D.Coord.Global }
  in
  let r = run ~params:[ ("vnum", 2) ] ~config D.Queries.pagerank.source edb in
  match D.relation r "results" with
  | [ [ 1; r1 ]; [ 2; r2 ] ] ->
    (* symmetric 2-cycle: both ranks equal, summing to ~1.0 (fp 1e9) *)
    Alcotest.(check bool) "ranks equal" true (abs (r1 - r2) < 1000);
    Alcotest.(check bool) "ranks sum to ~1" true (abs (r1 + r2 - 1_000_000_000) < 10_000_000)
  | other ->
    Alcotest.fail (Printf.sprintf "unexpected pagerank shape (%d rows)" (List.length other))

let test_unoptimized_store_same_results () =
  let config = { D.default_config with workers = 2; optimized_stores = false } in
  let r = run ~config D.Queries.tc.source arc_chain in
  Alcotest.check rows "tc unoptimized" tc_expected (D.relation r "tc")

let test_no_partial_agg_same_results () =
  let config = { D.default_config with workers = 2; partial_agg = false } in
  let edb = [ ("warc", [ [ 1; 2; 10 ]; [ 1; 3; 2 ]; [ 3; 2; 3 ]; [ 2; 4; 1 ] ]) ] in
  let r = run ~params:[ ("start", 1) ] ~config D.Queries.sssp.source edb in
  Alcotest.check rows "sssp without partial agg"
    [ [ 1; 0 ]; [ 2; 5 ]; [ 3; 2 ]; [ 4; 6 ] ]
    (D.relation r "results")

let test_locked_exchange_same_results () =
  let config =
    { D.default_config with workers = 3; exchange = D.Parallel.Locked_exchange }
  in
  let r = run ~config D.Queries.tc.source arc_chain in
  Alcotest.check rows "tc over locked exchange" tc_expected (D.relation r "tc");
  let edb = [ ("warc", [ [ 1; 2; 10 ]; [ 1; 3; 2 ]; [ 3; 2; 3 ]; [ 2; 4; 1 ] ]) ] in
  let r = run ~params:[ ("start", 1) ] ~config D.Queries.sssp.source edb in
  Alcotest.check rows "sssp over locked exchange"
    [ [ 1; 0 ]; [ 2; 5 ]; [ 3; 2 ]; [ 4; 6 ] ]
    (D.relation r "results")

let test_empty_edb () =
  let r = run D.Queries.tc.source [ ("arc", []) ] in
  Alcotest.check rows "empty input, empty output" [] (D.relation r "tc")

let test_missing_edb_relation () =
  (* arc never supplied at all: should behave as empty, not crash *)
  let r = run D.Queries.tc.source [] in
  Alcotest.check rows "missing EDB acts empty" [] (D.relation r "tc")

let test_stats_populated () =
  let r = run ~config:{ D.default_config with workers = 2 } D.Queries.tc.source arc_chain in
  Alcotest.(check bool) "iterations counted" true (D.Run_stats.total_iterations r.stats > 0);
  Alcotest.(check bool) "messages counted" true (D.Run_stats.total_sent r.stats > 0);
  Alcotest.(check int) "one stratum" 1 (List.length r.stats.strata)

let test_self_loop () =
  let r = run D.Queries.tc.source [ ("arc", [ [ 1; 1 ]; [ 1; 2 ] ]) ] in
  Alcotest.check rows "self loop terminates" [ [ 1; 1 ]; [ 1; 2 ] ] (D.relation r "tc")

let test_stratified_negation_end_to_end () =
  let src =
    "reach(X) <- src(X).\nreach(Y) <- reach(X), e(X, Y).\nunreach(X) <- node(X), !reach(X)."
  in
  let edb = [ ("src", [ [ 1 ] ]); ("e", [ [ 1; 2 ]; [ 3; 4 ] ]); ("node", [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ]) ] in
  let r = run src edb in
  Alcotest.check rows "negation" [ [ 3 ]; [ 4 ] ] (D.relation r "unreach")

let test_zero_arity_predicates () =
  let src = "nonempty <- e(X, Y).\nflag(1) <- nonempty." in
  let r = run src [ ("e", [ [ 1; 2 ] ]) ] in
  Alcotest.check rows "0-arity chains through strata" [ [ 1 ] ] (D.relation r "flag");
  let r = run src [ ("e", []) ] in
  Alcotest.check rows "0-arity false on empty input" [] (D.relation r "flag")

let test_multi_column_group_aggregate () =
  (* min over a 2-column group key, inside recursion (APSP is the
     canonical case, but here with an extra join to force residual
     checks on the group columns) *)
  let src =
    "d(A, B, min<C>) <- e(A, B, C).\n\
     d(A, B, min<C>) <- d(A, B, C1), disc(A, K), C = C1 - K, C > 0."
  in
  let edb = [ ("e", [ [ 1; 2; 10 ]; [ 1; 3; 7 ] ]); ("disc", [ [ 1; 3 ] ]) ] in
  let r = run ~config:{ D.default_config with workers = 2 } src edb in
  (* repeatedly subtract 3 while positive: 10 -> 1, 7 -> 1 *)
  Alcotest.check rows "recursive multi-column min" [ [ 1; 2; 1 ]; [ 1; 3; 1 ] ]
    (D.relation r "d")

let test_three_way_mutual_recursion () =
  let src =
    "a(X) <- seed(X).\n\
     b(Y) <- a(X), e(X, Y).\n\
     c(Y) <- b(X), e(X, Y).\n\
     a(Y) <- c(X), e(X, Y)."
  in
  let edb = [ ("seed", [ [ 0 ] ]); ("e", List.init 8 (fun i -> [ i; i + 1 ])) ] in
  let r = run ~config:{ D.default_config with workers = 3 } src edb in
  (* a holds positions 0 mod 3, b positions 1 mod 3, c positions 2 mod 3 *)
  Alcotest.check rows "a" [ [ 0 ]; [ 3 ]; [ 6 ] ] (D.relation r "a");
  Alcotest.check rows "b" [ [ 1 ]; [ 4 ]; [ 7 ] ] (D.relation r "b");
  Alcotest.check rows "c" [ [ 2 ]; [ 5 ]; [ 8 ] ] (D.relation r "c")

let test_max_iterations_cap () =
  let src = "n(X) <- seed(X).\nn(Y) <- n(X), step(X, Y)." in
  let edb = [ ("seed", [ [ 0 ] ]); ("step", List.init 50 (fun i -> [ i; i + 1 ])) ] in
  let config = { D.default_config with workers = 1; max_iterations = 5 } in
  let r = run ~config src edb in
  Alcotest.(check bool) "iteration cap limits depth" true (D.relation_count r "n" < 51)

let () =
  Alcotest.run "engine"
    [
      ( "queries",
        [
          Alcotest.test_case "tc all configs" `Quick test_tc_everywhere;
          Alcotest.test_case "cc all configs" `Quick test_cc_everywhere;
          Alcotest.test_case "sssp all configs" `Quick test_sssp_everywhere;
          Alcotest.test_case "apsp all configs" `Quick test_apsp_everywhere;
          Alcotest.test_case "delivery all configs" `Quick test_delivery_everywhere;
          Alcotest.test_case "attend all configs" `Quick test_attend_everywhere;
          Alcotest.test_case "sg all configs" `Quick test_sg_everywhere;
          Alcotest.test_case "pagerank converges" `Quick test_pagerank_converges;
        ] );
      ( "configurations",
        [
          Alcotest.test_case "unoptimized store" `Quick test_unoptimized_store_same_results;
          Alcotest.test_case "no partial agg" `Quick test_no_partial_agg_same_results;
          Alcotest.test_case "locked exchange" `Quick test_locked_exchange_same_results;
          Alcotest.test_case "empty edb" `Quick test_empty_edb;
          Alcotest.test_case "missing edb relation" `Quick test_missing_edb_relation;
          Alcotest.test_case "stats populated" `Quick test_stats_populated;
          Alcotest.test_case "self loop" `Quick test_self_loop;
          Alcotest.test_case "stratified negation" `Quick test_stratified_negation_end_to_end;
          Alcotest.test_case "max iterations cap" `Quick test_max_iterations_cap;
          Alcotest.test_case "zero-arity predicates" `Quick test_zero_arity_predicates;
          Alcotest.test_case "multi-column group aggregate" `Quick test_multi_column_group_aggregate;
          Alcotest.test_case "three-way mutual recursion" `Quick test_three_way_mutual_recursion;
        ] );
    ]
