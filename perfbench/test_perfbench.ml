(* Self-checks for the benchmark's helpers: order statistics, the churn
   generator, the spans' self times, and the oracles against the engine
   on small graphs. *)

module D = Dcdatalog
open Perfbench

let floats n = Sample.sorted (List.init n (fun i -> float_of_int (i + 1)))

let test_percentile () =
  Alcotest.(check int) "p90 of 300 is rank 270" 270 (Sample.rank ~n:300 90.);
  Alcotest.(check int) "p99 of 1000 is rank 990" 990 (Sample.rank ~n:1000 99.);
  Alcotest.(check int) "p50 of 9 is rank 5" 5 (Sample.rank ~n:9 50.);
  Alcotest.(check int) "p90 of 1 is rank 1" 1 (Sample.rank ~n:1 90.);
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. (Sample.percentile (floats 100) 90.);
  Alcotest.(check (float 0.)) "p99 of 1..1000" 990. (Sample.percentile (floats 1000) 99.);
  Alcotest.(check (float 0.)) "p100 is the maximum" 7. (Sample.percentile (floats 7) 100.);
  Alcotest.(check (float 0.)) "sorted input" 3.
    (Sample.percentile (Sample.sorted [ 5.; 1.; 3.; 2.; 4. ]) 60.)

let test_median () =
  Alcotest.(check (float 0.)) "odd count" 3. (Sample.median (floats 5));
  Alcotest.(check (float 0.)) "even count" 2.5 (Sample.median (floats 4));
  Alcotest.(check (float 0.)) "single" 1. (Sample.median (floats 1));
  Alcotest.check_raises "empty" (Invalid_argument "Sample.median: empty sample") (fun () ->
      ignore (Sample.median [||]))

let test_ten_beyond () =
  Alcotest.(check int) "100 samples leave 10 beyond p90" 10 (Sample.beyond ~n:100 90.);
  Alcotest.(check bool) "p90 of 100 supported" true (Sample.supported ~n:100 90.);
  Alcotest.(check bool) "p90 of 99 not supported" false (Sample.supported ~n:99 90.);
  Alcotest.(check bool) "p99 of 1000 supported" true (Sample.supported ~n:1000 99.);
  Alcotest.(check bool) "p99 of 999 not supported" false (Sample.supported ~n:999 99.);
  Alcotest.(check bool) "p50 of 19 not supported" false (Sample.supported ~n:19 50.);
  Alcotest.(check bool) "p50 of 20 supported" true (Sample.supported ~n:20 50.)

let churn seed = Churn.create ~seed ~scale:8 ~universe:3000 ~present:1500

let test_churn_deterministic () =
  let a = churn 7 and b = churn 7 and c = churn 8 in
  Alcotest.(check bool) "same universe" true (a.Churn.arcs = b.Churn.arcs);
  Alcotest.(check bool) "another seed, another universe" false (a.Churn.arcs = c.Churn.arcs);
  for _ = 1 to 50 do
    Alcotest.(check bool) "same step" true (Churn.step a ~k:5 = Churn.step b ~k:5)
  done

let test_churn_present_constant () =
  let c = churn 3 in
  let present = Hashtbl.create 4096 in
  Array.iter (fun arc -> Hashtbl.replace present arc ()) (Churn.present_arcs c);
  for _ = 1 to 200 do
    let deleted, inserted = Churn.step c ~k:5 in
    Array.iter
      (fun arc ->
        Alcotest.(check bool) "deletes a present arc" true (Hashtbl.mem present arc);
        Hashtbl.remove present arc)
      deleted;
    Array.iter
      (fun arc ->
        Alcotest.(check bool) "inserts an absent arc" false (Hashtbl.mem present arc);
        Hashtbl.replace present arc ())
      inserted;
    Alcotest.(check int) "present count" 1500 (Hashtbl.length present)
  done;
  let now = Churn.present_arcs c in
  Alcotest.(check int) "generator agrees" 1500 (Array.length now);
  Array.iter (fun arc -> Alcotest.(check bool) "same set" true (Hashtbl.mem present arc)) now

(* The closure's level holds: over 100 steps (one epoch of the serving
   workload) the mean closure size of the last quarter stays within 5%
   of the first quarter's — on the serving workload's own stream
   (seed 9) and on two others. *)
let test_churn_stationary () =
  List.iter
    (fun seed ->
      let c = churn seed in
      let size () =
        let adj = Oracle.adjacency ~n:c.Churn.vertices (Churn.present_arcs c) in
        let total = ref 0 in
        Array.iteri (fun a _ -> total := !total + Array.length (Oracle.reach adj a)) adj;
        float_of_int !total
      in
      let first = ref [] and last = ref [] in
      for step = 1 to 100 do
        ignore (Churn.step c ~k:5);
        if step mod 5 = 0 then
          if step <= 25 then first := size () :: !first
          else if step > 75 then last := size () :: !last
      done;
      let mean l = Sample.mean (Array.of_list l) in
      let drift = Float.abs (mean !last -. mean !first) /. mean !first in
      if drift > 0.05 then
        Alcotest.failf "seed %d: closure level drifted %.1f%% (%.0f -> %.0f)" seed (drift *. 100.)
          (mean !first) (mean !last))
    [ 9; 1; 2 ]

let test_spans () =
  let t = Spans.create () in
  Alcotest.(check int) "off records nothing" 42 (Spans.with_span t ~op:1 "a" (fun () -> 42));
  Alcotest.(check int) "nothing recorded" 0 (Dcd_util.Vec.length t.Spans.spans);
  t.Spans.on <- true;
  let spin () =
    let t0 = Nclock.now () in
    while Nclock.now () - t0 < 200_000 do
      ()
    done
  in
  Spans.with_span t ~op:1 "outer" (fun () ->
      spin ();
      Spans.with_span t ~op:1 "inner" spin);
  let outer = Dcd_util.Vec.get t.Spans.spans 0 and inner = Dcd_util.Vec.get t.Spans.spans 1 in
  Alcotest.(check int) "inner's parent" 0 inner.Spans.parent;
  Alcotest.(check int) "self = duration - child" (Spans.duration_ns outer - Spans.duration_ns inner)
    (Spans.self_ns outer);
  Alcotest.(check bool) "self time of a leaf is its duration" true
    (Spans.self_ns inner = Spans.duration_ns inner);
  let before = Spans.self_ns outer in
  ignore (Spans.measured t ~parent:0 "program-timed" 0.0001);
  Alcotest.(check int) "a measured child counts" (before - 100_000) (Spans.self_ns outer);
  Alcotest.(check int) "self_s per name" 1 (List.length (Spans.self_s t "inner"))

let small_graphs () =
  let chain = [ (0, 1); (1, 2); (2, 3) ] and cycle = [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  let rmat seed =
    let g = D.Gen.rmat ~seed ~scale:5 ~edges:80 () in
    D.Vec.to_list (D.Graph.edges g) |> List.map (fun (u, v, _) -> (u, v))
  in
  [ ("chain", 4, chain); ("cycle", 4, cycle); ("rmat 1", 32, rmat 1); ("rmat 2", 32, rmat 2) ]

let config = { D.default_config with D.workers = 2 }

let test_tc_oracle () =
  (* hand-checked: the cycle reaches everything from 0, 1 and 2 *)
  let adj = Oracle.adjacency ~n:4 [| (0, 1); (1, 2); (2, 0); (2, 3) |] in
  Alcotest.(check (array int)) "reach 0" [| 0; 1; 2; 3 |] (Oracle.reach adj 0);
  Alcotest.(check (array int)) "reach 3" [||] (Oracle.reach adj 3);
  let source = D.Queries.tc.D.Queries.source ^ "\nreach(X, count<Y>) <- tc(X, Y)." in
  List.iter
    (fun (name, n, arcs) ->
      let edb = [ ("arc", D.tuples (List.map (fun (a, b) -> [ a; b ]) arcs)) ] in
      let result = Result.get_ok (D.query ~config source ~edb) in
      let rel p = D.Catalog.get result.D.Parallel.catalog p in
      let adj = Oracle.adjacency ~n (Array.of_list arcs) in
      Alcotest.(check (array int)) (name ^ ": tc") (Oracle.closure_codes adj)
        (Oracle.codes_of_relation (rel "tc") ~base:n);
      let counts = Array.map (fun (a, c) -> (a * (n + 1)) + c) (Oracle.reach_counts adj) in
      Alcotest.(check (array int)) (name ^ ": reach") counts
        (Oracle.codes_of_relation (rel "reach") ~base:(n + 1)))
    (small_graphs ())

let test_sssp_oracle () =
  (* hand-checked: 0 -> 2 directly costs 10, through 1 costs 3 *)
  let dist = Oracle.dijkstra ~n:4 [| (0, 1, 1); (1, 2, 2); (0, 2, 10); (3, 0, 1) |] ~src:0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 3; max_int |] dist;
  List.iter
    (fun seed ->
      let g = D.Gen.rmat ~seed ~scale:6 ~edges:300 ~weights:20 () in
      let n = D.Graph.n g in
      let warcs = D.Vec.to_array (D.Graph.edges g) in
      let src = (let a, _, _ = warcs.(0) in a) in
      let result =
        Result.get_ok
          (D.query ~config ~params:[ ("start", src) ] D.Queries.sssp.D.Queries.source
             ~edb:(D.Queries.warc_edb g))
      in
      let dist = Oracle.dijkstra ~n warcs ~src in
      let base = 1 lsl 32 in
      let expected =
        List.filter_map
          (fun v -> if dist.(v) < max_int then Some ((v * base) + dist.(v)) else None)
          (List.init n Fun.id)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "rmat %d" seed)
        (Array.of_list expected)
        (Oracle.codes_of_relation (D.Catalog.get result.D.Parallel.catalog "results") ~base))
    [ 1; 2; 3 ]

let test_codes () =
  let codes = [| 10; 12; 15; 21; 30 |] in
  Alcotest.(check (array int)) "prefix 1" [| 0; 2; 5 |] (Oracle.codes_with_prefix codes ~base:10 1);
  Alcotest.(check (array int)) "prefix 4" [||] (Oracle.codes_with_prefix codes ~base:10 4);
  Alcotest.(check bool) "member" true (Oracle.codes_mem codes ~base:10 2 1);
  Alcotest.(check bool) "not a member" false (Oracle.codes_mem codes ~base:10 2 2)

let () =
  Alcotest.run "perfbench"
    [
      ( "sample",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond;
        ] );
      ( "churn",
        [
          Alcotest.test_case "deterministic" `Quick test_churn_deterministic;
          Alcotest.test_case "present count constant" `Quick test_churn_present_constant;
          Alcotest.test_case "closure level stationary" `Quick test_churn_stationary;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_spans ]);
      ( "oracle",
        [
          Alcotest.test_case "answer codes" `Quick test_codes;
          Alcotest.test_case "tc and reach vs engine" `Quick test_tc_oracle;
          Alcotest.test_case "sssp vs engine" `Quick test_sssp_oracle;
        ] );
    ]
