module Sim = Dcd_sim.Simulator
module Coord = Dcd_engine.Coord
module Gen = Dcd_workload.Gen
module Graph = Dcd_workload.Graph

let params = Sim.default_params

let graph = lazy (Gen.rmat ~seed:7 ~scale:9 ~edges:4000 ())

let all_strategies = [ Coord.Global; Coord.Ssp 1; Coord.Ssp 5; Coord.Dws ]

(* reference CC label counts computed directly *)
let reference_cc_labels g =
  let n = max (Graph.n g) (Graph.max_vertex g + 1) in
  let adj = Array.make n [] in
  Dcd_util.Vec.iter
    (fun (u, v, _) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    (Graph.edges g);
  let best = Array.make n max_int in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if adj.(v) <> [] && best.(v) = max_int then begin
      (* BFS the whole component *)
      let q = Queue.create () in
      Queue.push v q;
      best.(v) <- 0;
      while not (Queue.is_empty q) do
        let x = Queue.pop q in
        incr count;
        List.iter
          (fun y -> if best.(y) = max_int then begin best.(y) <- 0; Queue.push y q end)
          adj.(x)
      done
    end
  done;
  !count

let test_all_strategies_reach_fixpoint () =
  let g = Lazy.force graph in
  let expected = reference_cc_labels g in
  List.iter
    (fun strategy ->
      let spec = Sim.cc ~graph:g ~workers:4 in
      let o = Sim.run spec ~strategy ~params in
      Alcotest.(check int)
        ("labels under " ^ Coord.to_string strategy)
        expected o.correct_values)
    all_strategies

let test_deterministic () =
  let g = Lazy.force graph in
  let spec = Sim.cc ~graph:g ~workers:4 in
  let a = Sim.run spec ~strategy:Coord.Dws ~params in
  let b = Sim.run spec ~strategy:Coord.Dws ~params in
  Alcotest.(check (float 0.)) "same makespan" a.makespan b.makespan;
  Alcotest.(check int) "same tuples" a.tuples_processed b.tuples_processed

let test_global_counts_rounds () =
  let g = Gen.chain ~n:20 in
  let spec = Sim.bfs ~graph:g ~source:0 ~workers:2 in
  let o = Sim.run spec ~strategy:Coord.Global ~params in
  (* a 20-vertex chain needs 19 propagation rounds *)
  let rounds = Array.fold_left max 0 o.iterations in
  Alcotest.(check bool) "rounds ~ chain length" true (rounds >= 10 && rounds <= 20);
  Alcotest.(check int) "all vertices reached" 20 o.correct_values

let test_sssp_distances () =
  let g = Graph.create ~n:4 in
  Graph.add_edge g ~w:10 0 1;
  Graph.add_edge g ~w:2 0 2;
  Graph.add_edge g ~w:3 2 1;
  let spec = Sim.sssp ~graph:g ~source:0 ~workers:2 in
  List.iter
    (fun strategy ->
      let o = Sim.run spec ~strategy ~params in
      Alcotest.(check int) "3 vertices valued" 3 o.correct_values)
    all_strategies

let test_makespan_positive_and_idle_consistent () =
  let g = Lazy.force graph in
  let spec = Sim.cc ~graph:g ~workers:8 in
  List.iter
    (fun strategy ->
      let o = Sim.run spec ~strategy ~params in
      Alcotest.(check bool) "makespan positive" true (o.makespan > 0.);
      Array.iteri
        (fun w busy ->
          Alcotest.(check bool) "busy <= makespan" true (busy <= o.makespan +. 1e-6);
          Alcotest.(check bool) "idle = makespan - busy" true
            (abs_float (o.idle.(w) -. (o.makespan -. busy)) < 1e-6))
        o.busy)
    all_strategies

let test_dws_beats_global_at_scale () =
  (* the headline shape: with many workers, barrier evaluation pays for
     stragglers and serialized exchange; DWS does not *)
  let g = Gen.rmat ~seed:21 ~scale:11 ~edges:20_000 () in
  let spec = Sim.sssp ~graph:g ~source:1 ~workers:32 in
  let global = Sim.run spec ~strategy:Coord.Global ~params in
  let dws = Sim.run spec ~strategy:Coord.Dws ~params in
  Alcotest.(check bool)
    (Printf.sprintf "dws (%.0f) < global (%.0f)" dws.makespan global.makespan)
    true (dws.makespan < global.makespan)

let test_values_match_reference () =
  (* not just timing: the simulated evaluation must compute the true
     fixpoint values under every strategy *)
  let g = Graph.create ~n:6 in
  Graph.add_edge g ~w:10 0 1;
  Graph.add_edge g ~w:2 0 2;
  Graph.add_edge g ~w:3 2 1;
  Graph.add_edge g ~w:1 1 3;
  Graph.add_edge g ~w:100 2 3;
  let expected = [| Some 0; Some 5; Some 2; Some 6; None; None |] in
  List.iter
    (fun strategy ->
      let o = Sim.run (Sim.sssp ~graph:g ~source:0 ~workers:3) ~strategy ~params in
      Alcotest.(check bool)
        ("distances exact under " ^ Coord.to_string strategy)
        true
        (o.values = expected))
    all_strategies;
  (* CC labels: min vertex id of each component *)
  let g = Gen.components ~seed:4 ~count:3 ~size:10 in
  let o = Sim.run (Sim.cc ~graph:g ~workers:4) ~strategy:Coord.Dws ~params in
  let labels = Array.to_list o.values |> List.filter_map Fun.id |> List.sort_uniq compare in
  Alcotest.(check (list int)) "three component labels" [ 0; 10; 20 ] labels

let test_speedup_curve_monotone_start () =
  let g = Lazy.force graph in
  let curve =
    Sim.speedup_curve
      (fun ~workers -> Sim.cc ~graph:g ~workers)
      ~strategy:Coord.Global ~params ~workers:[ 1; 4; 16 ]
  in
  match curve with
  | [ (1, s1); (4, s4); (16, s16) ] ->
    Alcotest.(check (float 1e-9)) "baseline speedup 1" 1.0 s1;
    Alcotest.(check bool) "speedup grows" true (s4 > s1 && s16 > s4)
  | _ -> Alcotest.fail "unexpected curve shape"

let () =
  Alcotest.run "sim"
    [
      ( "unit",
        [
          Alcotest.test_case "fixpoint under all strategies" `Quick
            test_all_strategies_reach_fixpoint;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "global counts rounds" `Quick test_global_counts_rounds;
          Alcotest.test_case "sssp distances" `Quick test_sssp_distances;
          Alcotest.test_case "idle accounting" `Quick test_makespan_positive_and_idle_consistent;
          Alcotest.test_case "dws beats global at scale" `Quick test_dws_beats_global_at_scale;
          Alcotest.test_case "values match reference" `Quick test_values_match_reference;
          Alcotest.test_case "speedup curve" `Quick test_speedup_curve_monotone_start;
        ] );
    ]
