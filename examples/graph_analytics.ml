(* Graph analytics: the paper's three graph queries — Connected
   Components, Single-Source Shortest Paths and PageRank — on a
   generated RMAT graph, evaluated with each coordination strategy.

   Run with: dune exec examples/graph_analytics.exe *)

module D = Dcdatalog

let run_query (spec : D.Queries.spec) ~params ~edb ~strategy =
  let prepared =
    match D.prepare ~params spec.source with
    | Ok p -> p
    | Error e -> failwith (spec.name ^ ": " ^ e)
  in
  let config =
    { D.default_config with strategy; max_iterations = spec.max_iterations; workers = 3 }
  in
  let result = D.run prepared ~edb ~config () in
  D.Vec.length (D.Parallel.relation_vec result spec.output)

let () =
  let graph = D.Gen.rmat ~seed:42 ~scale:11 ~edges:16_000 () in
  Printf.printf "RMAT graph: %d vertices, %d edges\n\n" (D.Graph.max_vertex graph + 1)
    (D.Graph.edge_count graph);

  let strategies = [ ("global", D.Coord.Global); ("ssp(2)", D.Coord.Ssp 2); ("dws", D.Coord.Dws) ] in

  (* Connected components (undirected view of the graph) *)
  let cc_edb = D.Queries.arc_sym_edb graph in
  List.iter
    (fun (name, strategy) ->
      let n = run_query D.Queries.cc ~params:[] ~edb:cc_edb ~strategy in
      Printf.printf "cc        [%-7s] %d vertices labelled\n%!" name n)
    strategies;

  (* Single-source shortest paths from vertex 0 *)
  let sssp_edb = D.Queries.warc_edb graph in
  List.iter
    (fun (name, strategy) ->
      let n = run_query D.Queries.sssp ~params:[ ("start", 0) ] ~edb:sssp_edb ~strategy in
      Printf.printf "sssp      [%-7s] %d vertices reached\n%!" name n)
    strategies;

  (* PageRank, 20 bounded iterations, fixed-point arithmetic *)
  let pr_edb = D.Queries.matrix_edb graph in
  let vnum = D.Graph.max_vertex graph + 1 in
  List.iter
    (fun (name, strategy) ->
      let n = run_query D.Queries.pagerank ~params:[ ("vnum", vnum) ] ~edb:pr_edb ~strategy in
      Printf.printf "pagerank  [%-7s] %d ranks computed\n%!" name n)
    strategies;

  (* show the top-5 PageRank vertices *)
  let prepared = Result.get_ok (D.prepare ~params:[ ("vnum", vnum) ] D.Queries.pagerank.source) in
  let result =
    D.run prepared ~edb:pr_edb
      ~config:{ D.default_config with max_iterations = D.Queries.pagerank.max_iterations }
      ()
  in
  let ranks = D.relation result "results" in
  let sorted = List.sort (fun a b -> compare (List.nth b 1) (List.nth a 1)) ranks in
  print_endline "\nTop-5 PageRank vertices (value / 1e9):";
  List.iteri
    (fun i row ->
      if i < 5 then
        match row with
        | [ v; r ] -> Printf.printf "  vertex %-6d rank %.6f\n" v (float_of_int r /. 1e9)
        | _ -> ())
    sorted
