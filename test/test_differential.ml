(* Differential testing: the parallel engine against the independent
   naive AST interpreter on randomly generated inputs, for every kind of
   recursion and aggregate the paper exercises. *)

module D = Dcdatalog

let edges_gen =
  QCheck.Gen.(
    let* n = int_range 2 14 in
    let* m = int_range 0 40 in
    let edge = pair (int_range 0 (n - 1)) (int_range 0 (n - 1)) in
    list_repeat m edge)

let wedges_gen =
  QCheck.Gen.(
    let* n = int_range 2 12 in
    let* m = int_range 0 30 in
    list_repeat m (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 1 9)))

let run_engine ?params ~config src edb =
  match
    D.query ?params ~config src
      ~edb:(List.map (fun (n, rows) -> (n, D.Vec.of_list rows)) edb)
  with
  | Ok r -> r
  | Error e -> failwith e

let run_naive ?params src edb =
  D.Naive.run ?params (D.Parser.parse_program src)
    ~edb:(List.map (fun (n, rows) -> (n, rows)) edb)

let agree ?params ~outputs src edb config =
  let engine = run_engine ?params ~config src edb in
  let oracle = run_naive ?params src edb in
  List.for_all
    (fun out ->
      let got = D.relation engine out in
      let want =
        match List.assoc_opt out oracle with
        | Some rows -> List.sort compare (List.map Array.to_list rows)
        | None -> []
      in
      got = want)
    outputs

let config_gen =
  QCheck.Gen.(
    let* workers = int_range 1 4 in
    let* strat = int_range 0 2 in
    let strategy =
      match strat with 0 -> D.Coord.Global | 1 -> D.Coord.Ssp 2 | _ -> D.Coord.Dws
    in
    let* optimized = bool in
    let* steal = bool in
    return
      {
        D.default_config with
        workers;
        strategy;
        steal;
        optimized_stores = optimized;
      })

let make_prop name gen prop = QCheck.Test.make ~name ~count:40 (QCheck.make gen) prop

let prop_tc =
  make_prop "tc: engine = naive"
    QCheck.Gen.(pair edges_gen config_gen)
    (fun (edges, config) ->
      let edb = [ ("arc", List.map (fun (a, b) -> [| a; b |]) edges) ] in
      agree ~outputs:[ "tc" ] D.Queries.tc.source edb config)

let prop_cc =
  make_prop "cc: engine = naive"
    QCheck.Gen.(pair edges_gen config_gen)
    (fun (edges, config) ->
      let sym = List.concat_map (fun (a, b) -> [ [| a; b |]; [| b; a |] ]) edges in
      agree ~outputs:[ "cc" ] D.Queries.cc.source [ ("arc", sym) ] config)

let prop_sssp =
  make_prop "sssp: engine = naive"
    QCheck.Gen.(pair wedges_gen config_gen)
    (fun (edges, config) ->
      let edb = [ ("warc", List.map (fun (a, b, w) -> [| a; b; w |]) edges) ] in
      agree ~params:[ ("start", 0) ] ~outputs:[ "results" ] D.Queries.sssp.source edb config)

let prop_apsp =
  make_prop "apsp (nonlinear): engine = naive"
    QCheck.Gen.(pair wedges_gen config_gen)
    (fun (edges, config) ->
      let edb = [ ("warc", List.map (fun (a, b, w) -> [| a; b; w |]) edges) ] in
      agree ~outputs:[ "apsp" ] D.Queries.apsp.source edb config)

let prop_sg =
  make_prop "sg: engine = naive"
    QCheck.Gen.(pair edges_gen config_gen)
    (fun (edges, config) ->
      (* SG blows up on dense graphs; thin the input *)
      let edges = List.filteri (fun i _ -> i < 16) edges in
      let edb = [ ("arc", List.map (fun (a, b) -> [| a; b |]) edges) ] in
      agree ~outputs:[ "sg" ] D.Queries.sg.source edb config)

let prop_attend =
  make_prop "attend (mutual+count): engine = naive"
    QCheck.Gen.(triple edges_gen (int_range 1 3) config_gen)
    (fun (edges, orgs, config) ->
      let friend = List.map (fun (a, b) -> [| a; b |]) edges in
      let organizer = List.init orgs (fun i -> [| i |]) in
      agree ~outputs:[ "attend"; "cnt" ] D.Queries.attend.source
        [ ("friend", friend); ("organizer", organizer) ]
        config)

let prop_delivery =
  make_prop "delivery (max): engine = naive"
    QCheck.Gen.(pair (int_range 5 60) config_gen)
    (fun (n, config) ->
      let tree, basics = D.Datasets.bom n in
      let assbl =
        D.Vec.to_list (D.Graph.edges tree) |> List.map (fun (a, b, _) -> [| a; b |])
      in
      let basic = List.map (fun (p, d) -> [| p; d |]) basics in
      agree ~outputs:[ "results" ] D.Queries.delivery.source
        [ ("assbl", assbl); ("basic", basic) ]
        config)

let prop_pagerank =
  (* the fixed-point-integer PageRank is a monotone fixpoint (sums only
     grow), so engine and oracle must converge to identical values when
     given enough iterations *)
  make_prop "pagerank (sum): engine = naive"
    QCheck.Gen.(pair edges_gen config_gen)
    (fun (edges, config) ->
      let edges = List.filteri (fun i _ -> i < 12) edges in
      if edges = [] then true
      else begin
        let n = 1 + List.fold_left (fun m (a, b) -> max m (max a b)) 0 edges in
        let deg = Array.make n 0 in
        List.iter (fun (a, _) -> deg.(a) <- deg.(a) + 1) edges;
        let matrix = List.map (fun (a, b) -> [| a; b; deg.(a) |]) edges in
        let params = [ ("vnum", n) ] in
        let config = { config with D.max_iterations = 1000 } in
        let engine =
          run_engine ~params ~config D.Queries.pagerank.source [ ("matrix", matrix) ]
        in
        let oracle =
          D.Naive.run ~params ~max_iterations:1000
            (D.Parser.parse_program D.Queries.pagerank.source)
            ~edb:[ ("matrix", matrix) ]
        in
        let got = D.relation engine "results" in
        let want = List.sort compare (List.map Array.to_list (List.assoc "results" oracle)) in
        if got <> want then begin
          Printf.eprintf "pagerank mismatch: edges=%s workers=%d strategy=%s\n%!"
            (String.concat " " (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) edges))
            config.D.workers
            (D.Coord.to_string config.D.strategy);
          false
        end
        else true
      end)

(* Exhaustive grid: on a fixed graph, TC/CC/SG must return output
   identical to the naive oracle for every strategy x steal x
   worker-count combination, and the exchange's books must balance
   (sent = drained) in every cell.  TC and SG are set queries whose
   copies no rule looks up, so a worker's own pipelines fold the tuples
   they route to that worker straight into its store (local delivery):
   every cell delivers some locally, and a single worker sends nothing
   at all.  CC's aggregate copy always ships. *)
let test_exhaustive_grid () =
  let rng = Dcd_util.Rng.create 17 in
  let edges = List.init 60 (fun _ -> (Dcd_util.Rng.int rng 18, Dcd_util.Rng.int rng 18)) in
  let arc = List.map (fun (a, b) -> [| a; b |]) edges in
  let sym = List.concat_map (fun (a, b) -> [ [| a; b |]; [| b; a |] ]) edges in
  let queries =
    [ ("tc", D.Queries.tc.source, [ ("arc", arc) ], true);
      ("cc", D.Queries.cc.source, [ ("arc", sym) ], false);
      ("sg", D.Queries.sg.source, [ ("arc", List.filteri (fun i _ -> i < 16) arc) ], true) ]
  in
  List.iter
    (fun (out, src, edb, local) ->
      let want =
        List.sort compare (List.map Array.to_list (List.assoc out (run_naive src edb)))
      in
      List.iter
        (fun strategy ->
          List.iter
            (fun steal ->
              List.iter
                (fun workers ->
                  let label =
                    Printf.sprintf "%s %s steal=%b workers=%d" out (D.Coord.to_string strategy)
                      steal workers
                  in
                  let config = { D.default_config with workers; strategy; steal } in
                  let r = run_engine ~config src edb in
                  if D.relation r out <> want then Alcotest.failf "%s: engine != naive" label;
                  let st = r.D.Parallel.stats in
                  let sent = D.Run_stats.total_sent st in
                  Alcotest.(check int) (label ^ ": sent = drained") sent
                    (D.Run_stats.total_drained st);
                  Alcotest.(check bool) (label ^ ": tuples delivered locally") local
                    (D.Run_stats.total_local st > 0);
                  if local && workers = 1 then
                    Alcotest.(check int) (label ^ ": nothing sent") 0 sent)
                [ 1; 2; 4 ])
            [ false; true ])
        [ D.Coord.Global; D.Coord.Ssp 2; D.Coord.Dws ])
    queries

let () =
  Alcotest.run "differential"
    [
      ( "engine vs naive oracle",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_tc; prop_cc; prop_sssp; prop_apsp; prop_sg; prop_attend; prop_delivery;
            prop_pagerank;
          ] );
      ( "exhaustive grid",
        [
          Alcotest.test_case "tc/cc/sg: strategy x steal x workers = naive" `Quick
            test_exhaustive_grid;
        ] );
    ]
