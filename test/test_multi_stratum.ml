(* Multi-stratum regression: a recursive stratum feeding two dependent
   aggregate strata, pinned per-stratum fixpoint sizes under all three
   strategies, checked against the naive AST interpreter.  This is the
   end-to-end guard for the persistent worker runtime: every stratum of
   the pipeline — recursive or not — evaluates on the same domain
   pool. *)

module D = Dcdatalog

let rows = Alcotest.(list (list int))

(* programs/reachstats.dl *)
let src =
  "reach(Y) <- src(Y).\n\
   reach(Y) <- reach(X), arc(X, Y).\n\
   deg(X, count<Y>) <- reach(X), arc(X, Y).\n\
   busiest(max<N>) <- deg(X, N)."

(* 0 reaches 1..6; node 9 is unreachable, so its out-edges never count.
   Out-degrees over reachable nodes: 0->2, 1->2, 2->1, 3->1, 4->1. *)
let edb =
  [
    ("src", [ [ 0 ] ]);
    ( "arc",
      [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 3 ]; [ 1; 4 ]; [ 2; 4 ]; [ 3; 5 ]; [ 4; 6 ]; [ 9; 0 ] ] );
  ]

let reach_expected = List.init 7 (fun i -> [ i ])
let deg_expected = [ [ 0; 2 ]; [ 1; 2 ]; [ 2; 1 ]; [ 3; 1 ]; [ 4; 1 ] ]
let busiest_expected = [ [ 2 ] ]

let run ~config =
  match D.query ~config src ~edb:(List.map (fun (n, r) -> (n, D.tuples r)) edb) with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let strategies = [ ("global", D.Coord.Global); ("ssp2", D.Coord.Ssp 2); ("dws", D.Coord.Dws) ]

let stratum_sizes (stats : D.Run_stats.t) =
  (* relation cardinalities are pinned via the relations themselves; the
     stats only need to show one stratum entry per plan stratum *)
  List.length stats.strata

let test_pinned_fixpoints_everywhere () =
  List.iter
    (fun (sname, strategy) ->
      List.iter
        (fun workers ->
          let label = Printf.sprintf "%s/w%d" sname workers in
          let r = run ~config:{ D.default_config with strategy; workers } in
          Alcotest.check rows ("reach " ^ label) reach_expected (D.relation r "reach");
          Alcotest.check rows ("deg " ^ label) deg_expected (D.relation r "deg");
          Alcotest.check rows ("busiest " ^ label) busiest_expected (D.relation r "busiest");
          Alcotest.(check int) ("strata " ^ label) 3 (stratum_sizes r.stats))
        [ 1; 3 ])
    strategies

let test_agrees_with_naive_oracle () =
  let oracle =
    D.Naive.run (D.Parser.parse_program src)
      ~edb:(List.map (fun (n, r) -> (n, List.map Array.of_list r)) edb)
  in
  let want out =
    match List.assoc_opt out oracle with
    | Some rows -> List.sort compare (List.map Array.to_list rows)
    | None -> []
  in
  let r = run ~config:{ D.default_config with workers = 3 } in
  List.iter
    (fun out -> Alcotest.check rows ("oracle " ^ out) (want out) (D.relation r out))
    [ "reach"; "deg"; "busiest" ]

let test_stratum_time_breakdown_populated () =
  let r = run ~config:{ D.default_config with workers = 2 } in
  List.iter
    (fun (s : D.Run_stats.stratum) ->
      Alcotest.(check bool)
        ("non-negative phases: " ^ String.concat "," s.preds)
        true
        (s.setup >= 0. && s.evaluate >= 0. && s.materialize >= 0.);
      Alcotest.(check bool)
        ("phases bounded by wall: " ^ String.concat "," s.preds)
        true
        (s.setup +. s.evaluate +. s.materialize <= s.wall +. 1e-3))
    r.stats.strata

let test_program_file_matches () =
  (* keep programs/reachstats.dl in sync with the inlined source *)
  let path =
    (* cwd is _build/default/test under [dune runtest], the repo root
       under [dune exec] *)
    List.find Sys.file_exists [ "../programs/reachstats.dl"; "programs/reachstats.dl" ]
  in
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  let stripped =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.length l > 0 && l.[0] <> '%')
    |> String.concat "\n"
  in
  Alcotest.(check string) "program file in sync" src stripped

(* --- a sharded lower-stratum relation, read every way a stratum can ---

   Stratum 0 derives the symmetric [e] from [arc]; at [workers > 1] the
   engine adopts each worker's partition of [e] as one shard, placed on
   its route column 0.  The later strata read it by scan ([s], init
   morsels over each shard), by a keyed join whose key holds the shard
   column ([two], key [0]; [reach], a recursive stratum), by keyed joins
   whose key lacks it ([back] and [left], key [1]), by a negation
   ([far], key [0,1]) and, last, by a generic join ([tri], which merges
   the shards for its sorted index). *)

let sharded_src =
  "e(X, Y) <- arc(X, Y).\n\
   e(Y, X) <- arc(X, Y).\n\
   s(X, Y) <- e(X, Y), X < Y.\n\
   two(X, Z) <- s(X, Y), e(Y, Z), X != Z.\n\
   back(X, Z) <- two(Z, Y), e(X, Y).\n\
   far(X, Z) <- back(X, Z), !e(X, Z).\n\
   reach(X, Y) <- s(X, Y).\n\
   reach(X, Z) <- reach(X, Y), e(Y, Z).\n\
   left(X, Y) <- s(X, Y), X < 4.\n\
   left(X, Z) <- left(Y, Z), e(X, Y).\n\
   tri(X, Y, Z) <- e(X, Y), e(Y, Z), e(X, Z), X < Y, Y < Z."

let sharded_outputs = [ "e"; "s"; "two"; "back"; "far"; "reach"; "left"; "tri" ]

(* two components, so [reach] is not everything, with triangles *)
let sharded_arcs =
  let rng = Dcd_util.Rng.create 29 in
  let arcs = ref [] in
  for _ = 1 to 70 do
    let a = Dcd_util.Rng.int rng 24 and b = Dcd_util.Rng.int rng 24 in
    if a <> b then arcs := [ a; b ] :: !arcs;
    let c = 30 + Dcd_util.Rng.int rng 10 and d = 30 + Dcd_util.Rng.int rng 10 in
    if c <> d then arcs := [ c; d ] :: !arcs
  done;
  List.sort_uniq compare !arcs

let test_sharded_reads () =
  let prepared = Result.get_ok (D.prepare sharded_src) in
  (* the strata that read [e] sharded run before the one that merges it *)
  let stratum_of pred =
    let rec find i = function
      | [] -> Alcotest.failf "no stratum for %s" pred
      | (sp : D.Physical.stratum_plan) :: rest ->
        if List.mem pred sp.stratum.preds then i else find (i + 1) rest
    in
    find 0 prepared.D.plan.D.Physical.strata
  in
  List.iter
    (fun p ->
      if stratum_of p >= stratum_of "tri" then
        Alcotest.failf "%s is evaluated after the generic join merges e" p)
    [ "s"; "two"; "back"; "far"; "reach"; "left" ];
  let oracle =
    D.Naive.run (D.Parser.parse_program sharded_src)
      ~edb:[ ("arc", List.map Array.of_list sharded_arcs) ]
  in
  let want out =
    match List.assoc_opt out oracle with
    | Some rows -> List.sort compare (List.map Array.to_list rows)
    | None -> []
  in
  List.iter
    (fun out -> if want out = [] then Alcotest.failf "oracle %s is empty" out)
    sharded_outputs;
  let edb = [ ("arc", D.tuples sharded_arcs) ] in
  List.iter
    (fun (sname, strategy) ->
      List.iter
        (fun workers ->
          List.iter
            (fun steal ->
              let label = Printf.sprintf "%s/w%d/steal=%b" sname workers steal in
              let r = D.run prepared ~edb ~config:{ D.default_config with strategy; workers; steal } () in
              List.iter
                (fun out -> Alcotest.check rows (out ^ " " ^ label) (want out) (D.relation r out))
                sharded_outputs;
              Alcotest.(check int)
                ("s is adopted as one shard per worker " ^ label)
                workers
                (D.Relation.shards (D.Catalog.get r.D.Parallel.catalog "s")))
            [ true; false ])
        [ 1; 2; 4 ])
    strategies

let () =
  Alcotest.run "multi_stratum"
    [
      ( "reachstats",
        [
          Alcotest.test_case "pinned fixpoints, all strategies" `Quick
            test_pinned_fixpoints_everywhere;
          Alcotest.test_case "naive oracle agreement" `Quick test_agrees_with_naive_oracle;
          Alcotest.test_case "stratum time breakdown" `Quick
            test_stratum_time_breakdown_populated;
          Alcotest.test_case "program file in sync" `Quick test_program_file_matches;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "later strata read a sharded relation every way, vs naive" `Quick
            test_sharded_reads;
        ] );
    ]
