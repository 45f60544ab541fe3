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
    ]
