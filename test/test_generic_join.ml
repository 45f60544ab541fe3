(* The worst-case-optimal generic-join path: plan selection, exact
   results on known graphs, and differential testing against the naive
   AST interpreter across strategies, worker counts and stealing —
   mirroring the shape of test_differential/test_stress. *)

module D = Dcdatalog
module Ph = D.Physical

let compile ?generic_join src =
  let info = Result.get_ok (D.Analysis.analyze (D.Parser.parse_program src)) in
  Result.get_ok (Ph.compile ?generic_join ~params:[] info)

let all_rules (plan : Ph.t) =
  List.concat_map (fun sp -> sp.Ph.init_rules @ sp.Ph.delta_rules) plan.Ph.strata

let gj_rules plan = List.filter (fun (cr : Ph.compiled_rule) -> cr.Ph.gj <> None) (all_rules plan)

(* --- plan selection --- *)

let test_triangle_auto () =
  let plan = compile D.Queries.triangle.source in
  match gj_rules plan with
  | [ cr ] ->
    (* the first arc atom is the scan; the other two become tries
       intersected on the one unbound variable Z *)
    let g = Option.get cr.Ph.gj in
    Alcotest.(check int) "two trie atoms" 2 (Array.length g.Ph.gj_atoms);
    (* each trie atom is a sorted index the engine builds on arc *)
    Array.iter
      (fun (ga : Ph.gj_atom) -> Alcotest.(check string) "trie on arc" "arc" ga.Ph.ga_pred)
      g.Ph.gj_atoms;
    Alcotest.(check int) "one level (Z)" 1 (Array.length g.Ph.gj_levels);
    Alcotest.(check (array pass)) "binary steps emptied" [||] cr.Ph.steps;
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      "explain mentions generic join" true
      (contains (Ph.explain plan) "generic join")
  | l -> Alcotest.failf "expected exactly one generic-join rule, got %d" (List.length l)

let test_triangle_off () =
  let plan = compile ~generic_join:`Off D.Queries.triangle.source in
  Alcotest.(check int) "no gj rules under `Off" 0 (List.length (gj_rules plan))

let test_sg_auto_binary () =
  (* SG's bodies are chains (alpha-acyclic): Auto keeps the binary path *)
  let plan = compile D.Queries.sg.source in
  Alcotest.(check int) "sg stays binary under `Auto" 0 (List.length (gj_rules plan))

let test_sg_forced () =
  let plan = compile ~generic_join:`Force D.Queries.sg.source in
  (* the init rule arc(P,X),arc(P,Y) and every delta rule whose non-scan
     atoms are all base qualify; at least one rule must flip *)
  Alcotest.(check bool) "forcing flips sg rules" true (List.length (gj_rules plan) > 0)

let test_tc_force_ineligible () =
  (* tc's delta rule has a single non-scan atom: generic join needs a
     multiway intersection, so even `Force leaves it binary *)
  let plan = compile ~generic_join:`Force D.Queries.tc.source in
  Alcotest.(check int) "tc unaffected by `Force" 0 (List.length (gj_rules plan))

(* --- exact results on known graphs --- *)

let sym edges = List.concat_map (fun (a, b) -> [ [ a; b ]; [ b; a ] ]) edges

let run_query ?generic_join ?(config = D.default_config) src edb out =
  let edb = List.map (fun (n, rows) -> (n, D.tuples rows)) edb in
  match D.query ?generic_join ~config src ~edb with
  | Ok r -> D.relation r out
  | Error e -> Alcotest.fail e

let test_triangle_k4 () =
  (* K4 has exactly 4 triangles *)
  let k4 = sym [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] in
  let got = run_query D.Queries.triangle.source [ ("arc", k4) ] "tri" in
  Alcotest.(check (list (list int)))
    "K4 triangles"
    [ [ 0; 1; 2 ]; [ 0; 1; 3 ]; [ 0; 2; 3 ]; [ 1; 2; 3 ] ]
    got

let test_triangle_no_triangle () =
  let square = sym [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let got = run_query D.Queries.triangle.source [ ("arc", square) ] "tri" in
  Alcotest.(check (list (list int))) "C4 has no triangle" [] got

let test_sg_forced_matches_binary () =
  let edges = [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 3 ]; [ 2; 4 ]; [ 3; 5 ]; [ 4; 6 ] ] in
  let binary = run_query ~generic_join:`Off D.Queries.sg.source [ ("arc", edges) ] "sg" in
  let generic =
    run_query ~generic_join:`Force D.Queries.sg.source [ ("arc", edges) ] "sg"
  in
  Alcotest.(check (list (list int))) "forced generic = binary" binary generic;
  Alcotest.(check bool) "nonempty" true (binary <> [])

(* --- differential: engine vs naive oracle --- *)

let edges_gen =
  QCheck.Gen.(
    let* n = int_range 2 14 in
    let* m = int_range 0 40 in
    list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))))

(* steal on/off x {Global, Ssp 2, Dws} x workers {1, 4}, per the stress
   convention; small morsels so multi-worker runs actually steal *)
let config_gen =
  QCheck.Gen.(
    let* workers = oneofl [ 1; 4 ] in
    let* strat = int_range 0 2 in
    let strategy =
      match strat with 0 -> D.Coord.Global | 1 -> D.Coord.Ssp 2 | _ -> D.Coord.Dws
    in
    let* steal = bool in
    return { D.default_config with workers; strategy; steal; morsel_tuples = 8 })

let run_naive ?params src edb =
  D.Naive.run ?params (D.Parser.parse_program src)
    ~edb:(List.map (fun (n, rows) -> (n, List.map Array.of_list rows)) edb)

let agree ?generic_join ~output src edb config =
  let got =
    match
      D.query ?generic_join ~config src
        ~edb:(List.map (fun (n, rows) -> (n, D.tuples rows)) edb)
    with
    | Ok r -> D.relation r output
    | Error e -> Alcotest.fail e
  in
  let want =
    match List.assoc_opt output (run_naive src edb) with
    | Some rows -> List.sort compare (List.map Array.to_list rows)
    | None -> []
  in
  got = want

let make_prop name gen prop = QCheck.Test.make ~name ~count:60 (QCheck.make gen) prop

let prop_triangle =
  make_prop "triangle (auto generic join): engine = naive"
    QCheck.Gen.(pair edges_gen config_gen)
    (fun (edges, config) ->
      let edb = [ ("arc", sym edges) ] in
      agree ~output:"tri" D.Queries.triangle.source edb config)

let prop_sg_forced =
  make_prop "sg (forced generic join): engine = naive"
    QCheck.Gen.(pair edges_gen config_gen)
    (fun (edges, config) ->
      (* SG blows up on dense graphs; thin the input *)
      let edges = List.filteri (fun i _ -> i < 16) edges in
      let edb = [ ("arc", List.map (fun (a, b) -> [ a; b ]) edges) ] in
      agree ~generic_join:`Force ~output:"sg" D.Queries.sg.source edb config)

let prop_sg_forced_eq_binary =
  make_prop "sg: forced generic = binary plan"
    QCheck.Gen.(pair edges_gen config_gen)
    (fun (edges, config) ->
      let edges = List.filteri (fun i _ -> i < 16) edges in
      let edb = [ ("arc", List.map (fun (a, b) -> [ a; b ]) edges) ] in
      run_query ~generic_join:`Force ~config D.Queries.sg.source edb "sg"
      = run_query ~generic_join:`Off ~config D.Queries.sg.source edb "sg")

let () =
  Alcotest.run "generic_join"
    [
      ( "plan",
        [
          Alcotest.test_case "triangle auto-selects gj" `Quick test_triangle_auto;
          Alcotest.test_case "off disables gj" `Quick test_triangle_off;
          Alcotest.test_case "sg stays binary on auto" `Quick test_sg_auto_binary;
          Alcotest.test_case "force flips sg" `Quick test_sg_forced;
          Alcotest.test_case "tc ineligible under force" `Quick test_tc_force_ineligible;
        ] );
      ( "exact",
        [
          Alcotest.test_case "K4 triangles" `Quick test_triangle_k4;
          Alcotest.test_case "C4 no triangles" `Quick test_triangle_no_triangle;
          Alcotest.test_case "sg forced = binary" `Quick test_sg_forced_matches_binary;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_triangle; prop_sg_forced; prop_sg_forced_eq_binary ] );
    ]
