open Dcd_datalog
module Logical = Dcd_planner.Logical
module Physical = Dcd_planner.Physical

let stratum_of src pred =
  let info = Result.get_ok (Analysis.analyze (Parser.parse_program src)) in
  Option.get (Analysis.stratum_of_pred info pred)

let rule_of src n =
  let p = Parser.parse_program src in
  List.nth p.rules n

let sg_src =
  "sg(X, Y) <- arc(P, X), arc(P, Y), X != Y.\nsg(X, Y) <- arc(A, X), sg(A, B), arc(B, Y)."

let test_delta_scan_is_leftmost () =
  (* the paper's SS5.1 reorder: recursive table becomes the outer scan even
     though it is written in the middle of the body *)
  let stratum = stratum_of sg_src "sg" in
  let rule = rule_of sg_src 1 in
  match Logical.order stratum rule ~delta_occurrence:(Some 0) with
  | Error e -> Alcotest.fail e
  | Ok pl -> (
    match pl.scan with
    | Logical.Scan_delta { atom; occurrence = 0 } ->
      Alcotest.(check string) "scan is the recursive atom" "sg" atom.pred;
      Alcotest.(check int) "both arcs remain joins" 2
        (List.length
           (List.filter (function Logical.L_join _ -> true | _ -> false) pl.pipeline))
    | _ -> Alcotest.fail "expected delta scan")

let test_filter_pushdown () =
  (* X != Y placed immediately after both X and Y are bound *)
  let stratum = stratum_of sg_src "sg" in
  let rule = rule_of sg_src 0 in
  match Logical.order stratum rule ~delta_occurrence:None with
  | Error e -> Alcotest.fail e
  | Ok pl -> (
    match pl.pipeline with
    | [ Logical.L_join _; Logical.L_filter _ ] -> ()
    | _ -> Alcotest.fail ("unexpected pipeline: " ^ Logical.to_string pl))

let test_assignment_vs_filter () =
  let src = "p(X, C) <- q(X, A), C = A + 1, A > 2." in
  let stratum = stratum_of src "p" in
  let rule = rule_of src 0 in
  match Logical.order stratum rule ~delta_occurrence:None with
  | Error e -> Alcotest.fail e
  | Ok pl ->
    let kinds =
      List.map
        (function
          | Logical.L_assign _ -> "assign"
          | Logical.L_filter _ -> "filter"
          | Logical.L_join _ -> "join"
          | Logical.L_neg _ -> "neg")
        pl.pipeline
    in
    Alcotest.(check (list string)) "assign before filter" [ "assign"; "filter" ] kinds

let test_eq_as_filter_when_bound () =
  (* both sides bound by the scan: Eq must stay a filter *)
  let src = "p(X) <- q(X, A, B), A = B." in
  let stratum = stratum_of src "p" in
  (match Logical.order stratum (rule_of src 0) ~delta_occurrence:None with
  | Error e -> Alcotest.fail e
  | Ok pl ->
    let filters =
      List.filter (function Logical.L_filter (Ast.Eq, _, _) -> true | _ -> false) pl.pipeline
    in
    Alcotest.(check int) "bound Eq stays a filter" 1 (List.length filters));
  (* one side unbound: Eq is promoted to an assignment feeding the next join *)
  let src = "p(X) <- q(X, A), r(X, B), A = B." in
  let stratum = stratum_of src "p" in
  match Logical.order stratum (rule_of src 0) ~delta_occurrence:None with
  | Error e -> Alcotest.fail e
  | Ok pl ->
    let assigns =
      List.filter (function Logical.L_assign _ -> true | _ -> false) pl.pipeline
    in
    Alcotest.(check int) "half-bound Eq becomes assignment" 1 (List.length assigns)

let test_unit_scan () =
  let src = "sp(To, min<C>) <- To = start, C = 0." in
  let stratum = stratum_of src "sp" in
  match Logical.order stratum (rule_of src 0) ~delta_occurrence:None with
  | Error e -> Alcotest.fail e
  | Ok pl ->
    Alcotest.(check bool) "unit scan" true (pl.scan = Logical.Scan_unit);
    Alcotest.(check int) "two assignments" 2
      (List.length (List.filter (function Logical.L_assign _ -> true | _ -> false) pl.pipeline))

let test_occurrence_selection () =
  let src =
    "path(A, B, min<D>) <- warc(A, B, D).\n\
     path(A, B, min<D>) <- path(A, C, D1), path(C, B, D2), D = D1 + D2."
  in
  let stratum = stratum_of src "path" in
  let rule = rule_of src 1 in
  Alcotest.(check int) "two occurrences" 2 (Logical.recursive_occurrences stratum rule);
  let occ k =
    match Logical.order stratum rule ~delta_occurrence:(Some k) with
    | Ok { scan = Logical.Scan_delta { occurrence; _ }; _ } -> occurrence
    | _ -> -1
  in
  Alcotest.(check int) "occurrence 0" 0 (occ 0);
  Alcotest.(check int) "occurrence 1" 1 (occ 1)

let test_greedy_prefers_bound_atoms () =
  (* after scanning q, r(X, W) has a bound column while s(U, V) has none:
     r must be joined first *)
  let src = "p(X) <- q(X), s(U, V), r(X, W), W = U." in
  let stratum = stratum_of src "p" in
  match Logical.order stratum (rule_of src 0) ~delta_occurrence:None with
  | Error e -> Alcotest.fail e
  | Ok pl -> (
    match pl.pipeline with
    | Logical.L_join { atom; _ } :: _ ->
      Alcotest.(check string) "most-bound atom first" "r" atom.pred
    | _ -> Alcotest.fail "expected a join first")

let test_to_string_mentions_scan () =
  let stratum = stratum_of sg_src "sg" in
  match Logical.order stratum (rule_of sg_src 1) ~delta_occurrence:(Some 0) with
  | Error e -> Alcotest.fail e
  | Ok pl ->
    let s = Logical.to_string pl in
    Alcotest.(check bool) "mentions delta scan" true
      (String.length s >= 9 && String.sub s 0 9 = "SCAN d.sg")

(* --- maintenance scans: any body atom, the head, or nothing --- *)

let tc_src = "tc(X, Y) <- arc(X, Y).\ntc(X, Y) <- tc(X, Z), arc(Z, Y)."

(* arc is the smaller relation, as in a transitive-closure session *)
let arc_smaller p = if p = "arc" then 10 else 100

let joins (pl : Logical.rule_pipeline) =
  List.filter_map
    (function
      | Logical.L_join { atom; _ } -> Some (Format.asprintf "%a" Ast.pp_literal (Ast.Pos atom))
      | _ -> None)
    pl.pipeline

let order_at ?sizes src pred n at =
  match Logical.order_at ?sizes (stratum_of src pred) (rule_of src n) at with
  | Ok pl -> pl
  | Error e -> Alcotest.fail e

let test_head_bound_tie_break () =
  (* the head binds X and Y: tc(X, Z) and arc(Z, Y) both score one bound
     column, so only the sizes can split them *)
  let with_sizes = order_at ~sizes:arc_smaller tc_src "tc" 1 Logical.At_head in
  Alcotest.(check bool) "scans the head" true (with_sizes.scan = Logical.Scan_head);
  Alcotest.(check (list string))
    "smaller arc first" [ "arc(Z, Y)"; "tc(X, Z)" ] (joins with_sizes);
  Alcotest.(check (list string))
    "first written without sizes" [ "tc(X, Z)"; "arc(Z, Y)" ]
    (joins (order_at tc_src "tc" 1 Logical.At_head))

let test_sg_head_bound_tie_break () =
  (* after arc(A, X), sg(A, B) and arc(B, Y) each have one bound column *)
  Alcotest.(check (list string))
    "smaller arc before sg"
    [ "arc(A, X)"; "arc(B, Y)"; "sg(A, B)" ]
    (joins (order_at ~sizes:arc_smaller sg_src "sg" 1 Logical.At_head));
  Alcotest.(check (list string))
    "first written without sizes"
    [ "arc(A, X)"; "sg(A, B)"; "arc(B, Y)" ]
    (joins (order_at sg_src "sg" 1 Logical.At_head))

let test_lower_atom_scan () =
  (* a DRed seed scans the lower-stratum arc(Z, Y) of tc's recursive
     rule: tc is then joined on Z, its second column *)
  let pl = order_at ~sizes:arc_smaller tc_src "tc" 1 (Logical.At_atom 1) in
  (match pl.scan with
  | Logical.Scan_base a -> Alcotest.(check string) "scans arc" "arc" a.pred
  | _ -> Alcotest.fail "expected a base scan");
  (match pl.pipeline with
  | [ Logical.L_join { atom; recursive = true; pos = 0 } ] ->
    Alcotest.(check string) "joins tc" "tc" atom.pred
  | _ -> Alcotest.fail ("unexpected pipeline: " ^ Logical.to_string pl));
  let info = Result.get_ok (Analysis.analyze (Parser.parse_program tc_src)) in
  let plan = Result.get_ok (Physical.compile info) in
  match
    Physical.compile_scan plan (stratum_of tc_src "tc") (rule_of tc_src 1) (Logical.At_atom 1)
      ~sizes:arc_smaller
  with
  | Error e -> Alcotest.fail e
  | Ok cr -> (
    match cr.steps with
    | [| Physical.Lookup { rel = Physical.R_base "tc"; key_cols = [| 1 |]; pos = 0; _ } |] -> ()
    | _ -> Alcotest.fail "expected one lookup of tc keyed on column 1")

let test_full_evaluation () =
  let pl = order_at ~sizes:arc_smaller sg_src "sg" 1 Logical.At_nothing in
  Alcotest.(check bool) "scans nothing" true (pl.scan = Logical.Scan_unit);
  Alcotest.(check int) "joins every atom" 3 (List.length (joins pl))

let () =
  Alcotest.run "logical"
    [
      ( "unit",
        [
          Alcotest.test_case "delta scan leftmost" `Quick test_delta_scan_is_leftmost;
          Alcotest.test_case "filter pushdown" `Quick test_filter_pushdown;
          Alcotest.test_case "assignment vs filter" `Quick test_assignment_vs_filter;
          Alcotest.test_case "bound Eq is filter" `Quick test_eq_as_filter_when_bound;
          Alcotest.test_case "unit scan" `Quick test_unit_scan;
          Alcotest.test_case "occurrence selection" `Quick test_occurrence_selection;
          Alcotest.test_case "greedy bound-first" `Quick test_greedy_prefers_bound_atoms;
          Alcotest.test_case "to_string" `Quick test_to_string_mentions_scan;
        ] );
      ( "maintenance scans",
        [
          Alcotest.test_case "head-bound tc: size tie-break" `Quick test_head_bound_tie_break;
          Alcotest.test_case "head-bound sg: size tie-break" `Quick test_sg_head_bound_tie_break;
          Alcotest.test_case "lower-atom scan joins tc on Z" `Quick test_lower_atom_scan;
          Alcotest.test_case "full evaluation joins every atom" `Quick test_full_evaluation;
        ] );
    ]
