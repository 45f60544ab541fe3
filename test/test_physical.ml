open Dcd_datalog
module Ph = Dcd_planner.Physical

let compile ?(params = []) src =
  match Analysis.analyze (Parser.parse_program src) with
  | Error e -> Error e
  | Ok info -> Ph.compile ~params info

let compile_ok ?params src =
  match compile ?params src with
  | Ok plan -> plan
  | Error e -> Alcotest.fail e

let apsp_src =
  "path(A, B, min<D>) <- warc(A, B, D).\n\
   path(A, B, min<D>) <- path(A, C, D1), path(C, B, D2), D = D1 + D2.\n\
   apsp(A, B, min<D>) <- path(A, B, D)."

let test_apsp_routes () =
  (* the paper's SS4.3 replication: path is partitioned by column 0 AND
     column 1, each delta variant scans the copy colocated with its
     recursive lookup *)
  let plan = compile_ok apsp_src in
  let sp = List.hd plan.strata in
  let pp = List.find (fun (p : Ph.pred_plan) -> p.pred = "path") sp.pred_plans in
  Alcotest.(check (list (list int))) "two routes"
    [ [ 0 ]; [ 1 ] ]
    (List.map Array.to_list pp.routes);
  Alcotest.(check int) "two delta variants" 2 (List.length sp.delta_rules);
  List.iter
    (fun (cr : Ph.compiled_rule) ->
      match cr.scan with
      | Ph.S_delta { route = scan_route; _ } ->
        let lookup_route =
          Array.to_list cr.steps
          |> List.find_map (function
               | Ph.Lookup { rel = Ph.R_rec { route; _ }; _ } -> Some route
               | _ -> None)
        in
        (match (Array.to_list scan_route, Option.map Array.to_list lookup_route) with
        | [ 1 ], Some [ 0 ] | [ 0 ], Some [ 1 ] -> ()
        | _ -> Alcotest.fail "scan/lookup routes must be colocated complements")
      | _ -> Alcotest.fail "delta rule must scan a delta")
    sp.delta_rules

let test_join_method_selection () =
  let plan =
    compile_ok "p(X, Y) <- a(X, Z), b(Z, Y).\nq(X) <- a(X, Z), c(Z), d(Z)."
  in
  let methods cr =
    Array.to_list cr.Ph.steps
    |> List.filter_map (function Ph.Lookup { method_; _ } -> Some method_ | _ -> None)
  in
  let all = List.concat_map (fun sp -> sp.Ph.init_rules) plan.strata in
  let m = List.concat_map methods all in
  Alcotest.(check bool) "index joins used" true (List.mem Ph.Index m);
  (* c and d share the same key source Z -> the paper's hash-join case *)
  Alcotest.(check bool) "hash join detected" true (List.mem Ph.Hash m);
  (* the base lookups a plan's rules make are the slot indexes the
     engine builds before a stratum runs: TC probes arc on column 0 *)
  let tc = compile_ok "tc(X, Y) <- arc(X, Y).\ntc(X, Y) <- tc(X, Z), arc(Z, Y)." in
  let base = ref [] in
  List.iter
    (fun sp ->
      List.iter
        (fun cr ->
          Ph.iter_lookups cr (function
            | { rel = Ph.R_base pred; key_cols; _ } -> base := (pred, key_cols) :: !base
            | { rel = Ph.R_rec _; _ } -> ()))
        (sp.Ph.init_rules @ sp.Ph.delta_rules))
    tc.strata;
  Alcotest.(check bool) "tc looks up arc on column 0" true (List.mem ("arc", [| 0 |]) !base)

let test_nested_loop_fallback () =
  let plan = compile_ok "p(X, Y) <- a(X), b(Y)." in
  let sp = List.hd plan.strata in
  let methods =
    List.concat_map
      (fun (cr : Ph.compiled_rule) ->
        Array.to_list cr.steps
        |> List.filter_map (function Ph.Lookup { method_; _ } -> Some method_ | _ -> None))
      sp.init_rules
  in
  Alcotest.(check bool) "cartesian falls back to nested loop" true
    (List.mem Ph.Nested_loop methods)

let test_params_resolved () =
  let plan =
    compile_ok ~params:[ ("start", 42) ]
      "sp(To, min<C>) <- To = start, C = 0.\nsp(T2, min<C>) <- sp(T1, C1), warc(T1, T2, C2), C = C1 + C2."
  in
  let sp = List.hd plan.strata in
  let init = List.hd sp.init_rules in
  let has_42 =
    Array.exists
      (function Ph.Compute { code = Ph.C_const 42; _ } -> true | _ -> false)
      init.steps
  in
  Alcotest.(check bool) "start resolved to 42" true has_42

let test_symbols_interned () =
  let plan = compile_ok "p(X) <- q(X, foo).\nr(X) <- q(X, bar)." in
  Alcotest.(check int) "two symbols interned" 2 (Dcd_util.Symbol.count plan.symbols)

let test_colocation_error () =
  (* the recursive lookup keys on a value produced by a base lookup, not
     the scanned delta: the engine cannot colocate this *)
  let src = "p(X, Y) <- e(X, Y).\np(X, Y) <- p(X, Z), f(Z, W), p(W, Y)." in
  match compile src with
  | Error msg ->
    Alcotest.(check bool) "mentions colocation" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected a colocation planning error"

let test_eval_code () =
  let regs = [| 10; 3 |] in
  let code = Ph.C_bin (Ast.Add, Ph.C_reg 0, Ph.C_bin (Ast.Mul, Ph.C_reg 1, Ph.C_const 2)) in
  Alcotest.(check int) "10 + 3*2" 16 (Ph.eval_code code regs);
  Alcotest.(check int) "neg" (-10) (Ph.eval_code (Ph.C_neg (Ph.C_reg 0)) regs);
  Alcotest.(check int) "div" 3 (Ph.eval_code (Ph.C_bin (Ast.Div, Ph.C_reg 0, Ph.C_reg 1)) regs);
  Alcotest.(check int) "mod" 1 (Ph.eval_code (Ph.C_bin (Ast.Mod, Ph.C_reg 0, Ph.C_reg 1)) regs);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Ph.eval_code (Ph.C_bin (Ast.Div, Ph.C_const 1, Ph.C_const 0)) regs))

let test_eval_cmp () =
  Alcotest.(check bool) "eq" true (Ph.eval_cmp Ast.Eq 3 3);
  Alcotest.(check bool) "ne" true (Ph.eval_cmp Ast.Ne 3 4);
  Alcotest.(check bool) "lt" false (Ph.eval_cmp Ast.Lt 4 3);
  Alcotest.(check bool) "le" true (Ph.eval_cmp Ast.Le 3 3);
  Alcotest.(check bool) "gt" true (Ph.eval_cmp Ast.Gt 4 3);
  Alcotest.(check bool) "ge" false (Ph.eval_cmp Ast.Ge 2 3)

let test_explain_runs () =
  let plan = compile_ok apsp_src in
  let text = Ph.explain plan in
  Alcotest.(check bool) "explain non-empty" true (String.length text > 100)

let contains s sub =
  let n = String.length sub in
  let rec loop i = i + n <= String.length s && (String.sub s i n = sub || loop (i + 1)) in
  loop 0

let test_to_dot () =
  let plan = compile_ok apsp_src in
  let dot = Ph.to_dot plan in
  Alcotest.(check bool) "digraph" true (contains dot "digraph physical_plan");
  Alcotest.(check bool) "stratum clusters" true (contains dot "subgraph cluster_1");
  Alcotest.(check bool) "gather node with routes" true (contains dot "routes [0] [1]");
  Alcotest.(check bool) "dashed coordination edges" true (contains dot "style=dashed");
  Alcotest.(check bool) "recursive join labelled" true (contains dot "Join rec:path")

let test_count_head_const_zero () =
  let plan =
    compile_ok "cnt(Y, count<X>) <- attend(X), friend(Y, X).\nattend(1)."
  in
  let sp =
    List.find
      (fun (s : Ph.stratum_plan) -> List.mem "cnt" s.stratum.preds)
      plan.strata
  in
  let cr =
    List.find (fun (c : Ph.compiled_rule) -> c.head.hpred = "cnt") (sp.init_rules @ sp.delta_rules)
  in
  (match cr.head.agg with
  | Some (1, Ast.Count, contribs) ->
    Alcotest.(check int) "one contributor source" 1 (Array.length contribs)
  | _ -> Alcotest.fail "count head mis-compiled");
  Alcotest.(check bool) "count value placeholder" true (cr.head.args.(1) = Ph.Const 0)

let () =
  Alcotest.run "physical"
    [
      ( "unit",
        [
          Alcotest.test_case "apsp routes" `Quick test_apsp_routes;
          Alcotest.test_case "join method selection" `Quick test_join_method_selection;
          Alcotest.test_case "nested loop fallback" `Quick test_nested_loop_fallback;
          Alcotest.test_case "params resolved" `Quick test_params_resolved;
          Alcotest.test_case "symbols interned" `Quick test_symbols_interned;
          Alcotest.test_case "colocation error" `Quick test_colocation_error;
          Alcotest.test_case "eval_code" `Quick test_eval_code;
          Alcotest.test_case "eval_cmp" `Quick test_eval_cmp;
          Alcotest.test_case "explain" `Quick test_explain_runs;
          Alcotest.test_case "to_dot" `Quick test_to_dot;
          Alcotest.test_case "count head" `Quick test_count_head_const_zero;
        ] );
    ]
