(* The public facade: prepare/run/query helpers and error reporting. *)

module D = Dcdatalog

let tc = "tc(X, Y) <- arc(X, Y).\ntc(X, Y) <- tc(X, Z), arc(Z, Y)."

let contains s sub =
  let n = String.length sub in
  let rec loop i = i + n <= String.length s && (String.sub s i n = sub || loop (i + 1)) in
  loop 0

let test_prepare_ok () =
  match D.prepare tc with
  | Ok p ->
    Alcotest.(check string) "source kept" tc p.source;
    Alcotest.(check (list string)) "idb" [ "tc" ] p.info.idb
  | Error e -> Alcotest.fail e

let test_prepare_errors_are_results () =
  let check_err src frag =
    match D.prepare src with
    | Ok _ -> Alcotest.fail ("expected error for " ^ src)
    | Error e -> Alcotest.(check bool) ("mentions " ^ frag) true (contains e frag)
  in
  check_err "p(X <- q(X)." "line";
  (* parse error *)
  check_err "p($)." "line";
  (* lex error *)
  check_err "p(X, Y) <- q(X)." "unsafe"

let test_query_one_shot () =
  let edb = [ ("arc", D.tuples [ [ 1; 2 ]; [ 2; 3 ] ]) ] in
  match D.query tc ~edb with
  | Ok result ->
    Alcotest.(check (list (list int))) "relation"
      [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]
      (D.relation result "tc");
    Alcotest.(check int) "count" 3 (D.relation_count result "tc");
    Alcotest.(check (list (list int))) "absent relation empty" [] (D.relation result "zzz")
  | Error e -> Alcotest.fail e

let test_params_flow_through () =
  let src = "out(X) <- X = base + 1." in
  match D.query ~params:[ ("base", 41) ] src ~edb:[] with
  | Ok result -> Alcotest.(check (list (list int))) "param applied" [ [ 42 ] ] (D.relation result "out")
  | Error e -> Alcotest.fail e

let test_explain_and_pcg () =
  let p = Result.get_ok (D.prepare tc) in
  Alcotest.(check bool) "explain mentions stratum" true (contains (D.explain p) "stratum");
  Alcotest.(check bool) "explain mentions join method" true (contains (D.explain p) "index");
  let pcg = D.pcg_string p ~root:"tc" in
  Alcotest.(check bool) "pcg mentions recursion" true (contains pcg "recursive")

let test_tuples_helper () =
  let v = D.tuples [ [ 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.(check int) "length" 2 (D.Vec.length v);
  Alcotest.(check (array int)) "contents" [| 3; 4 |] (D.Vec.get v 1)

let test_default_config_sane () =
  Alcotest.(check bool) "at least one worker" true (D.default_config.workers >= 1);
  Alcotest.(check bool) "dws by default" true
    (match D.default_config.strategy with D.Coord.Dws -> true | _ -> false);
  Alcotest.(check bool) "optimized stores by default" true D.default_config.optimized_stores;
  Alcotest.(check bool) "spsc by default" true
    (D.default_config.exchange = D.Parallel.Spsc_exchange)

let test_facts_in_program () =
  (* facts are rules with constant heads and empty bodies *)
  let src = "arc(1, 2).\narc(2, 3).\n" ^ tc in
  match D.query src ~edb:[] with
  | Ok result -> Alcotest.(check int) "facts feed recursion" 3 (D.relation_count result "tc")
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "dcdatalog"
    [
      ( "facade",
        [
          Alcotest.test_case "prepare ok" `Quick test_prepare_ok;
          Alcotest.test_case "prepare errors" `Quick test_prepare_errors_are_results;
          Alcotest.test_case "query one-shot" `Quick test_query_one_shot;
          Alcotest.test_case "params" `Quick test_params_flow_through;
          Alcotest.test_case "explain and pcg" `Quick test_explain_and_pcg;
          Alcotest.test_case "tuples helper" `Quick test_tuples_helper;
          Alcotest.test_case "default config" `Quick test_default_config_sane;
          Alcotest.test_case "facts in program" `Quick test_facts_in_program;
        ] );
    ]
