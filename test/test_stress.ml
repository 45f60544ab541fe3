(* Stress and robustness tests: deep recursion, many strata, wide
   fan-out, and parser fuzzing. *)

module D = Dcdatalog

let run ?(config = { D.default_config with workers = 2 }) ?params src edb =
  match D.query ?params ~config src ~edb:(List.map (fun (n, r) -> (n, D.tuples r)) edb) with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_deep_chain_tc () =
  (* a 2000-vertex chain: 2000 iterations of the fixpoint, large closure *)
  let n = 2000 in
  let arc = List.init (n - 1) (fun i -> [ i; i + 1 ]) in
  (* tc would be n^2/2 = 2M tuples; reachability from vertex 0 keeps it linear *)
  let src = "reach(Y) <- arc(0, Y).\nreach(Y) <- reach(X), arc(X, Y)." in
  let r = run src [ ("arc", arc) ] in
  Alcotest.(check int) "every vertex reached" (n - 1) (D.relation_count r "reach");
  Alcotest.(check bool) "iterations ~ chain depth" true
    (D.Run_stats.total_iterations r.stats >= (n - 1) / 2)

let test_deep_chain_sssp_weighted () =
  let n = 1500 in
  let warc = List.init (n - 1) (fun i -> [ i; i + 1; 2 ]) in
  let r = run ~params:[ ("start", 0) ] D.Queries.sssp.source [ ("warc", warc) ] in
  let dist = D.relation r "results" in
  Alcotest.(check int) "all distances" n (List.length dist);
  Alcotest.(check (option (list int))) "farthest distance exact"
    (Some [ n - 1; 2 * (n - 1) ])
    (List.find_opt (fun row -> List.hd row = n - 1) dist)

let test_many_strata () =
  (* 30 chained strata: p0 -> p1 -> ... -> p29, alternating recursion *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "p0(X) <- base(X).\n";
  for i = 1 to 29 do
    Buffer.add_string buf (Printf.sprintf "p%d(X) <- p%d(X).\n" i (i - 1));
    if i mod 3 = 0 then
      Buffer.add_string buf (Printf.sprintf "p%d(Y) <- p%d(X), e(X, Y).\n" i i)
  done;
  let src = Buffer.contents buf in
  let r = run src [ ("base", [ [ 0 ] ]); ("e", [ [ 0; 1 ]; [ 1; 2 ] ]) ] in
  Alcotest.(check int) "30 strata evaluated" 30 (List.length r.stats.strata);
  Alcotest.(check int) "closure propagated through all strata" 3 (D.relation_count r "p29")

let test_wide_star_aggregate () =
  (* one hub with 20k spokes: a single gather merges 20k candidates *)
  let spokes = 20_000 in
  let warc = List.init spokes (fun i -> [ 0; i + 1; 1 + (i mod 7) ]) in
  let r = run ~params:[ ("start", 0) ] D.Queries.sssp.source [ ("warc", warc) ] in
  Alcotest.(check int) "all spokes reached" (spokes + 1) (D.relation_count r "results")

let test_duplicate_heavy_edb () =
  (* the same fact many times must behave as once *)
  let arc = List.concat (List.init 500 (fun _ -> [ [ 1; 2 ]; [ 2; 3 ] ])) in
  let r = run D.Queries.tc.source [ ("arc", arc) ] in
  Alcotest.(check int) "set semantics" 3 (D.relation_count r "tc")

let test_rule_explosion_bounded_by_dedup () =
  (* diamond chains double path counts exponentially; dedup keeps tuples linear *)
  let k = 18 in
  let arc =
    List.concat
      (List.init k (fun i ->
           let a = 3 * i and b1 = (3 * i) + 1 and b2 = (3 * i) + 2 and c = 3 * (i + 1) in
           [ [ a; b1 ]; [ a; b2 ]; [ b1; c ]; [ b2; c ] ]))
  in
  let src = "reach(Y) <- arc(0, Y).\nreach(Y) <- reach(X), arc(X, Y)." in
  let r = run src [ ("arc", arc) ] in
  (* 2^18 paths but only 3k+... distinct vertices *)
  Alcotest.(check int) "linear output despite exponential paths" (3 * k) (D.relation_count r "reach")

(* --- batched exchange: framing must never change the fixpoint --- *)

(* A graph rich enough that every worker produces multi-tuple flushes:
   a 3-regular-ish random digraph with weights. *)
let exchange_arc =
  let m = 900 and vertices = 300 in
  let st = ref 123456789 in
  let rand k =
    (* deterministic LCG so the test is reproducible *)
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    !st mod k
  in
  List.init m (fun _ ->
      let a = rand vertices and b = rand vertices in
      [ a; b; 1 + rand 9 ])

let fingerprint r name = D.relation r name

let run_exchange ~exchange ~workers ?params src edb =
  let config = { D.default_config with workers; exchange; strategy = D.Coord.Dws } in
  run ~config ?params src edb

(* Byte-identical fixpoints across exchange fabric x worker count: the
   batch framing (one packed frame per (copy, destination) flush) is an
   encoding of the tuple stream, not a semantic change. *)
let test_batch_framing_invariance () =
  let arc2 = List.map (fun row -> [ List.nth row 0; List.nth row 1 ]) exchange_arc in
  let tc_expect =
    fingerprint
      (run_exchange ~exchange:D.Parallel.Spsc_exchange ~workers:1 D.Queries.tc.source
         [ ("arc", arc2) ])
      "tc"
  in
  let sssp_expect =
    fingerprint
      (run_exchange ~exchange:D.Parallel.Spsc_exchange ~workers:1 ~params:[ ("start", 0) ]
         D.Queries.sssp.source [ ("warc", exchange_arc) ])
      "results"
  in
  Alcotest.(check bool) "closure nonempty" true (List.length tc_expect > 1000);
  List.iter
    (fun exchange ->
      List.iter
        (fun workers ->
          let label =
            Printf.sprintf "%s workers=%d"
              (match exchange with
              | D.Parallel.Spsc_exchange -> "spsc"
              | D.Parallel.Locked_exchange -> "locked")
              workers
          in
          let tc =
            fingerprint
              (run_exchange ~exchange ~workers D.Queries.tc.source [ ("arc", arc2) ])
              "tc"
          in
          Alcotest.(check bool) ("tc fixpoint identical: " ^ label) true (tc = tc_expect);
          let sssp =
            fingerprint
              (run_exchange ~exchange ~workers ~params:[ ("start", 0) ] D.Queries.sssp.source
                 [ ("warc", exchange_arc) ])
              "results"
          in
          Alcotest.(check bool) ("sssp fixpoint identical: " ^ label) true (sssp = sssp_expect))
        [ 1; 4 ])
    [ D.Parallel.Spsc_exchange; D.Parallel.Locked_exchange ]

(* Counter assertion on the framing itself: batching must ship strictly
   fewer batch objects than tuples — i.e. at most one queue push /
   termination add per (copy, dest) flush actually carrying more than
   one tuple. *)
let test_batch_counters () =
  let arc2 = List.map (fun row -> [ List.nth row 0; List.nth row 1 ]) exchange_arc in
  let batched =
    run_exchange ~exchange:D.Parallel.Spsc_exchange ~workers:4 D.Queries.tc.source
      [ ("arc", arc2) ]
  in
  let sent = D.Run_stats.total_sent batched.stats in
  let batches = D.Run_stats.total_batches batched.stats in
  Alcotest.(check bool) "workload exchanges tuples" true (sent > 0);
  Alcotest.(check bool) "batching amortizes: far fewer batches than tuples" true
    (batches * 4 < sent);
  (* each batch still accounts for its tuples in the termination-relevant
     sent counter *)
  Alcotest.(check bool) "sent counter stays tuple-denominated" true (sent >= batches)

(* --- flat arena engine vs the boxed naive interpreter --- *)

(* The arena/frame storage layer must be an invisible representation
   change: on each tracked recursion class (set-semantics TC, min-CC,
   min-SSSP) the packed engine and the boxed AST interpreter agree
   tuple-for-tuple, across worker counts. *)
let test_arena_vs_boxed_oracle () =
  let vertices = 60 in
  let st = ref 987654321 in
  let rand k =
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    !st mod k
  in
  let arc = List.init 180 (fun _ -> (rand vertices, rand vertices)) in
  let arc2 = List.map (fun (a, b) -> [ a; b ]) arc in
  let sym = List.concat_map (fun (a, b) -> [ [ a; b ]; [ b; a ] ]) arc in
  let warc = List.map (fun (a, b) -> [ a; b; 1 + rand 9 ]) arc in
  let oracle ?params src edb out =
    let rows =
      D.Naive.run ?params (D.Parser.parse_program src)
        ~edb:(List.map (fun (n, r) -> (n, List.map Array.of_list r)) edb)
    in
    match List.assoc_opt out rows with
    | Some l -> List.sort compare (List.map Array.to_list l)
    | None -> []
  in
  let cases =
    [
      ("tc", D.Queries.tc.source, None, [ ("arc", arc2) ], "tc");
      ("cc", D.Queries.cc.source, None, [ ("arc", sym) ], "cc");
      ("sssp", D.Queries.sssp.source, Some [ ("start", 0) ], [ ("warc", warc) ], "results");
    ]
  in
  List.iter
    (fun (name, src, params, edb, out) ->
      let want = oracle ?params src edb out in
      Alcotest.(check bool) (name ^ ": oracle nonempty") true (want <> []);
      List.iter
        (fun workers ->
          let config = { D.default_config with workers; strategy = D.Coord.Dws } in
          let r = run ~config ?params src edb in
          Alcotest.(check bool)
            (Printf.sprintf "%s = oracle at workers=%d" name workers)
            true
            (D.relation r out = want))
        [ 1; 4 ])
    cases

(* the parser/analyzer must reject or accept random garbage without ever
   raising anything but its own error types *)
let prop_frontend_total =
  QCheck.Test.make ~name:"front end never crashes on garbage" ~count:500
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 80) QCheck.Gen.printable)
    (fun src ->
      match D.prepare src with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "unexpected exception %s" (Printexc.to_string e))

let prop_frontend_total_tokens =
  (* structured garbage: random sequences of plausible tokens *)
  QCheck.Test.make ~name:"front end never crashes on token soup" ~count:500
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 25)
           (oneofl
              [ "p"; "q"; "X"; "Y"; "("; ")"; ","; "."; "<-"; "min"; "<"; ">"; "="; "!"; "1"; "+" ])))
    (fun toks ->
      let src = String.concat " " toks in
      match D.prepare src with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "unexpected exception %s" (Printexc.to_string e))

let () =
  Alcotest.run "stress"
    [
      ( "engine",
        [
          Alcotest.test_case "deep chain tc" `Slow test_deep_chain_tc;
          Alcotest.test_case "deep chain sssp" `Slow test_deep_chain_sssp_weighted;
          Alcotest.test_case "many strata" `Quick test_many_strata;
          Alcotest.test_case "wide star aggregate" `Quick test_wide_star_aggregate;
          Alcotest.test_case "duplicate-heavy edb" `Quick test_duplicate_heavy_edb;
          Alcotest.test_case "exponential paths, linear dedup" `Quick
            test_rule_explosion_bounded_by_dedup;
        ] );
      ( "exchange",
        [
          Alcotest.test_case "batch framing invariance" `Slow test_batch_framing_invariance;
          Alcotest.test_case "batch counters" `Quick test_batch_counters;
          Alcotest.test_case "arena engine = boxed oracle" `Quick test_arena_vs_boxed_oracle;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_frontend_total;
          QCheck_alcotest.to_alcotest prop_frontend_total_tokens;
        ] );
    ]
