(* Differential stress for the morsel work-stealing layer.

   On skewed (zipf) inputs — the workload stealing exists for — the
   fixpoint must be tuple-for-tuple identical to the naive boxed-AST
   oracle with stealing {on, off} x {global, ssp:2, dws} x workers
   {1, 4}, with a tiny morsel size so scans really are split, published
   and stolen.  Every completed run must also balance its exchange
   books: total_sent = total_drained (exact termination counts stolen
   emissions like any others).

   A seeded fault round then crashes a thief at the [Steal] site —
   after the claim, before execution, the window that leaks a pending
   morsel — and requires either a correct fixpoint or a clean
   structured error: stealing must coexist with crash containment,
   never deadlock a victim's join. *)

module D = Dcdatalog
module Gen = Dcd_workload.Gen
module Graph = Dcd_workload.Graph
module Vec = Dcd_util.Vec

let oracle ?params src edb out =
  let rows =
    D.Naive.run ?params (D.Parser.parse_program src)
      ~edb:(List.map (fun (n, r) -> (n, List.map Array.of_list r)) edb)
  in
  match List.assoc_opt out rows with
  | Some l -> List.sort compare (List.map Array.to_list l)
  | None -> []

(* The naive oracle dominates this suite's time (the zipf TC closure
   takes seconds, the engine runs a fraction of that), so each case
   computes its expected fixpoint at most once, shared by the
   differential grid and the crash round. *)
let cases =
  lazy
    (let g = Gen.zipf ~seed:77 ~n:160 ~edges:1400 () in
     let arc2 = Vec.to_list (Vec.map (fun (u, v, _) -> [ u; v ]) (Graph.edges g)) in
     let warc = Vec.to_list (Vec.map (fun (u, v, w) -> [ u; v; w ]) (Graph.edges g)) in
     let case name src params edb out =
       (name, src, params, edb, out, lazy (oracle ?params src edb out))
     in
     [
       case "tc" D.Queries.tc.source None [ ("arc", arc2) ] "tc";
       case "sssp" D.Queries.sssp.source (Some [ ("start", 1) ]) [ ("warc", warc) ] "results";
     ])

let strategies = [ ("global", D.Coord.Global); ("ssp2", D.Coord.Ssp 2); ("dws", D.Coord.Dws) ]

let config ~steal ~workers ~strategy =
  {
    D.default_config with
    workers;
    strategy;
    steal;
    (* small morsels so the modest test deltas split into many *)
    morsel_tuples = 16;
    coord = { D.Coord.default_config with timeout = Some 60. };
  }

let test_differential () =
  List.iter
    (fun (qname, src, params, edb, out, expected) ->
      let expected = Lazy.force expected in
      Alcotest.(check bool) (qname ^ ": oracle nonempty") true (expected <> []);
      List.iter
        (fun steal ->
          List.iter
            (fun (sname, strategy) ->
              List.iter
                (fun workers ->
                  let label =
                    Printf.sprintf "%s steal=%b %s w=%d" qname steal sname workers
                  in
                  let config = config ~steal ~workers ~strategy in
                  match
                    D.query ?params ~config src
                      ~edb:(List.map (fun (n, r) -> (n, D.tuples r)) edb)
                  with
                  | Error e -> Alcotest.fail (label ^ ": " ^ e)
                  | Ok r ->
                    Alcotest.(check bool) (label ^ ": fixpoint = oracle") true
                      (D.relation r out = expected);
                    (* exact termination: nothing in flight at the end,
                       stolen emissions included *)
                    Alcotest.(check int)
                      (label ^ ": sent = drained")
                      (D.Run_stats.total_sent r.stats)
                      (D.Run_stats.total_drained r.stats))
                [ 1; 4 ])
            strategies)
        [ true; false ])
    (Lazy.force cases)

(* With one worker, or stealing disabled, no steal may ever happen; at
   4 workers with tiny morsels on the skewed graph, the board must see
   real traffic in at least one configuration (the counters are what the
   bench gate reads, so prove they move). *)
let test_counters () =
  let _, src, params, edb, _, _ = List.hd (Lazy.force cases) in
  let run ~steal ~workers =
    match
      D.query ?params ~config:(config ~steal ~workers ~strategy:D.Coord.Dws) src
        ~edb:(List.map (fun (n, r) -> (n, D.tuples r)) edb)
    with
    | Ok r -> r.stats
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "no steals with 1 worker" 0
    (D.Run_stats.total_steals (run ~steal:true ~workers:1));
  Alcotest.(check int) "no steals when disabled" 0
    (D.Run_stats.total_steals (run ~steal:false ~workers:4));
  let st = run ~steal:true ~workers:4 in
  Alcotest.(check bool) "morsels executed at 4 workers" true
    (D.Run_stats.sum_strata st (fun w -> w.D.Run_stats.morsels_executed) > 0)

(* Crash a thief mid-window: the victim's join must resolve through the
   failed-flag poll, never hang.  Legal outcomes per seed: a correct
   fixpoint (crash budget unspent or crash absorbed cleanly is
   impossible here — an injected crash always fails the run) or a clean
   Worker_crashed/Cancelled error. *)
let test_thief_crash_containment () =
  let _, src, params, edb, out, expected = List.hd (Lazy.force cases) in
  let expected = Lazy.force expected in
  let clean = ref 0 and ok = ref 0 in
  for seed = 1 to 12 do
    let config =
      {
        (config ~steal:true ~workers:4 ~strategy:D.Coord.Dws) with
        coord =
          { D.Coord.default_config with timeout = Some 60.; stall_window = Some 10. };
        fault =
          Some
            {
              D.Fault.off with
              seed;
              crash_prob = 0.25;
              crash_sites = [ D.Fault.Steal ];
              max_crashes = 1;
            };
      }
    in
    match
      D.query ?params ~config src ~edb:(List.map (fun (n, r) -> (n, D.tuples r)) edb)
    with
    | Ok r ->
      incr ok;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: untouched run matches oracle" seed)
        true
        (D.relation r out = expected)
    | Error msg -> Alcotest.fail ("front end: " ^ msg)
    | exception D.Engine_error.Error (D.Engine_error.Worker_crashed _) -> incr clean
    | exception D.Engine_error.Error (D.Engine_error.Cancelled _) ->
      Alcotest.fail
        (Printf.sprintf "seed %d: run timed out — a victim join hung on a dead thief" seed)
    | exception e ->
      Alcotest.fail (Printf.sprintf "seed %d: raw exception %s" seed (Printexc.to_string e))
  done;
  (* with many claims per run, some seed must actually fire the crash —
     otherwise the Steal site was never exercised.  Clean fixpoints are
     legal too (a seed may crash before any overlap) but not required:
     the differential suite already covers the uncrashed path. *)
  ignore !ok;
  Alcotest.(check bool) "some seeds crashed a thief" true (!clean > 0)

let () =
  Printexc.record_backtrace true;
  Alcotest.run "steal"
    [
      ( "differential",
        [
          Alcotest.test_case "fixpoint invariance + exact termination" `Slow test_differential;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ("faults", [ Alcotest.test_case "thief crash containment" `Slow test_thief_crash_containment ]);
    ]
