(* Randomized fault-schedule stress suite.

   Runs TC and CC under seeded fault injection (induced crashes and
   extra delays at random loop/flush/merge/quiescence points), across
   worker counts {2, 4} and all three coordination strategies, and
   asserts the only two legal outcomes:

   - a correct fixpoint, tuple-for-tuple equal to the naive boxed-AST
     oracle, or
   - a clean structured error (Worker_crashed / Cancelled / Stalled),

   never a hang and never a raw exception.  Every run is guarded by a
   config-level timeout and an armed watchdog, so a reintroduced
   quiescence livelock surfaces as a structured failure here instead of
   freezing the suite; CI additionally wraps the whole executable in a
   hard wall-clock limit.

   The base seed comes from FAULT_SEED (default 1), so the CI matrix can
   sweep schedules without touching the code. *)

module D = Dcdatalog
module Rng = Dcd_util.Rng

let base_seed =
  match Sys.getenv_opt "FAULT_SEED" with
  | Some s -> (try int_of_string s with _ -> 1)
  | None -> 1

let rand = Rng.create (0xFA51 + base_seed)

let random_graph ~vertices ~edges =
  List.init edges (fun _ -> (Rng.int rand vertices, Rng.int rand vertices))

let oracle ?params src edb out =
  let rows =
    D.Naive.run ?params (D.Parser.parse_program src)
      ~edb:(List.map (fun (n, r) -> (n, List.map Array.of_list r)) edb)
  in
  match List.assoc_opt out rows with
  | Some l -> List.sort compare (List.map Array.to_list l)
  | None -> []

type outcome =
  | Fixpoint_ok
  | Clean_error of string
  | Wrong_fixpoint
  | Raw_exception of string

let run_case ~seed ~workers ~strategy ~crash_prob ~delay_prob ?(steal = true)
    ?(checkpoint_every = 0) ?(max_recoveries = 0) ?params src edb out expected =
  let config =
    {
      D.default_config with
      workers;
      strategy;
      steal;
      checkpoint_every;
      max_recoveries;
      coord =
        {
          D.Coord.default_config with
          timeout = Some 60.;
          stall_window = Some 10.;
        };
      fault =
        Some
          {
            D.Fault.off with
            seed;
            crash_prob;
            delay_prob;
            delay_max = 0.0008;
            max_crashes = 2;
          };
    }
  in
  match D.query ?params ~config src ~edb:(List.map (fun (n, r) -> (n, D.tuples r)) edb) with
  | Ok r -> if D.relation r out = expected then Fixpoint_ok else Wrong_fixpoint
  | Error msg -> Raw_exception ("front end: " ^ msg)
  | exception D.Engine_error.Error e -> Clean_error (D.Engine_error.to_string e)
  | exception e -> Raw_exception (Printexc.to_string e)

let () =
  Printexc.record_backtrace true;
  let arc = random_graph ~vertices:80 ~edges:240 in
  let arc2 = List.map (fun (a, b) -> [ a; b ]) arc in
  let sym = List.concat_map (fun (a, b) -> [ [ a; b ]; [ b; a ] ]) arc in
  let cases =
    [
      ("tc", D.Queries.tc.source, None, [ ("arc", arc2) ], "tc");
      ("cc", D.Queries.cc.source, None, [ ("arc", sym) ], "cc");
    ]
  in
  let strategies = [ ("global", D.Coord.Global); ("ssp2", D.Coord.Ssp 2); ("dws", D.Coord.Dws) ]
  in
  let total = ref 0
  and ok = ref 0
  and clean = ref 0
  and failed = ref [] in
  List.iter
    (fun (qname, src, params, edb, out) ->
      let expected = oracle ?params src edb out in
      assert (expected <> []);
      List.iter
        (fun (sname, strategy) ->
          List.iter
            (fun workers ->
              for round = 0 to 2 do
                let seed = (base_seed * 1000) + (round * 100) + (workers * 10) in
                let crash_prob = if round = 0 then 0. else 0.02 in
                let delay_prob = 0.2 in
                incr total;
                let label =
                  Printf.sprintf "%s/%s w=%d seed=%d crash=%.2f" qname sname workers seed
                    crash_prob
                in
                match
                  run_case ~seed ~workers ~strategy ~crash_prob ~delay_prob ?params src edb
                    out expected
                with
                | Fixpoint_ok -> incr ok
                | Clean_error msg ->
                  incr clean;
                  if crash_prob = 0. then begin
                    (* no crashes scheduled: delays alone must never
                       abort the run *)
                    Printf.printf "FAIL %s: unexpected error %s\n" label msg;
                    failed := label :: !failed
                  end
                  else Printf.printf "  %s -> clean error (%s)\n" label msg
                | Wrong_fixpoint ->
                  Printf.printf "FAIL %s: fixpoint differs from oracle\n" label;
                  failed := label :: !failed
                | Raw_exception msg ->
                  Printf.printf "FAIL %s: raw exception escaped: %s\n" label msg;
                  failed := label :: !failed
              done)
            [ 2; 4 ])
        strategies)
    cases;
  (* Recovery rounds: the same kind of seeded crash schedules, but with
     checkpointing and recovery armed — now a crash may silently consume
     a retry, and EVERY run must reach the exact oracle fixpoint.  A
     clean error here is a failure: the whole point of recovery is that
     crashes stop being terminal. *)
  let tc_src = D.Queries.tc.source in
  let tc_edb = [ ("arc", arc2) ] in
  let tc_expected = oracle tc_src tc_edb "tc" in
  List.iter
    (fun (sname, strategy) ->
      List.iter
        (fun steal ->
          List.iter
            (fun workers ->
              let seed = (base_seed * 1000) + (workers * 10) + if steal then 1 else 2 in
              incr total;
              let label =
                Printf.sprintf "tc-recover/%s w=%d steal=%b seed=%d" sname workers steal seed
              in
              match
                run_case ~seed ~workers ~strategy ~crash_prob:0.05 ~delay_prob:0.1 ~steal
                  ~checkpoint_every:2 ~max_recoveries:3 tc_src tc_edb "tc" tc_expected
              with
              | Fixpoint_ok -> incr ok
              | Clean_error msg ->
                Printf.printf "FAIL %s: error despite recovery: %s\n" label msg;
                failed := label :: !failed
              | Wrong_fixpoint ->
                Printf.printf "FAIL %s: recovered fixpoint differs from oracle\n" label;
                failed := label :: !failed
              | Raw_exception msg ->
                Printf.printf "FAIL %s: raw exception escaped: %s\n" label msg;
                failed := label :: !failed)
            [ 1; 4 ])
        [ true; false ])
    strategies;
  Printf.printf "fault-sched: %d runs, %d exact fixpoints, %d clean errors, %d failures\n"
    !total !ok !clean (List.length !failed);
  if !failed <> [] then begin
    List.iter (fun l -> Printf.printf "  failed: %s\n" l) !failed;
    exit 1
  end;
  (* the delay-only rounds all completed; make sure the suite really
     exercised the happy path too *)
  if !ok = 0 then begin
    print_endline "fault-sched: no run ever reached a fixpoint — injection too aggressive";
    exit 1
  end
