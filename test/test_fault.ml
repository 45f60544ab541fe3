(* Fault-tolerance layer: cancel tokens, deterministic injection,
   watchdog, multi-failure domain pool, and the engine's structured
   errors (crash containment under every strategy, deadline
   cancellation, watchdog stall detection). *)

module D = Dcdatalog
module Cancel = Dcd_concurrent.Cancel
module Fault = Dcd_concurrent.Fault
module Watchdog = Dcd_concurrent.Watchdog
module Domain_pool = Dcd_concurrent.Domain_pool
module Clock = Dcd_util.Clock

(* --- Cancel --- *)

let test_cancel_token () =
  let t = Cancel.create () in
  Alcotest.(check bool) "fresh token unset" false (Cancel.is_set t);
  Alcotest.(check bool) "fresh token passes check" false (Cancel.check t);
  Alcotest.(check bool) "first cancel wins" true (Cancel.cancel t Cancel.User);
  Alcotest.(check bool) "second cancel loses" false (Cancel.cancel t Cancel.Stall);
  Alcotest.(check bool) "set after cancel" true (Cancel.is_set t);
  match Cancel.reason t with
  | Some Cancel.User -> ()
  | _ -> Alcotest.fail "first reason must stick"

let test_cancel_deadline () =
  let t = Cancel.create () in
  Alcotest.(check (option (float 0.))) "no deadline by default" None (Cancel.deadline t);
  Cancel.arm_deadline t ~at:(Clock.now () -. 1.);
  Alcotest.(check bool) "is_set alone ignores the deadline" false (Cancel.is_set t);
  Alcotest.(check bool) "check trips the passed deadline" true (Cancel.check t);
  (match Cancel.reason t with
  | Some Cancel.Deadline -> ()
  | _ -> Alcotest.fail "deadline reason");
  let t2 = Cancel.create () in
  Cancel.arm_deadline t2 ~at:(Clock.now () +. 3600.);
  Cancel.arm_deadline t2 ~at:(Clock.now () +. 7200.);
  Alcotest.(check bool) "arming only tightens" false (Cancel.check t2)

(* --- Fault determinism --- *)

(* Record each worker's decision stream as (crash ordinal | delay count)
   and check two instances with the same seed agree exactly. *)
let fault_trace spec ~workers ~hits =
  let f = Fault.create ~workers spec in
  let trace = Array.make workers [] in
  for w = 0 to workers - 1 do
    for _ = 1 to hits do
      match Fault.hit f Fault.Merge ~worker:w with
      | () -> ()
      | exception Fault.Injected { ordinal; _ } -> trace.(w) <- ordinal :: trace.(w)
    done
  done;
  Array.map List.rev trace

let test_fault_deterministic () =
  let spec = { Fault.off with seed = 42; crash_prob = 0.05; max_crashes = 1000 } in
  let a = fault_trace spec ~workers:3 ~hits:400 in
  let b = fault_trace spec ~workers:3 ~hits:400 in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  Alcotest.(check bool) "some crashes were scheduled" true
    (Array.exists (fun l -> l <> []) a);
  let c = fault_trace { spec with seed = 43 } ~workers:3 ~hits:400 in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c)

let test_fault_budget_and_filter () =
  let spec =
    { Fault.off with seed = 7; crash_prob = 1.0; crash_workers = [ 1 ]; max_crashes = 1 }
  in
  let f = Fault.create ~workers:2 spec in
  (* worker 0 is filtered out entirely *)
  for _ = 1 to 50 do
    Fault.hit f Fault.Loop ~worker:0
  done;
  (match Fault.hit f Fault.Loop ~worker:1 with
  | () -> Alcotest.fail "worker 1 must crash at probability 1"
  | exception Fault.Injected { worker; _ } -> Alcotest.(check int) "origin worker" 1 worker);
  (* budget of one: no further crashes *)
  for _ = 1 to 50 do
    Fault.hit f Fault.Loop ~worker:1
  done;
  Alcotest.(check int) "budget respected" 1 (Fault.injected_crashes f)

(* --- Watchdog --- *)

let test_watchdog_fires_on_stall () =
  let fired = ref 0 in
  let ticks = ref 0 in
  let w =
    Watchdog.spawn ~window:0.05 ~poll:0.01
      ~progress:(fun () -> 0)
      ~on_stall:(fun () -> incr fired)
      ~on_tick:(fun () -> incr ticks)
      ()
  in
  Unix.sleepf 0.3;
  Watchdog.stop w;
  Alcotest.(check int) "fired exactly once" 1 !fired;
  Alcotest.(check bool) "kept ticking" true (!ticks > 3)

let test_watchdog_quiet_under_progress () =
  let fired = ref 0 in
  let counter = Atomic.make 0 in
  let w =
    Watchdog.spawn ~window:0.08 ~poll:0.01
      ~progress:(fun () -> Atomic.get counter)
      ~on_stall:(fun () -> incr fired)
      ~on_tick:(fun () -> ())
      ()
  in
  for _ = 1 to 10 do
    Unix.sleepf 0.02;
    Atomic.incr counter
  done;
  Watchdog.stop w;
  Alcotest.(check int) "never fired while progressing" 0 !fired

(* --- Domain_pool multi-failure collection --- *)

exception Boom of int

let test_pool_collects_all_failures () =
  match
    Domain_pool.run_collect ~workers:4 (fun i ->
        if i = 1 || i = 3 then raise (Boom i) else i)
  with
  | Ok _ -> Alcotest.fail "expected failures"
  | Error failures ->
    Alcotest.(check (list int)) "both raisers reported, in worker order" [ 1; 3 ]
      (List.map (fun (f : Domain_pool.failure) -> f.index) failures);
    List.iter
      (fun (f : Domain_pool.failure) ->
        match f.error with
        | Boom i -> Alcotest.(check int) "each failure carries its own exn" f.index i
        | e -> Alcotest.fail (Printexc.to_string e))
      failures

let test_pool_run_compat () =
  (match Domain_pool.run ~workers:3 (fun i -> i * i) with
  | [| 0; 1; 4 |] -> ()
  | _ -> Alcotest.fail "results in worker order");
  match Domain_pool.run ~workers:3 (fun i -> if i >= 1 then raise (Boom i) else i) with
  | _ -> Alcotest.fail "expected raise"
  | exception Boom i -> Alcotest.(check int) "first failure by index re-raised" 1 i

(* --- engine-level structured errors --- *)

let tc_arc n = List.init (n - 1) (fun i -> [ i; i + 1 ])

let strategies = [ ("global", D.Coord.Global); ("ssp", D.Coord.Ssp 2); ("dws", D.Coord.Dws) ]

(* An induced crash in worker 1 must terminate the whole pool under every
   strategy — peers poisoned, never hung — and the structured error must
   name the true origin, not a poisoned peer.  The config-level timeout
   doubles as the test-level hang guard. *)
let test_crash_containment () =
  List.iter
    (fun (name, strategy) ->
      let config =
        {
          D.default_config with
          workers = 2;
          strategy;
          coord = { D.Coord.default_config with timeout = Some 30. };
          fault =
            Some
              {
                D.Fault.off with
                seed = 5;
                crash_prob = 1.0;
                crash_sites = [ D.Fault.Loop ];
                crash_workers = [ 1 ];
              };
        }
      in
      let prepared = Result.get_ok (D.prepare D.Queries.tc.source) in
      match D.try_run prepared ~edb:[ ("arc", D.tuples (tc_arc 400)) ] ~config () with
      | Ok _ -> Alcotest.fail (name ^ ": crash must not be swallowed")
      | Error (D.Engine_error.Worker_crashed { worker; error; others; _ }) ->
        Alcotest.(check int) (name ^ ": faulting worker named") 1 worker;
        Alcotest.(check int) (name ^ ": no poisoned bystanders reported") 0
          (List.length others);
        (match error with
        | D.Fault.Injected { worker = 1; _ } -> ()
        | e -> Alcotest.fail (name ^ ": wrong exn " ^ Printexc.to_string e))
      | Error e -> Alcotest.fail (name ^ ": wrong error " ^ D.Engine_error.to_string e))
    strategies

let test_deadline_cancels () =
  let config =
    {
      D.default_config with
      workers = 2;
      coord = { D.Coord.default_config with timeout = Some 0.02 };
    }
  in
  let prepared = Result.get_ok (D.prepare D.Queries.tc.source) in
  (* a closure big enough that it cannot finish in 20 ms *)
  let arc = List.init 6000 (fun i -> [ i; (i + 1) mod 3000 ]) in
  match D.try_run prepared ~edb:[ ("arc", D.tuples arc) ] ~config () with
  | Error (D.Engine_error.Cancelled Cancel.Deadline) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ D.Engine_error.to_string e)
  | Ok _ -> Alcotest.fail "a 20ms deadline cannot complete this closure"

let test_external_cancel () =
  let token = Cancel.create () in
  let config =
    {
      D.default_config with
      workers = 2;
      coord = { D.Coord.default_config with cancel = Some token; timeout = Some 30. };
    }
  in
  let prepared = Result.get_ok (D.prepare D.Queries.tc.source) in
  let arc = List.init 6000 (fun i -> [ i; (i + 1) mod 3000 ]) in
  let canceller =
    Domain.spawn (fun () ->
        Unix.sleepf 0.02;
        ignore (Cancel.cancel token Cancel.User))
  in
  let r = D.try_run prepared ~edb:[ ("arc", D.tuples arc) ] ~config () in
  Domain.join canceller;
  match r with
  | Error (D.Engine_error.Cancelled Cancel.User) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ D.Engine_error.to_string e)
  | Ok _ -> Alcotest.fail "closure finished before the cancel could land (enlarge input)"

(* The acceptance scenario: a deliberately livelocked run (one worker
   held mid-loop while its peers still hold undelivered work) must be
   detected by the watchdog within the configured window and returned as
   [Stalled] with a populated state snapshot — not hang. *)
let test_watchdog_detects_livelock () =
  List.iter
    (fun (name, strategy) ->
      let config =
        {
          D.default_config with
          workers = 2;
          strategy;
          coord =
            {
              D.Coord.default_config with
              stall_window = Some 0.15;
              timeout = Some 30.;
            };
          fault = Some { D.Fault.off with seed = 1; stall_worker = Some 1; stall_after = 2 };
        }
      in
      let prepared = Result.get_ok (D.prepare D.Queries.tc.source) in
      let t0 = Clock.now () in
      match D.try_run prepared ~edb:[ ("arc", D.tuples (tc_arc 600)) ] ~config () with
      | Error (D.Engine_error.Stalled diag) ->
        Alcotest.(check bool) (name ^ ": detected within a few windows") true
          (Clock.now () -. t0 < 10.);
        Alcotest.(check int) (name ^ ": snapshot covers every worker") 2
          (Array.length diag.stall_workers);
        Alcotest.(check (float 0.001)) (name ^ ": window recorded") 0.15 diag.stall_window;
        Alcotest.(check bool) (name ^ ": snapshot renders") true
          (String.length (Format.asprintf "%a" D.Engine_error.pp_diagnostic diag) > 0)
      | Error e -> Alcotest.fail (name ^ ": wrong error " ^ D.Engine_error.to_string e)
      | Ok _ -> Alcotest.fail (name ^ ": stalled worker cannot reach the fixpoint"))
    strategies

(* Faults disabled must change nothing: guarded runs still reach the
   exact fixpoint. *)
let test_guarded_run_correct () =
  let config =
    {
      D.default_config with
      workers = 2;
      coord =
        { D.Coord.default_config with timeout = Some 60.; stall_window = Some 10. };
    }
  in
  let prepared = Result.get_ok (D.prepare D.Queries.tc.source) in
  let edb = [ ("arc", D.tuples (tc_arc 50)) ] in
  match D.try_run prepared ~edb ~config () with
  | Ok r -> Alcotest.(check int) "tc of a 50-chain" (49 * 50 / 2) (D.relation_count r "tc")
  | Error e -> Alcotest.fail (D.Engine_error.to_string e)

let () =
  Alcotest.run "fault"
    [
      ( "cancel",
        [
          Alcotest.test_case "token basics" `Quick test_cancel_token;
          Alcotest.test_case "deadline" `Quick test_cancel_deadline;
        ] );
      ( "fault",
        [
          Alcotest.test_case "deterministic schedules" `Quick test_fault_deterministic;
          Alcotest.test_case "budget and worker filter" `Quick test_fault_budget_and_filter;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "fires on stall" `Quick test_watchdog_fires_on_stall;
          Alcotest.test_case "quiet under progress" `Quick test_watchdog_quiet_under_progress;
        ] );
      ( "domain-pool",
        [
          Alcotest.test_case "collects all failures" `Quick test_pool_collects_all_failures;
          Alcotest.test_case "run compat" `Quick test_pool_run_compat;
        ] );
      ( "engine",
        [
          Alcotest.test_case "crash containment, every strategy" `Quick test_crash_containment;
          Alcotest.test_case "deadline cancels" `Quick test_deadline_cancels;
          Alcotest.test_case "external cancel" `Quick test_external_cancel;
          Alcotest.test_case "watchdog detects livelock" `Slow test_watchdog_detects_livelock;
          Alcotest.test_case "guards off the hot path" `Quick test_guarded_run_correct;
        ] );
    ]
