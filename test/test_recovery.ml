(* Crash recovery: arena truncation, store snapshot/rollback (set and
   aggregate), domain replacement, and end-to-end recovered runs that
   must still produce the exact naive-oracle fixpoint.

   The end-to-end cases drive the full protocol: seeded crash
   injection kills workers mid-fixpoint, the orchestrator rolls every
   partition back to the last committed checkpoint epoch (or the
   stratum's base state), replaces the crashed domains, and re-runs —
   and the result must be tuple-for-tuple the oracle's. *)

module D = Dcdatalog
module Arena = Dcd_storage.Arena
module Rs = Dcd_engine.Rec_store
module Pool = Dcd_concurrent.Domain_pool
module Ast = Dcd_datalog.Ast

(* --- arena truncation --- *)

let test_arena_truncate () =
  let a = Arena.create ~arity:2 () in
  for i = 0 to 9 do
    ignore (Arena.push a [| i; i * 10 |])
  done;
  Arena.truncate a ~count:4;
  Alcotest.(check int) "rolled back to watermark" 4 (Arena.length a);
  Alcotest.(check (list int)) "surviving prefix intact" [ 3; 30 ]
    (Array.to_list (Arena.get a 3));
  (* the arena keeps working past a truncation *)
  ignore (Arena.push a [| 99; 98 |]);
  Alcotest.(check (list int)) "slot 4 reused" [ 99; 98 ] (Array.to_list (Arena.get a 4));
  Arena.truncate a ~count:0;
  Alcotest.(check int) "empty" 0 (Arena.length a);
  (match Arena.truncate a ~count:1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "watermark past the end must be rejected");
  match Arena.truncate a ~count:(-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative watermark must be rejected"

(* --- set-store snapshot / rollback --- *)

let test_set_rollback () =
  let s = Rs.create ~arity:2 ~agg:None ~route:[| 0 |] () in
  ignore (Rs.merge s ~tuple:[| 1; 2 |] ~contributor:[||]);
  ignore (Rs.merge s ~tuple:[| 3; 4 |] ~contributor:[||]);
  let snap = Rs.snapshot s in
  ignore (Rs.merge s ~tuple:[| 5; 6 |] ~contributor:[||]);
  ignore (Rs.merge s ~tuple:[| 7; 8 |] ~contributor:[||]);
  Alcotest.(check int) "pre-rollback length" 4 (Rs.length s);
  Alcotest.(check int) "two tuples rolled back" 2 (Rs.rollback s snap);
  Alcotest.(check int) "post-rollback length" 2 (Rs.length s);
  (* a tuple that only existed after the cut must be fresh again: the
     table and its index were refilled from the arena's surviving
     prefix *)
  Alcotest.(check bool) "rolled-back tuple re-derives" true
    (Rs.merge s ~tuple:[| 5; 6 |] ~contributor:[||] <> None);
  (* while surviving tuples still dedup *)
  Alcotest.(check bool) "pre-cut tuple still absorbed" true
    (Rs.merge s ~tuple:[| 1; 2 |] ~contributor:[||] = None);
  (* snapshots survive being restored from: roll back again *)
  Alcotest.(check int) "second rollback from the same snapshot" 1 (Rs.rollback s snap);
  Alcotest.(check int) "back to the cut" 2 (Rs.length s)

(* --- aggregate-store snapshot / rollback --- *)

let tuple_of = Array.to_list

let test_agg_count_rollback () =
  let s = Rs.create ~arity:2 ~agg:(Some (1, Ast.Count)) ~route:[| 0 |] () in
  ignore (Rs.merge s ~tuple:[| 7; 0 |] ~contributor:[| 100 |]);
  let snap = Rs.snapshot s in
  ignore (Rs.merge s ~tuple:[| 7; 0 |] ~contributor:[| 101 |]);
  ignore (Rs.merge s ~tuple:[| 8; 0 |] ~contributor:[| 100 |]);
  ignore (Rs.rollback s snap);
  Alcotest.(check int) "one group survives" 1 (Rs.length s);
  let got = ref [] in
  Rs.iter s (fun data off -> got := tuple_of (Array.sub data off 2) :: !got);
  Alcotest.(check (list (list int))) "count rewound to 1" [ [ 7; 1 ] ] !got;
  (* contributor-dedup state was restored with the value: the pre-cut
     contributor must still be absorbed, a post-cut one re-counted *)
  Alcotest.(check bool) "pre-cut contributor still deduped" true
    (Rs.merge s ~tuple:[| 7; 0 |] ~contributor:[| 100 |] = None);
  match Rs.merge s ~tuple:[| 7; 0 |] ~contributor:[| 101 |] with
  | Some t -> Alcotest.(check (list int)) "re-derived contributor counts again" [ 7; 2 ] (tuple_of t)
  | None -> Alcotest.fail "rolled-back contributor must count again"

let test_agg_sum_rollback () =
  let s = Rs.create ~arity:2 ~agg:(Some (1, Ast.Sum)) ~route:[| 0 |] () in
  ignore (Rs.merge s ~tuple:[| 1; 10 |] ~contributor:[| 500 |]);
  let snap = Rs.snapshot s in
  ignore (Rs.merge s ~tuple:[| 1; 5 |] ~contributor:[| 501 |]);
  ignore (Rs.rollback s snap);
  let got = ref [] in
  Rs.iter s (fun data off -> got := tuple_of (Array.sub data off 2) :: !got);
  Alcotest.(check (list (list int))) "sum rewound" [ [ 1; 10 ] ] !got;
  Alcotest.(check bool) "pre-cut partial restored (same contributor absorbed)" true
    (Rs.merge s ~tuple:[| 1; 10 |] ~contributor:[| 500 |] = None);
  match Rs.merge s ~tuple:[| 1; 5 |] ~contributor:[| 501 |] with
  | Some t -> Alcotest.(check (list int)) "re-derived sum" [ 1; 15 ] (tuple_of t)
  | None -> Alcotest.fail "rolled-back sum contribution must apply again"

let test_agg_min_rollback () =
  let s = Rs.create ~arity:2 ~agg:(Some (1, Ast.Min)) ~route:[| 0 |] () in
  ignore (Rs.merge s ~tuple:[| 1; 9 |] ~contributor:[||]);
  let snap = Rs.snapshot s in
  ignore (Rs.merge s ~tuple:[| 1; 3 |] ~contributor:[||]);
  ignore (Rs.rollback s snap);
  (* the improvement was rolled back, so it must improve again *)
  match Rs.merge s ~tuple:[| 1; 3 |] ~contributor:[||] with
  | Some t -> Alcotest.(check (list int)) "improvement re-derives" [ 1; 3 ] (tuple_of t)
  | None -> Alcotest.fail "rolled-back improvement must re-derive"

(* --- the cut trigger's baseline --- *)

(* SSP/DWS request a cut once every active worker is [every] iterations
   past the last cut, counted from the committed epoch's banks: 0 before
   the first commit, each worker's own count at the cut after it, and a
   bank written for an epoch not yet committed moves nothing. *)
let test_cut_iterations () =
  let module C = Dcd_engine.Checkpoint in
  let c = C.create ~workers:2 ~every:4 in
  let cut epoch counts =
    List.iteri
      (fun worker n ->
        C.write_bank (C.bank c ~worker ~epoch) ~snaps:[||] ~deltas:[||] ~iterations:n)
      counts
  in
  let base () = List.init 2 (fun worker -> C.cut_iterations c ~worker) in
  Alcotest.(check (list int)) "before the first commit" [ 0; 0 ] (base ());
  cut 1 [ 5; 7 ];
  Alcotest.(check (list int)) "epoch 1 written, not committed" [ 0; 0 ] (base ());
  C.commit c ~epoch:1;
  Alcotest.(check (list int)) "epoch 1 committed" [ 5; 7 ] (base ());
  cut 2 [ 9; 8 ];
  Alcotest.(check (list int)) "epoch 2 written, not committed" [ 5; 7 ] (base ());
  C.commit c ~epoch:2;
  Alcotest.(check (list int)) "epoch 2 committed" [ 9; 8 ] (base ())

(* --- domain replacement --- *)

exception Boom

let test_pool_replace () =
  let pool = Pool.create ~workers:3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      (match Pool.submit pool (fun i -> if i = 1 then raise Boom) with
      | Error [ f ] -> Alcotest.(check int) "crash origin" 1 f.Pool.index
      | Ok () | Error _ -> Alcotest.fail "expected exactly worker 1 to crash");
      let before = Pool.total_spawned () in
      Pool.replace pool 1;
      Alcotest.(check int) "one replacement domain spawned" 1 (Pool.total_spawned () - before);
      (* the repaired pool runs clean rounds on every slot again *)
      let hits = Array.make 3 0 in
      (match Pool.submit pool (fun i -> hits.(i) <- hits.(i) + 1) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "repaired pool must run clean");
      Alcotest.(check (array int)) "all slots live" [| 1; 1; 1 |] hits;
      match Pool.replace pool 7 with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "out-of-range replace must be rejected")

(* --- end-to-end recovered runs --- *)

let oracle src edb out =
  let rows =
    D.Naive.run (D.Parser.parse_program src)
      ~edb:(List.map (fun (n, r) -> (n, List.map Array.of_list r)) edb)
  in
  match List.assoc_opt out rows with
  | Some l -> List.sort compare (List.map Array.to_list l)
  | None -> []

let graph =
  let rand = Dcd_util.Rng.create 0xBEEF in
  List.init 220 (fun _ -> [ Dcd_util.Rng.int rand 70; Dcd_util.Rng.int rand 70 ])

let run_tc ~config =
  D.query ~config D.Queries.tc.D.Queries.source ~edb:[ ("arc", D.tuples graph) ]

let recovery_config ~strategy ~steal ~workers ~crash_prob ~max_crashes =
  {
    D.default_config with
    workers;
    strategy;
    steal;
    checkpoint_every = 2;
    max_recoveries = 5;
    coord =
      {
        D.Coord.default_config with
        timeout = Some 60.;
        stall_window = Some 10.;
      };
    fault = Some { D.Fault.off with seed = 11; crash_prob; max_crashes };
  }

let test_recovered_run_matches_oracle () =
  let expected = oracle D.Queries.tc.D.Queries.source [ ("arc", graph) ] "tc" in
  let config =
    recovery_config ~strategy:D.Coord.Dws ~steal:true ~workers:4 ~crash_prob:0.3 ~max_crashes:2
  in
  match run_tc ~config with
  | Ok r ->
    Alcotest.(check (list (list int)))
      "recovered fixpoint equals oracle" expected
      (List.sort compare (D.relation r "tc"));
    Alcotest.(check bool) "at least one recovery happened" true
      (r.D.Parallel.stats.D.Run_stats.recovery.D.Run_stats.recoveries >= 1)
  | Error e -> Alcotest.fail ("front end: " ^ e)

(* Non-linear TC reads both route copies of [tc] through their slot
   indexes, and with steal on a worker also probes other workers'
   stores.  On a 50-node path the derived path lengths only double
   per iteration, so with an epoch cut every iteration and a low crash
   rate, runs roll back to partly filled stores, whose refilled indexes
   must answer every later probe. *)
let nonlinear_tc = "tc(X, Y) <- arc(X, Y).\ntc(X, Y) <- tc(X, Z), tc(Z, Y)."

let path = List.init 49 (fun i -> [ i; i + 1 ])

let test_recovered_nonlinear_matches_oracle () =
  let expected = oracle nonlinear_tc [ ("arc", path) ] "tc" in
  let config =
    {
      (recovery_config ~strategy:D.Coord.Dws ~steal:true ~workers:4 ~crash_prob:0.02
         ~max_crashes:2)
      with
      checkpoint_every = 1;
    }
  in
  match D.query ~config nonlinear_tc ~edb:[ ("arc", D.tuples path) ] with
  | Ok r ->
    let rcv = r.D.Parallel.stats.D.Run_stats.recovery in
    Alcotest.(check (list (list int)))
      "recovered fixpoint equals oracle" expected
      (List.sort compare (D.relation r "tc"));
    Alcotest.(check bool) "at least one recovery happened" true (rcv.D.Run_stats.recoveries >= 1);
    Alcotest.(check bool) "tuples were rolled back" true (rcv.D.Run_stats.rolled_back_tuples > 0)
  | Error e -> Alcotest.fail ("front end: " ^ e)

(* Linear TC delivers every recursive derivation locally: a worker's
   own pipelines fold it into its own store, and only the next drain
   reports it.  With an epoch cut every iteration and crashes at the
   loop top, the flush and the merge (the site a drain that reports
   only local folds still passes), a crash lands between a fold and
   its report, and rollback must drop what the cut did not cover. *)
let test_recovered_local_delivery_matches_oracle () =
  let expected = oracle D.Queries.tc.D.Queries.source [ ("arc", graph) ] "tc" in
  let config =
    recovery_config ~strategy:D.Coord.Dws ~steal:true ~workers:4 ~crash_prob:0.05 ~max_crashes:3
  in
  let config =
    {
      config with
      checkpoint_every = 1;
      fault =
        Option.map
          (fun f -> { f with D.Fault.crash_sites = [ D.Fault.Loop; D.Fault.Flush; D.Fault.Merge ] })
          config.D.fault;
    }
  in
  match run_tc ~config with
  | Ok r ->
    let st = r.D.Parallel.stats in
    Alcotest.(check (list (list int)))
      "recovered fixpoint equals oracle" expected
      (List.sort compare (D.relation r "tc"));
    Alcotest.(check bool) "at least one recovery happened" true
      (st.D.Run_stats.recovery.D.Run_stats.recoveries >= 1);
    Alcotest.(check bool) "tuples were rolled back" true
      (st.D.Run_stats.recovery.D.Run_stats.rolled_back_tuples > 0);
    Alcotest.(check bool) "tuples were delivered locally" true (D.Run_stats.total_local st > 0)
  | Error e -> Alcotest.fail ("front end: " ^ e)

let test_crash_free_checkpoints_are_invisible () =
  let expected = oracle D.Queries.tc.D.Queries.source [ ("arc", graph) ] "tc" in
  List.iter
    (fun strategy ->
      let config =
        {
          (recovery_config ~strategy ~steal:true ~workers:4 ~crash_prob:0. ~max_crashes:0) with
          fault = None;
          checkpoint_every = 1;
        }
      in
      match run_tc ~config with
      | Ok r ->
        let rcv = r.D.Parallel.stats.D.Run_stats.recovery in
        Alcotest.(check (list (list int)))
          "checkpointed fixpoint equals oracle" expected
          (List.sort compare (D.relation r "tc"));
        Alcotest.(check int) "no recoveries on a crash-free run" 0 rcv.D.Run_stats.recoveries;
        Alcotest.(check bool) "epochs were cut" true (rcv.D.Run_stats.epochs_cut >= 1)
      | Error e -> Alcotest.fail ("front end: " ^ e))
    [ D.Coord.Global; D.Coord.Ssp 2; D.Coord.Dws ]

let test_recovery_disabled_still_fails_fast () =
  let config =
    {
      (recovery_config ~strategy:D.Coord.Dws ~steal:true ~workers:4 ~crash_prob:0.5
         ~max_crashes:1)
      with
      checkpoint_every = 0;
      max_recoveries = 0;
    }
  in
  match run_tc ~config with
  | exception D.Engine_error.Error (D.Engine_error.Worker_crashed _) -> ()
  | exception e -> Alcotest.fail ("expected Worker_crashed, got " ^ Printexc.to_string e)
  | Ok _ -> Alcotest.fail "crash schedule unexpectedly missed every site"
  | Error e -> Alcotest.fail ("front end: " ^ e)

(* multiple strata, including non-recursive aggregate strata that
   recover by restarting from their base snapshots *)
let multi_src =
  "reach(Y) <- src(Y).\n\
   reach(Y) <- reach(X), e(X, Y).\n\
   deg(X, count<Y>) <- reach(X), e(X, Y).\n\
   busiest(max<N>) <- deg(X, N)."

let multi_edb =
  let rand = Dcd_util.Rng.create 0xF00D in
  [
    ("src", [ [ 0 ] ]);
    ("e", List.init 200 (fun _ -> [ Dcd_util.Rng.int rand 60; Dcd_util.Rng.int rand 60 ]));
  ]

let test_recovered_multi_stratum () =
  let expected = oracle multi_src multi_edb "busiest" in
  let config =
    recovery_config ~strategy:D.Coord.Global ~steal:false ~workers:4 ~crash_prob:0.3
      ~max_crashes:2
  in
  match
    D.query ~config multi_src ~edb:(List.map (fun (n, r) -> (n, D.tuples r)) multi_edb)
  with
  | Ok r ->
    Alcotest.(check (list (list int)))
      "multi-stratum recovered fixpoint" expected
      (List.sort compare (D.relation r "busiest"))
  | Error e -> Alcotest.fail ("front end: " ^ e)

let () =
  Printexc.record_backtrace true;
  Alcotest.run "recovery"
    [
      ( "storage",
        [
          Alcotest.test_case "arena truncate" `Quick test_arena_truncate;
          Alcotest.test_case "set rollback" `Quick test_set_rollback;
          Alcotest.test_case "agg count rollback" `Quick test_agg_count_rollback;
          Alcotest.test_case "agg sum rollback" `Quick test_agg_sum_rollback;
          Alcotest.test_case "agg min rollback" `Quick test_agg_min_rollback;
          Alcotest.test_case "cut trigger baseline" `Quick test_cut_iterations;
        ] );
      ("pool", [ Alcotest.test_case "replace crashed domain" `Quick test_pool_replace ]);
      ( "end-to-end",
        [
          Alcotest.test_case "recovered run matches oracle" `Quick
            test_recovered_run_matches_oracle;
          Alcotest.test_case "recovered non-linear run matches oracle" `Quick
            test_recovered_nonlinear_matches_oracle;
          Alcotest.test_case "recovered local-delivery run matches oracle" `Quick
            test_recovered_local_delivery_matches_oracle;
          Alcotest.test_case "crash-free checkpoints invisible" `Quick
            test_crash_free_checkpoints_are_invisible;
          Alcotest.test_case "recovery disabled fails fast" `Quick
            test_recovery_disabled_still_fails_fast;
          Alcotest.test_case "recovered multi-stratum" `Quick test_recovered_multi_stratum;
        ] );
    ]
