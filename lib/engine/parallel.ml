open Dcd_planner
module Analysis = Dcd_datalog.Analysis
module Relation = Dcd_storage.Relation
module Partition = Dcd_storage.Partition
module Vec = Dcd_util.Vec
module Clock = Dcd_util.Clock
module Barrier = Dcd_concurrent.Barrier
module Termination = Dcd_concurrent.Termination
module Domain_pool = Dcd_concurrent.Domain_pool
module Cancel = Dcd_concurrent.Cancel
module Fault = Dcd_concurrent.Fault
module Watchdog = Dcd_concurrent.Watchdog

type exchange = Exchange.kind =
  | Spsc_exchange
  | Locked_exchange

type config = {
  workers : int;
  strategy : Coord.t;
  optimized_stores : bool;
  partial_agg : bool;
  max_iterations : int;
  exchange : exchange;
  steal : bool;
  morsel_tuples : int;
  coord : Coord.config;
  fault : Fault.spec option;
  checkpoint_every : int;
  max_recoveries : int;
  maintain_workers : int;
}

let default_config =
  {
    workers = min 4 (Domain_pool.recommended_workers ());
    strategy = Coord.Dws;
    optimized_stores = true;
    partial_agg = true;
    max_iterations = 0;
    exchange = Spsc_exchange;
    steal = true;
    morsel_tuples = 2048;
    coord = Coord.default_config;
    fault = None;
    checkpoint_every = 0;
    max_recoveries = 0;
    maintain_workers = 0;
  }

type result = {
  catalog : Catalog.t;
  stats : Run_stats.t;
}

(* --- shared helpers --- *)

let arity_of (plan : Physical.t) pred =
  match List.assoc_opt pred plan.info.arities with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "unknown predicate %s" pred)

(* Builds the slot indexes this stratum's base lookups will probe, before
   any worker starts (the shared catalog is read-only during parallel
   execution). *)
let prebuild_indexes (plan : Physical.t) catalog (sp : Physical.stratum_plan) =
  let note cr =
    Physical.iter_lookups cr (function
      | { rel = Physical.R_base pred; key_cols; _ } ->
        (* scanned and nested-loop relations must at least exist *)
        let rel = Catalog.ensure catalog ~name:pred ~arity:(arity_of plan pred) in
        if Array.length key_cols > 0 then ignore (Relation.ensure_index rel ~key_cols)
      | { rel = Physical.R_rec _; _ } -> ());
    (match cr.Physical.gj with
    | Some g ->
      (* sorted trie indexes, one per generic-join atom, built here
         so workers only ever read them *)
      Array.iter
        (fun (ga : Physical.gj_atom) ->
          let rel =
            Catalog.ensure catalog ~name:ga.ga_pred ~arity:(arity_of plan ga.ga_pred)
          in
          ignore (Relation.ensure_sorted_index rel ~cols:ga.ga_cols))
        g.Physical.gj_atoms
    | None -> ());
    match cr.Physical.scan with
    | Physical.S_base { pred; _ } ->
      ignore (Catalog.ensure catalog ~name:pred ~arity:(arity_of plan pred))
    | Physical.S_delta _ | Physical.S_unit -> ()
  in
  List.iter note sp.init_rules;
  List.iter note sp.delta_rules

(* --- cancellation plumbing --- *)

let cancel_reason token =
  match Cancel.reason token with
  | Some r -> r
  | None -> Cancel.User

let raise_cancelled token = raise (Engine_error.Error (Cancelled (cancel_reason token)))

(* The per-run watchdog dispatches through this indirection: each
   stratum arms it with closures over its own barrier/exchange state and
   disarms it before materialization.  While disarmed, progress is an
   ever-advancing idle tick so the stall window cannot fire between
   strata. *)
type monitor = {
  g_progress : unit -> int;
  g_stall : unit -> unit;
  g_tick : unit -> unit;
}

(* --- one stratum on the pool --- *)

let eval_stratum (plan : Physical.t) catalog (sp : Physical.stratum_plan) config ~pool ~fault
    ~monitor ~stall_diag ~token stats =
  let t0 = Clock.now () in
  prebuild_indexes plan catalog sp;
  let n = config.workers in
  let h = Partition.create ~workers:n in
  let copies = Exchange.build_copies sp in
  let exch = Exchange.create ~workers:n ~kind:config.exchange ~copies in
  let steal =
    Steal.create ~workers:n ~enabled:config.steal ~morsel_tuples:config.morsel_tuples
  in
  let recursive = sp.stratum.kind <> Analysis.Nonrecursive in
  let recovery_on = config.max_recoveries > 0 in
  (* Epoch checkpoints only make sense inside a fixpoint loop; a
     non-recursive stratum recovers by restarting from its base
     snapshots (it is one init round). *)
  let ckpt =
    if recursive && config.checkpoint_every > 0 then
      Some (Checkpoint.create ~workers:n ~every:config.checkpoint_every)
    else None
  in
  let shared =
    Worker.make_shared ~exch ~token ~fault ~max_iterations:config.max_iterations ~steal ~ckpt
  in
  let stores =
    Array.init n (fun _ ->
        Array.map
          (fun (ci : Exchange.copy_info) ->
            Rec_store.create ~arity:ci.ci_arity ~agg:ci.ci_agg ~route:ci.ci_route
              ~indexed:ci.ci_probed ~optimized:config.optimized_stores ())
          copies)
  in
  (* epoch-0 rollback target: the empty stores, before any init rule
     ran (also the only target for non-recursive strata and for crashes
     before the first committed cut) *)
  let base_snaps =
    if recovery_on then Some (Array.map (Array.map Rec_store.snapshot) stores) else None
  in
  let wstats = Array.init n (fun _ -> Run_stats.fresh_worker ()) in
  let sx = Worker.make_stratum ~catalog ~copies ~h ~partial_agg:config.partial_agg sp in
  let setup = Clock.now () -. t0 in
  (* The run guardian's closures read [shared.token] through the record
     so they follow the per-attempt token swaps during recovery; the
     external run [token] is bridged onto the current attempt by the
     tick. *)
  let idle = ref 0 in
  let arm_monitor () =
    Atomic.set monitor
      (Some
         {
           g_progress =
             (if recursive then fun () ->
                let term = Exchange.term exch in
                let acc = ref (Termination.total_sent term + Termination.total_consumed term) in
                for w = 0 to n - 1 do
                  acc :=
                    !acc + shared.Worker.heartbeats.(w) + Atomic.get shared.Worker.iter_counts.(w)
                done;
                !acc
              else fun () ->
                (* non-recursive strata have no quiescence protocol to
                   livelock; keep the stall window quiet and let the tick
                   handle cancellation *)
                incr idle;
                !idle);
           g_stall =
             (fun () ->
               stall_diag :=
                 Some
                   (Worker.stall_snapshot shared
                      ~strategy:(Coord.to_string config.strategy)
                      ~window:(Option.value config.coord.stall_window ~default:0.));
               ignore (Cancel.cancel shared.Worker.token Cancel.Stall);
               Barrier.poison shared.Worker.barrier);
           g_tick =
             (fun () ->
               if Cancel.check token && not (Cancel.is_set shared.Worker.token) then
                 ignore (Cancel.cancel shared.Worker.token (cancel_reason token));
               if Cancel.is_set shared.Worker.token then Barrier.poison shared.Worker.barrier);
         })
  in
  (* Fault containment: if a worker dies (plan bug, arithmetic fault in
     a hook, OOM, injected crash), its peers must not wait for it
     forever — poison the barrier and raise a flag the barrier-free
     strategies poll.  Peers that die of the poisoning return quietly,
     so the failures [Domain_pool.submit] hands back are all genuine
     origins, never poisoned bystanders. *)
  let t1 = Clock.now () in
  let worker me =
    let body () =
      let w = Worker.create ~shared ~stratum:sx ~me ~stores ~ws:wstats.(me) in
      (* a committed epoch means the orchestrator rolled the stores back
         to it: refill the deltas and iteration counters from its banks
         and skip straight into the fixpoint loop *)
      let resumed = recursive && Worker.restore w in
      if not resumed then Worker.run_init w;
      if recursive then Strategy.run config.strategy w else Worker.finish_nonrecursive w
    in
    try body () with
    | Barrier.Poisoned -> ()
    | e ->
      let bt = Printexc.get_raw_backtrace () in
      Atomic.set shared.Worker.failed true;
      ignore (Cancel.cancel shared.Worker.token Cancel.Peer_crash);
      Barrier.poison shared.Worker.barrier;
      Printexc.raise_with_backtrace e bt
  in
  let raise_crashed failures = raise (Engine_error.Error (Engine_error.worker_crashed failures)) in
  let rec_stats = stats.Run_stats.recovery in
  (* Roll every worker's store row back to the committed epoch (or to
     the empty base state when none is committed).  Sound only because
     ALL workers restore from the SAME epoch: anything discarded from
     the exchange was produced after the cut and is regenerated when
     the senders re-run from it.  The [Recover] fault site is evaluated
     here, on each rolled-back worker's lane, so crash schedules can
     also hit the recovery path itself. *)
  let rollback_all () =
    let epoch = match ckpt with Some c -> Checkpoint.epoch c | None -> 0 in
    for wk = 0 to n - 1 do
      (match fault with Some f -> Fault.hit f Fault.Recover ~worker:wk | None -> ());
      let target_iters, snap_of =
        if epoch > 0 then begin
          let bank = Checkpoint.bank (Option.get ckpt) ~worker:wk ~epoch in
          (bank.Checkpoint.bk_iterations, fun cid -> bank.Checkpoint.bk_snaps.(cid))
        end
        else (0, fun cid -> (Option.get base_snaps).(wk).(cid))
      in
      rec_stats.Run_stats.rerun_iterations <-
        rec_stats.Run_stats.rerun_iterations
        + max 0 (wstats.(wk).Run_stats.iterations - target_iters);
      wstats.(wk).Run_stats.iterations <- target_iters;
      Array.iteri
        (fun cid st ->
          rec_stats.Run_stats.rolled_back_tuples <-
            rec_stats.Run_stats.rolled_back_tuples + Rec_store.rollback st (snap_of cid))
        stores.(wk)
    done
  in
  (* Each recovery attempt gets its own cancellation token (carrying the
     run deadline) so a peer-crash cancellation dies with the round it
     aborted; with recovery off the run token is used directly and
     behavior is exactly the pre-recovery protocol. *)
  let fresh_attempt_token () =
    if not recovery_on then token else Cancel.create ?deadline:(Cancel.deadline token) ()
  in
  let rec attempt ~left =
    arm_monitor ();
    let pool_result = Domain_pool.submit pool worker in
    Atomic.set monitor None;
    match pool_result with
    | Ok () -> ()
    | Error failures ->
      let recoverable =
        recovery_on && left > 0
        (* only genuine crashes are retried: a stall, deadline or user
           cancellation on the attempt means retrying cannot help *)
        && (match Cancel.reason shared.Worker.token with
           | None | Some Cancel.Peer_crash -> true
           | Some _ -> false)
        && not (Cancel.check token)
      in
      if not recoverable then raise_crashed failures
      else begin
        rec_stats.Run_stats.recoveries <- rec_stats.Run_stats.recoveries + 1;
        (* the crashed domains are parked on their exceptions: replace
           them so the pool is whole again before the retry *)
        List.iter (fun (f : Domain_pool.failure) -> Domain_pool.replace pool f.index) failures;
        (* exponential backoff, clipped to the run deadline *)
        let used = config.max_recoveries - left in
        let delay = 0.001 *. (2. ** float_of_int used) in
        let delay =
          match Cancel.deadline token with
          | Some at -> Float.min delay (Float.max 0. (at -. Clock.now () -. 0.001))
          | None -> delay
        in
        if delay > 0. then Unix.sleepf delay;
        (* rollback can itself crash (the Recover site): each such crash
           consumes budget and the rollback is retried — it is
           idempotent, snapshots survive being restored from *)
        let rec roll left =
          match rollback_all () with
          | () -> Some left
          | exception Fault.Injected _ ->
            if left > 0 then begin
              rec_stats.Run_stats.recoveries <- rec_stats.Run_stats.recoveries + 1;
              roll (left - 1)
            end
            else None
        in
        match roll (left - 1) with
        | None -> raise_crashed failures
        | Some left ->
          Exchange.reset exch;
          Steal.reset steal;
          Worker.reset_shared shared ~token:(fresh_attempt_token ());
          attempt ~left
      end
  in
  if recovery_on then shared.Worker.token <- fresh_attempt_token ();
  attempt ~left:config.max_recoveries;
  if Cancel.is_set shared.Worker.token then begin
    match !stall_diag with
    | Some d -> raise (Engine_error.Error (Stalled d))
    | None -> raise_cancelled shared.Worker.token
  end;
  (match ckpt with
  | Some c ->
    rec_stats.Run_stats.epochs_cut <- rec_stats.Run_stats.epochs_cut + Checkpoint.epoch c
  | None -> ());
  let evaluate = Clock.now () -. t1 in
  (* fold each worker's existence-cache counters into its stratum stats
     (stores are per-stratum, so these are per-stratum totals) *)
  for w = 0 to n - 1 do
    Array.iter
      (fun st ->
        match Rec_store.cache_stats st with
        | Some (h, m) ->
          wstats.(w).Run_stats.cache_hits <- wstats.(w).Run_stats.cache_hits + h;
          wstats.(w).Run_stats.cache_misses <- wstats.(w).Run_stats.cache_misses + m
        | None -> ())
      stores.(w)
  done;
  (* --- materialize the primary-route union into the catalog --- *)
  let t2 = Clock.now () in
  List.iter
    (fun (pp : Physical.pred_plan) ->
      let primary = List.hd pp.routes in
      let cid = Exchange.copy_id copies pp.pred primary in
      let total = ref 0 in
      for w = 0 to n - 1 do
        total := !total + Rec_store.length stores.(w).(cid)
      done;
      let rel = Relation.create ~size_hint:!total ~name:pp.pred ~arity:pp.arity () in
      let add data off = ignore (Relation.add_slice rel data off) in
      for w = 0 to n - 1 do
        Rec_store.iter stores.(w).(cid) add
      done;
      Catalog.add_relation catalog rel)
    sp.pred_plans;
  let materialize = Clock.now () -. t2 in
  Run_stats.add_stratum stats
    {
      Run_stats.preds = sp.stratum.preds;
      kind = Analysis.recursion_kind_to_string sp.stratum.kind;
      wall = Clock.now () -. t0;
      setup;
      evaluate;
      materialize;
      workers = wstats;
    }

(* --- top level --- *)

(* The guardian's sampling interval: how often it checks the deadline,
   the external token and the progress counters. *)
let guardian_poll = 0.02

let run ?pool (plan : Physical.t) ~edb ~config =
  if config.workers < 1 then invalid_arg "Parallel.run: workers must be >= 1";
  if config.morsel_tuples < 1 then invalid_arg "Parallel.run: morsel_tuples must be >= 1";
  (match pool with
  | Some p when Domain_pool.size p <> config.workers ->
    invalid_arg
      (Printf.sprintf "Parallel.run: pool has %d workers but config wants %d"
         (Domain_pool.size p) config.workers)
  | _ -> ());
  (* One token guards the whole run (every stratum): caller-supplied or
     internal, with the timeout folded in as an absolute deadline. *)
  let token =
    match config.coord.cancel with
    | Some t -> t
    | None -> Cancel.create ()
  in
  (match config.coord.timeout with
  | Some s -> Cancel.arm_deadline token ~at:(Clock.now () +. s)
  | None -> ());
  let catalog = Catalog.create () in
  let stats = Run_stats.create () in
  let t0 = Clock.now () in
  (* load the EDB *)
  List.iter
    (fun (name, tuples) ->
      let arity =
        match List.assoc_opt name plan.Physical.info.arities with
        | Some a -> a
        | None -> if Vec.is_empty tuples then 0 else Array.length (Vec.get tuples 0)
      in
      Catalog.load catalog ~name ~arity tuples)
    edb;
  List.iter
    (fun pred -> ignore (Catalog.ensure catalog ~name:pred ~arity:(arity_of plan pred)))
    plan.Physical.info.edb;
  (* The persistent pool: [workers] domains spawned once, every stratum
     submitted to the same pool; one fault schedule and at most one
     guardian domain per run. *)
  let n = config.workers in
  let owned, pool =
    match pool with
    | Some p -> (false, p)
    | None -> (true, Domain_pool.create ~workers:n)
  in
  let fault = Option.map (Fault.create ~workers:n) config.fault in
  let monitor : monitor option Atomic.t = Atomic.make None in
  let stall_diag : Engine_error.stall_diagnostic option ref = ref None in
  let guard = config.coord in
  let need_guardian =
    guard.stall_window <> None || guard.cancel <> None || Cancel.deadline token <> None
  in
  let idle = ref 0 in
  let guardian =
    if not need_guardian then None
    else
      let window = Option.value guard.stall_window ~default:infinity in
      Some
        (Watchdog.spawn ~window ~poll:guardian_poll
           ~progress:(fun () ->
             match Atomic.get monitor with
             | Some m -> m.g_progress ()
             | None ->
               incr idle;
               !idle)
           ~on_stall:(fun () ->
             match Atomic.get monitor with
             | Some m -> m.g_stall ()
             | None -> ())
           ~on_tick:(fun () ->
             match Atomic.get monitor with
             | Some m -> m.g_tick ()
             | None -> ())
           ())
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Watchdog.stop guardian;
      if owned then Domain_pool.shutdown pool)
    (fun () ->
      List.iter
        (fun (sp : Physical.stratum_plan) ->
          if Cancel.check token then raise_cancelled token;
          eval_stratum plan catalog sp config ~pool ~fault ~monitor ~stall_diag ~token stats)
        plan.Physical.strata;
      stats.Run_stats.total_wall <- Clock.now () -. t0;
      { catalog; stats })

let relation_vec result name =
  match Catalog.find result.catalog name with
  | Some rel -> Relation.to_vec rel
  | None -> Vec.create ()
