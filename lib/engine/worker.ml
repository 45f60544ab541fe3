open Dcd_planner
module Tuple = Dcd_storage.Tuple
module Arena = Dcd_storage.Arena
module Relation = Dcd_storage.Relation
module Partition = Dcd_storage.Partition
module Frame = Dcd_concurrent.Frame
module Clock = Dcd_util.Clock
module Barrier = Dcd_concurrent.Barrier
module Termination = Dcd_concurrent.Termination
module Cancel = Dcd_concurrent.Cancel
module Fault = Dcd_concurrent.Fault

(* --- per-stratum shared coordination state --- *)

type shared = {
  n : int;
  exch : Exchange.t;
  barrier : Barrier.t;
  steal : Steal.t;
  failed : bool Atomic.t;
  (* Swapped for a fresh token on every recovery attempt (a peer-crash
     cancellation must not outlive the round it aborted).  Written only
     between rounds with the pool idle — the submit path's mutex
     publishes the new value to the worker domains. *)
  mutable token : Cancel.t;
  ckpt : Checkpoint.t option; (* epoch store; [None] = no checkpointing *)
  (* Per-worker heartbeats of *useful* work (rules evaluated, batches
     merged), bumped only between units of real progress: an idle worker
     spinning through backoff does not beat, so a quiescence livelock
     goes flat and the watchdog can see it.  Plain ints read racily by
     the watchdog domain — staleness only widens the window slightly. *)
  heartbeats : int array;
  iter_counts : int Atomic.t array;
  nonempty : bool Atomic.t array;
  mutable inject : Fault.site -> worker:int -> unit;
  max_iterations : int;
}

let make_shared ~exch ~token ~fault ~max_iterations ~steal ~ckpt =
  let n = Exchange.workers exch in
  let sh =
    {
      n;
      exch;
      barrier = Barrier.create n;
      steal;
      failed = Atomic.make false;
      token;
      ckpt;
      heartbeats = Array.make n 0;
      iter_counts = Array.init n (fun _ -> Atomic.make 0);
      nonempty = Array.init n (fun _ -> Atomic.make false);
      inject = (fun _site ~worker:_ -> ());
      max_iterations;
    }
  in
  (* Fault injection: [inject] stays the no-op closure when disabled, so
     the sites cost one static call on a frame/batch/loop-pass
     granularity — never per tuple.  The stop predicate reads
     [sh.token] through the record so it tracks per-attempt token swaps
     during recovery. *)
  (match fault with
  | None -> ()
  | Some f ->
    Fault.set_stop f (fun () -> Atomic.get sh.failed || Cancel.is_set sh.token);
    sh.inject <- (fun site ~worker -> Fault.hit f site ~worker));
  sh

(* Between recovery attempts only, every worker collected: clears the
   crash flag and the per-round coordination counters, and installs the
   next attempt's cancellation token.  The exchange, steal board and
   store rollback are the orchestrator's side of the reset. *)
let reset_shared sh ~token =
  Atomic.set sh.failed false;
  sh.token <- token;
  Array.fill sh.heartbeats 0 sh.n 0;
  Array.iter (fun c -> Atomic.set c 0) sh.iter_counts;
  Array.iter (fun c -> Atomic.set c false) sh.nonempty;
  Barrier.reset sh.barrier

(* --- per-stratum compiled context, shared read-only by all workers --- *)

type stratum_ctx = {
  sx_catalog : Catalog.t;
  sx_copies : Exchange.copy_info array;
  sx_h : Partition.t;
  sx_partial_agg : bool;
  sx_init : (Physical.compiled_rule * int array) list;
  sx_delta : (Physical.compiled_rule * int array * int) list;
  (* Morsel grouping: a morsel names a pipeline group, and a group runs
     every rule that scans the same source over the same slot range.
     Group tables are part of the shared stratum context so a morsel's
     group id means the same thing to its owner and to any thief. *)
  sx_delta_groups : (int * (Physical.compiled_rule * int array) list) array;
      (** delta rules grouped by scanned copy id *)
  sx_init_groups : (Arena.t * (Physical.compiled_rule * int array) list) array;
      (** [S_base] init rules grouped by scanned relation, with that
          relation's own arena *)
  sx_init_unit : (Physical.compiled_rule * int array) list;
}

(* groups an association-shaped list by key, preserving first-seen key
   order and per-key element order *)
let group_by keys_equal key_of items =
  let groups = ref [] in
  List.iter
    (fun item ->
      let k = key_of item in
      match List.find_opt (fun (k', _) -> keys_equal k k') !groups with
      | Some (_, cell) -> cell := item :: !cell
      | None -> groups := !groups @ [ (k, ref [ item ]) ])
    items;
  List.map (fun (k, cell) -> (k, List.rev !cell)) !groups

let make_stratum ~catalog ~copies ~h ~partial_agg (sp : Physical.stratum_plan) =
  (* distribution targets per head predicate, resolved once per stratum:
     the emit path indexes an int array, never a string lookup *)
  let head_targets =
    List.map
      (fun (pp : Physical.pred_plan) ->
        (pp.pred, Array.of_list (Exchange.copies_of_pred copies pp.pred)))
      sp.pred_plans
  in
  let targets_of pred = List.assoc pred head_targets in
  let sx_init =
    List.map
      (fun (cr : Physical.compiled_rule) -> (cr, targets_of cr.head.hpred))
      sp.init_rules
  in
  let sx_delta =
    List.map
      (fun (cr : Physical.compiled_rule) ->
        let scan_cid =
          match cr.scan with
          | Physical.S_delta { pred; route; _ } -> Exchange.copy_id copies pred route
          | Physical.S_base _ | Physical.S_unit -> assert false
        in
        (cr, targets_of cr.head.hpred, scan_cid))
      sp.delta_rules
  in
  let sx_delta_groups =
    Array.of_list
      (List.map
         (fun (cid, rules) -> (cid, List.map (fun (cr, tg, _) -> (cr, tg)) rules))
         (group_by ( = ) (fun (_, _, cid) -> cid) sx_delta))
  in
  let base_init =
    List.filter_map
      (fun ((cr : Physical.compiled_rule), tg) ->
        match cr.scan with
        | Physical.S_base { pred; _ } -> Some (pred, (cr, tg))
        | Physical.S_delta _ | Physical.S_unit -> None)
      sx_init
  in
  (* init morsels range over the scanned relation's own arena: a
     relation never deletes, so its arena holds exactly its tuples, and
     the catalog is read-only while the stratum runs *)
  let sx_init_groups =
    Array.of_list
      (List.map
         (fun (pred, rules) -> (Relation.arena (Catalog.get catalog pred), List.map snd rules))
         (group_by String.equal fst base_init))
  in
  let sx_init_unit =
    List.filter
      (fun ((cr : Physical.compiled_rule), _) -> cr.scan = Physical.S_unit)
      sx_init
  in
  {
    sx_catalog = catalog;
    sx_copies = copies;
    sx_h = h;
    sx_partial_agg = partial_agg;
    sx_init;
    sx_delta;
    sx_delta_groups;
    sx_init_groups;
    sx_init_unit;
  }

let stall_snapshot sh ~strategy ~window =
  let term = Exchange.term sh.exch in
  {
    Engine_error.stall_window = window;
    stall_strategy = strategy;
    stall_sent = Termination.total_sent term;
    stall_consumed = Termination.total_consumed term;
    stall_workers =
      Array.init sh.n (fun w ->
          {
            Engine_error.ws_worker = w;
            ws_active = Termination.is_active term ~worker:w;
            ws_iterations = Atomic.get sh.iter_counts.(w);
            ws_consumed = Termination.consumed_of term ~worker:w;
            ws_inbox_tuples = Exchange.inbox_tuples sh.exch ~dest:w;
            ws_inbox_batches = Exchange.inbox_batches sh.exch ~dest:w;
          });
  }

(* --- the worker --- *)

type t = {
  sh : shared;
  sx : stratum_ctx;
  me : int;
  ws : Run_stats.worker;
  qm : Qmodel.t; (* this worker's DWS queueing model *)
  drained_from : int array; (* per-source tuple counts of the last drain *)
  stores : Rec_store.t array; (* own partition: stores.(me) of the run matrix *)
  local_cids : int array;
      (* copies whose stores may hold local folds (Exchange.ci_local):
         the ones [drain_and_merge] must report even when the exchange
         delivered nothing; empty for a stratum without such copies *)
  deltas : Arena.t array;
  (* Per-iteration group index for aggregate copies: the Gather operator
     emits ONE delta entry per changed group, holding the current
     aggregate (paper Example 6.1).  Without this, a group improved k
     times in one gather would be scanned k times, which explodes
     quadratically on high-degree vertices. *)
  delta_groups : (Tuple.t, int) Hashtbl.t option array;
  dist : Distribute.t;
  delta_pipes : Eval.prepared list array; (* aligned with sx_delta_groups *)
  init_pipes : Eval.prepared list array; (* aligned with sx_init_groups *)
  init_arenas : Arena.t array; (* scan arena per init group *)
  unit_pipes : Eval.prepared list;
  (* Steal pipelines: [steal_*_pipes.(v).(g)] evaluates group [g] with
     recursive lookups bound to victim [v]'s stores — a stolen morsel
     must probe the partition the discriminating hash routed the
     matching tuples to — while emitting through THIS worker's
     Distribute buffers and Exchange row, so every SPSC queue keeps its
     single producer.  Entry [me] is unused (own morsels run the own
     pipelines above); empty when stealing is off. *)
  steal_delta_pipes : Eval.prepared list array array;
  steal_init_pipes : Eval.prepared list array array;
  mutable on_batch : Exchange.batch -> unit;
}

let me t = t.me

let shared t = t.sh

let stats t = t.ws

let push_delta w cid data off =
  let delta = w.deltas.(cid) in
  match w.delta_groups.(cid) with
  | None -> ignore (Arena.push_slice delta data off)
  | Some groups -> (
    let pos, _ = Option.get w.sx.sx_copies.(cid).Exchange.ci_agg in
    let group = Tuple.group_key data off ~arity:(Arena.arity delta) ~agg_pos:pos in
    match Hashtbl.find_opt groups group with
    | Some slot -> Arena.set_slot delta slot data off
    | None ->
      Hashtbl.add groups group (Arena.length delta);
      ignore (Arena.push_slice delta data off))

(* The drain folds every record straight from the packed frame: a set
   store inserts it with one hash probe, an aggregate store stages it
   into its scratch run (the existence cache still filters here).  The
   new tuples reach the deltas once per drain in [drain_and_merge],
   after the termination counters are updated. *)
let stage_batch w (b : Exchange.batch) =
  w.sh.inject Fault.Merge ~worker:w.me;
  w.sh.heartbeats.(w.me) <- w.sh.heartbeats.(w.me) + 1;
  let store = w.stores.(b.bcopy) in
  Frame.iter b.bframe (fun data ~toff ~clen ~coff ->
      Rec_store.stage_slice store ~data ~off:toff ~cdata:data ~coff ~clen)

let create ~shared:sh ~stratum:sx ~me ~stores:all_stores ~ws =
  let copies = sx.sx_copies in
  let own_stores = all_stores.(me) in
  let deltas = Array.map (fun ci -> Arena.create ~arity:ci.Exchange.ci_arity ()) copies in
  let delta_groups =
    Array.map
      (fun ci ->
        match ci.Exchange.ci_agg with
        | Some _ -> Some (Hashtbl.create 64 : (Tuple.t, int) Hashtbl.t)
        | None -> None)
      copies
  in
  let dist =
    Distribute.create ~exch:sh.exch ~me ~h:sx.sx_h ~partial_agg:sx.sx_partial_agg
      ~stores:own_stores ~ws
  in
  (* one evaluation context per store row the pipelines may probe: own
     rules bind to this worker's partition, steal pipelines to the
     victim's *)
  let ctx_for row_stores =
    {
      Eval.lookup =
        (fun (l : Physical.lookup) ->
          match l.rel with
          | Physical.R_rec { pred; route } -> (
            let store = row_stores.(Exchange.copy_id copies pred route) in
            match Rec_store.index store with
            | Some idx -> Eval.Index idx
            | None -> Eval.Iter (fun key f -> Rec_store.iter_matches store ~key f))
          | Physical.R_base pred -> (
            let rel = Catalog.get sx.sx_catalog pred in
            if Array.length l.key_cols = 0 then Eval.Iter (fun _ f -> Relation.iter_slices rel f)
            else
              match Relation.find_index rel ~key_cols:l.key_cols with
              | Some idx -> Eval.Index idx
              | None ->
                (* Parallel.prebuild_indexes guarantees this cannot happen *)
                assert false));
      base_sorted =
        (fun pred cols ->
          match Relation.find_sorted_index (Catalog.get sx.sx_catalog pred) ~cols with
          | Some si -> si
          | None ->
            (* Parallel.prebuild_indexes guarantees this cannot happen *)
            assert false);
    }
  in
  (* Rules prepared once per worker and stratum: lookups resolve to
     their store or index, and the scanned copy and the head's
     distribution targets to integer ids, here, at setup time.  Own
     pipelines deliver self-routed tuples locally; steal pipelines ship
     everything (see Distribute.emitter). *)
  let prep ~local ctx (rules : (Physical.compiled_rule * int array) list) =
    List.map
      (fun ((cr : Physical.compiled_rule), targets) ->
        Eval.prepare cr ctx ~emit:(Distribute.emitter dist ~targets ~local))
      rules
  in
  let own_prep = prep ~local:true (ctx_for own_stores) in
  let steal_on = Steal.enabled sh.steal in
  let steal_pipes_of groups =
    Array.init sh.n (fun v ->
        if (not steal_on) || v = me then [||]
        else Array.map (fun (_, rules) -> prep ~local:false (ctx_for all_stores.(v)) rules) groups)
  in
  let local_cids =
    List.init (Array.length copies) Fun.id
    |> List.filter (fun cid -> copies.(cid).Exchange.ci_local)
    |> Array.of_list
  in
  let w =
    {
      sh;
      sx;
      me;
      ws;
      qm = Qmodel.create ~producers:sh.n ();
      drained_from = Array.make sh.n 0;
      stores = own_stores;
      local_cids;
      deltas;
      delta_groups;
      dist;
      delta_pipes = Array.map (fun (_, rules) -> own_prep rules) sx.sx_delta_groups;
      init_pipes = Array.map (fun (_, rules) -> own_prep rules) sx.sx_init_groups;
      init_arenas = Array.map fst sx.sx_init_groups;
      unit_pipes = own_prep sx.sx_init_unit;
      steal_delta_pipes = steal_pipes_of sx.sx_delta_groups;
      steal_init_pipes = steal_pipes_of sx.sx_init_groups;
      on_batch = ignore;
    }
  in
  w.on_batch <- stage_batch w;
  w

let clear_deltas w =
  Array.iter Arena.clear w.deltas;
  Array.iter (function Some g -> Hashtbl.reset g | None -> ()) w.delta_groups

let delta_size w = Array.fold_left (fun acc a -> acc + Arena.length a) 0 w.deltas

let frozen w = w.sh.max_iterations > 0 && w.ws.iterations >= w.sh.max_iterations

let flush_outgoing w =
  w.sh.inject Fault.Flush ~worker:w.me;
  Distribute.flush w.dist

(* Reports one store's folds since its last [merge_run] into the
   deltas: drained and locally delivered tuples alike. *)
let report_store w cid =
  let store = w.stores.(cid) in
  if Rec_store.staged store > 0 then begin
    let merged, dups = Rec_store.merge_run store ~on_fresh:(push_delta w cid) in
    w.ws.merged_tuples <- w.ws.merged_tuples + merged;
    w.ws.dup_dropped <- w.ws.dup_dropped + dups
  end

let holds_local_folds w =
  Array.exists (fun cid -> Rec_store.staged w.stores.(cid) > 0) w.local_cids

let drain_and_merge w =
  let t0 = Clock.now () in
  let total = Exchange.drain w.sh.exch ~me:w.me ~drained_from:w.drained_from w.on_batch in
  if total > 0 then begin
    (* one clock read per drain, not per tuple: the arrival model keeps
       its per-batch framing (see Qmodel) *)
    let now = Clock.now () in
    for j = 0 to w.sh.n - 1 do
      let cnt = w.drained_from.(j) in
      if cnt > 0 then Qmodel.record_arrival w.qm ~from:j ~now ~count:cnt
    done;
    (* Become visibly active BEFORE recording consumption: a peer whose
       quiescence snapshot includes these consumed counts must also see
       this worker active, or it could exit while we still hold
       unprocessed tuples and go on to send to it. *)
    Termination.set_active (Exchange.term w.sh.exch) ~worker:w.me true;
    Termination.consumed (Exchange.term w.sh.exch) ~worker:w.me total;
    w.ws.tuples_drained <- w.ws.tuples_drained + total;
    (* Report every store's changes into the deltas now, with this
       worker already visibly active for the drained tuples — safe,
       because only the worker itself ever clears its own active flag.
       An aggregate store folds its staged run here, in one sorted
       pass. *)
    for cid = 0 to Array.length w.stores - 1 do
      report_store w cid
    done;
    w.ws.merge_time <- w.ws.merge_time +. (Clock.now () -. t0)
  end
  else if holds_local_folds w then begin
    (* Nothing arrived, but this worker's own pipelines folded tuples
       locally: report them now, or the delta check that follows would
       miss them.  The worker is still Termination-active (it folds
       only while active), and local folds touch no counter.  The merge
       fault site stays reachable on a run where every tuple is
       local. *)
    w.sh.inject Fault.Merge ~worker:w.me;
    w.sh.heartbeats.(w.me) <- w.sh.heartbeats.(w.me) + 1;
    Array.iter (report_store w) w.local_cids;
    w.ws.merge_time <- w.ws.merge_time +. (Clock.now () -. t0)
  end;
  total

let timed_wait w f =
  let t0 = Clock.now () in
  f ();
  w.ws.wait_time <- w.ws.wait_time +. (Clock.now () -. t0)

(* A worker that observes cancellation (deadline, external token,
   watchdog, peer crash) exits its loop quietly via [Poisoned] after
   poisoning the barrier, so peers blocked in [await] wake too; the
   structured error is raised once, after the round is joined. *)
let bail_if_cancelled w =
  if Atomic.get w.sh.failed || Cancel.check w.sh.token then begin
    Barrier.poison w.sh.barrier;
    raise Barrier.Poisoned
  end

let steal_enabled w = Steal.enabled w.sh.steal

(* --- morsel execution --- *)

let exec_morsel w (m : Steal.morsel) =
  let pipes =
    match m.Steal.m_kind with
    | Steal.Delta ->
      if m.Steal.m_src = w.me then w.delta_pipes.(m.Steal.m_gid)
      else w.steal_delta_pipes.(m.Steal.m_src).(m.Steal.m_gid)
    | Steal.Init ->
      if m.Steal.m_src = w.me then w.init_pipes.(m.Steal.m_gid)
      else w.steal_init_pipes.(m.Steal.m_src).(m.Steal.m_gid)
  in
  let scan = `Flat_range (m.Steal.m_arena, m.Steal.m_first, m.Steal.m_len) in
  let k = ref 0 in
  List.iter (fun p -> k := !k + Eval.run_prepared p ~scan) pipes;
  w.ws.morsels_executed <- w.ws.morsels_executed + 1;
  !k

let try_steal w =
  let st = w.sh.steal in
  if not (Steal.enabled st) then false
  else
    match Steal.try_claim st ~me:w.me with
    | None -> false
    | Some m ->
      (* the injection site sits inside the claim window on purpose: a
         crash here leaves the victim joining on an outstanding morsel,
         which must resolve through the failed-flag poll below *)
      w.sh.inject Fault.Steal ~worker:w.me;
      w.sh.heartbeats.(w.me) <- w.sh.heartbeats.(w.me) + 1;
      let t0 = Clock.now () in
      let k = exec_morsel w m in
      (* Flush-before-complete: the stolen emissions must be in the
         exchange (sent counters bumped) while the victim is still
         pinned active by this outstanding morsel — otherwise a peer's
         quiescence snapshot could certify an empty system with stolen
         tuples still privately buffered here. *)
      Distribute.flush w.dist;
      Steal.complete st m;
      let dt = Clock.now () -. t0 in
      w.ws.busy_time <- w.ws.busy_time +. dt;
      w.ws.tuples_processed <- w.ws.tuples_processed + k;
      w.ws.steals <- w.ws.steals + 1;
      w.ws.stolen_tuples <- w.ws.stolen_tuples + m.Steal.m_len;
      Qmodel.record_service w.qm ~tuples:k ~elapsed:dt;
      true

(* The owner's join: wait for every outstanding morsel to come back,
   stealing from peers meanwhile (any outstanding morsel anywhere means
   some worker is mid-window, so there is often work to take).  Crash
   containment: if a thief dies holding one of our morsels the pending
   count never returns to zero — the failed/cancelled poll is the exit.
   Only the idle fraction is charged as wait time; stolen execution
   accounts itself as busy inside [try_steal]. *)
let join_morsels w =
  let st = w.sh.steal in
  if Steal.pending st ~me:w.me > 0 then begin
    let t0 = Clock.now () in
    let stolen = ref 0. in
    while Steal.pending st ~me:w.me > 0 do
      bail_if_cancelled w;
      let s0 = Clock.now () in
      if try_steal w then stolen := !stolen +. (Clock.now () -. s0) else Domain.cpu_relax ()
    done;
    w.ws.wait_time <- w.ws.wait_time +. Float.max 0. (Clock.now () -. t0 -. !stolen)
  end

(* Barrier arrival that fills the wait with steals when the board is on
   (the Global strategy's idle tail, and the non-recursive close). *)
let await_barrier w =
  if steal_enabled w then
    Barrier.await_poll w.sh.barrier (fun () ->
        if not (try_steal w) then timed_wait w (fun () -> Unix.sleepf 5e-5))
  else timed_wait w (fun () -> Barrier.await w.sh.barrier)

let run_iteration w =
  let st = w.sh.steal in
  let t0 = Clock.now () in
  let processed = ref 0 in
  let run_group_whole g batch =
    List.iter
      (fun p -> processed := !processed + Eval.run_prepared p ~scan:(`Flat batch))
      w.delta_pipes.(g)
  in
  if Steal.enabled st then begin
    let msz = Steal.morsel_tuples st in
    Array.iteri
      (fun g (cid, _) ->
        let batch = w.deltas.(cid) in
        let len = Arena.length batch in
        if len > 0 then begin
          w.sh.heartbeats.(w.me) <- w.sh.heartbeats.(w.me) + 1;
          (* a delta too small to make two morsels is not worth the
             publish/claim traffic *)
          if len <= 2 * msz then run_group_whole g batch
          else
            Steal.publish_range st ~me:w.me ~kind:Steal.Delta ~gid:g ~arena:batch ~first:0 ~len
        end)
      w.sx.sx_delta_groups;
    let continue_ = ref true in
    while !continue_ do
      match Steal.pop_own st ~me:w.me with
      | Some m ->
        processed := !processed + exec_morsel w m;
        Steal.complete st m
      | None -> continue_ := false
    done
  end
  else
    Array.iteri
      (fun g (cid, _) ->
        let batch = w.deltas.(cid) in
        if not (Arena.is_empty batch) then begin
          w.sh.heartbeats.(w.me) <- w.sh.heartbeats.(w.me) + 1;
          run_group_whole g batch
        end)
      w.sx.sx_delta_groups;
  let own = Clock.now () -. t0 in
  (* join before clearing: stolen morsels still range over our delta
     arenas, and the stores they probe must stay frozen until the last
     one is back *)
  if Steal.enabled st then join_morsels w;
  let t1 = Clock.now () in
  clear_deltas w;
  flush_outgoing w;
  let dt = own +. (Clock.now () -. t1) in
  w.ws.busy_time <- w.ws.busy_time +. dt;
  w.ws.tuples_processed <- w.ws.tuples_processed + !processed;
  Qmodel.record_service w.qm ~tuples:!processed ~elapsed:dt;
  w.ws.iterations <- w.ws.iterations + 1;
  Atomic.incr w.sh.iter_counts.(w.me)

let decide w =
  Qmodel.decide
    ~stealable:(Steal.stealable w.sh.steal ~me:w.me)
    w.qm
    ~buffer_sizes:(Exchange.inbox_sizes w.sh.exch ~dest:w.me)

let decay_model w f = Qmodel.decay w.qm f

let inject w site = w.sh.inject site ~worker:w.me

(* --- checkpoint epochs (crash recovery) --- *)

(* Cut this worker's slice of the next epoch: snapshot every store of
   the row, deep-copy the delta arenas, record the local iteration
   count.  The caller guarantees global quiescence — nothing in the
   exchange, every morsel joined, every drained tuple merged — so these
   three pieces ARE the whole evaluation state. *)
let cut_epoch_local w =
  match w.sh.ckpt with
  | None -> ()
  | Some c ->
    w.sh.inject Fault.Checkpoint ~worker:w.me;
    let t0 = Clock.now () in
    let bank = Checkpoint.bank c ~worker:w.me ~epoch:(Checkpoint.next_epoch c) in
    Checkpoint.write_bank bank
      ~snaps:(Array.map Rec_store.snapshot w.stores)
      ~deltas:w.deltas ~iterations:w.ws.iterations;
    w.ws.checkpoint_time <- w.ws.checkpoint_time +. (Clock.now () -. t0)

(* The commit dance: everyone cuts into the uncommitted bank, a barrier
   collects the bank writes, worker 0 promotes the epoch, and a second
   barrier keeps anyone from mutating post-cut state before the
   promotion is visible.  A crash anywhere in the dance is harmless:
   [committed] still names the previous epoch, whose parity bank was
   never touched. *)
let cut_epoch w =
  match w.sh.ckpt with
  | None -> ()
  | Some c ->
    let e = Checkpoint.next_epoch c in
    cut_epoch_local w;
    await_barrier w;
    if w.me = 0 then begin
      Checkpoint.commit c ~epoch:e;
      Checkpoint.clear_request c
    end;
    await_barrier w

let cut_due_global w ~pass =
  match w.sh.ckpt with
  | Some c -> pass mod Checkpoint.every c = 0
  | None -> false

let cut_pending w =
  match w.sh.ckpt with Some c -> Checkpoint.requested c | None -> false

(* A cut stops every worker until the slowest has finished the
   iteration it is in, so it is requested only once every
   Termination-active worker, this one included, has run [every]
   iterations since the last cut.  Counted on this worker alone, a fast
   worker racing through small late deltas would stop its peers in the
   middle of their large ones, once per [every] of its own
   iterations. *)
let maybe_request_cut w =
  match w.sh.ckpt with
  | None -> ()
  | Some c ->
    let term = Exchange.term w.sh.exch in
    let rec due j =
      j = w.sh.n
      || ((j <> w.me && not (Termination.is_active term ~worker:j))
         || Atomic.get w.sh.iter_counts.(j) - Checkpoint.cut_iterations c ~worker:j
            >= Checkpoint.every c)
         && due (j + 1)
    in
    if due 0 then Checkpoint.request c

(* SSP/DWS cut rendezvous: the asynchronous strategies have no natural
   quiescent point, so a pending request briefly forces one.  Barrier 1
   stops every worker at its loop top (no one is producing); the drain
   then empties every inbox (all sends happened before barrier 1);
   barrier 2 certifies the exchange empty; [cut_epoch] takes and
   commits the cut.  Deadlock-free because the requesting worker is
   Termination-active from before its request until the cut completes
   (it requested right after running an iteration and never clears its
   flag while joining), so no peer can observe quiescence and exit
   while a request is outstanding. *)
let join_cut w =
  if Option.is_some w.sh.ckpt then begin
    await_barrier w;
    ignore (drain_and_merge w);
    await_barrier w;
    cut_epoch w
  end

(* Resume from the committed epoch after a rollback: refill the delta
   arenas from the bank copies, rebuild the aggregate group index over
   them, and rewind the iteration counters.  [false] when no epoch is
   committed — the caller restarts the stratum from [run_init]. *)
let restore w =
  match w.sh.ckpt with
  | None -> false
  | Some c ->
    let e = Checkpoint.epoch c in
    if e = 0 then false
    else begin
      let bank = Checkpoint.bank c ~worker:w.me ~epoch:e in
      clear_deltas w;
      Array.iteri
        (fun cid src ->
          let len = Arena.length src in
          if len > 0 then begin
            ignore (Arena.append_block w.deltas.(cid) (Arena.data src) ~off:0 ~tuples:len);
            match w.delta_groups.(cid) with
            | None -> ()
            | Some groups ->
              let pos, _ = Option.get w.sx.sx_copies.(cid).Exchange.ci_agg in
              let arena = w.deltas.(cid) in
              let arity = Arena.arity arena in
              for slot = 0 to Arena.length arena - 1 do
                Hashtbl.replace groups
                  (Tuple.group_key (Arena.data arena) (slot * arity) ~arity ~agg_pos:pos)
                  slot
              done
          end)
        bank.Checkpoint.bk_deltas;
      w.ws.iterations <- bank.Checkpoint.bk_iterations;
      Atomic.set w.sh.iter_counts.(w.me) bank.Checkpoint.bk_iterations;
      true
    end

(* --- initialization: base rules over the shared scan arenas --- *)

let run_init w =
  let st = w.sh.steal in
  if w.me = 0 then
    List.iter
      (fun p ->
        bail_if_cancelled w;
        ignore (Eval.run_prepared p ~scan:`Unit))
      w.unit_pipes;
  if Steal.enabled st then begin
    (* publish this worker's contiguous share of every shared scan arena
       as morsels — peers that finish their own share steal the rest *)
    Array.iteri
      (fun g src ->
        bail_if_cancelled w;
        let len = Arena.length src in
        let lo = len * w.me / w.sh.n and hi = len * (w.me + 1) / w.sh.n in
        if hi > lo then
          Steal.publish_range st ~me:w.me ~kind:Steal.Init ~gid:g ~arena:src ~first:lo
            ~len:(hi - lo))
      w.init_arenas;
    let continue_ = ref true in
    while !continue_ do
      match Steal.pop_own st ~me:w.me with
      | Some m ->
        w.ws.tuples_processed <- w.ws.tuples_processed + exec_morsel w m;
        Steal.complete st m
      | None -> continue_ := false
    done;
    join_morsels w
  end
  else
    (* stealing off: the historical strided stripe, copied into an
       arena per group *)
    Array.iteri
      (fun g src ->
        bail_if_cancelled w;
        let len = Arena.length src and arity = Arena.arity src in
        let sdata = Arena.data src in
        let stripe = Arena.create ~capacity:((len / w.sh.n) + 1) ~arity () in
        let k = ref w.me in
        while !k < len do
          ignore (Arena.push_slice stripe sdata (!k * arity));
          k := !k + w.sh.n
        done;
        List.iter
          (fun p ->
            w.ws.tuples_processed <-
              w.ws.tuples_processed + Eval.run_prepared p ~scan:(`Flat stripe))
          w.init_pipes.(g))
      w.init_arenas;
  flush_outgoing w

(* Non-recursive strata have no fixpoint loop: after every worker has
   flushed its init-rule output, one barrier makes all pushes visible,
   and one drain folds each worker's inbox into its partition of the
   stratum's stores.  Crash containment and cancellation reuse the same
   poisoning protocol as the recursive loops; the barrier tail steals
   leftover init morsels when the board is on. *)
let finish_nonrecursive w =
  await_barrier w;
  ignore (drain_and_merge w);
  w.ws.iterations <- w.ws.iterations + 1
