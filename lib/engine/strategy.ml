module Clock = Dcd_util.Clock
module Backoff = Dcd_concurrent.Backoff
module Termination = Dcd_concurrent.Termination
module Cancel = Dcd_concurrent.Cancel
module Fault = Dcd_concurrent.Fault

(* Steal-before-wait: every branch below that used to sleep first tries
   to take a morsel off a loaded peer's deque.  A successful steal is
   real progress (the stolen busy time is accounted inside [try_steal]),
   so the caller resets its backoff instead of widening it. *)

(* Algorithm 1: a barrier after every global iteration.  The first
   barrier closes the exchange round (every peer has flushed), the
   second publishes the per-worker nonempty votes that decide global
   termination.  Both barrier tails steal: a worker parked at the
   barrier while a skewed peer grinds through its delta is exactly the
   idle time the morsel board exists to reclaim. *)
let global w =
  let sh = Worker.shared w in
  let me = Worker.me w in
  let continue_ = ref true in
  (* lockstep pass count: every worker runs the same barrier rounds, so
     a local counter agrees across workers and decides checkpoint cuts
     without extra coordination *)
  let pass = ref 0 in
  while !continue_ do
    Worker.inject w Fault.Loop;
    Worker.bail_if_cancelled w;
    Worker.await_barrier w;
    ignore (Worker.drain_and_merge w);
    if Worker.frozen w then Worker.clear_deltas w;
    Atomic.set sh.Worker.nonempty.(me) (Worker.delta_size w > 0);
    Worker.await_barrier w;
    let any = Array.exists Atomic.get sh.Worker.nonempty in
    if not any then continue_ := false
    else begin
      incr pass;
      (* the vote barrier is already a globally quiescent point —
         exchange drained, morsels joined — so the cut is free of extra
         synchronization beyond its own commit dance *)
      if Worker.cut_due_global w ~pass:!pass then Worker.cut_epoch w;
      if Atomic.get sh.Worker.nonempty.(me) then Worker.run_iteration w
    end
  done

(* Stale-synchronous: at most [s] local iterations ahead of the slowest
   still-active worker. *)
let ssp w s =
  let sh = Worker.shared w in
  let me = Worker.me w in
  let term = Exchange.term sh.Worker.exch in
  let backoff = Backoff.create () in
  let continue_ = ref true in
  while !continue_ do
    Worker.inject w Fault.Loop;
    Worker.bail_if_cancelled w;
    (* a peer asked for a checkpoint: rendezvous before anything else
       this pass (the requester stays active until the cut commits, so
       quiescence cannot be observed while we converge on it) *)
    if Worker.cut_pending w then Worker.join_cut w;
    ignore (Worker.drain_and_merge w);
    if Worker.frozen w then Worker.clear_deltas w;
    if Worker.delta_size w = 0 then begin
      Termination.set_active term ~worker:me false;
      Worker.inject w Fault.Quiesce;
      if Termination.quiescent term then begin
        (* re-check after the quiescence read: a cut request ordered
           before our snapshot must be joined, not abandoned *)
        if Worker.cut_pending w then Worker.join_cut w else continue_ := false
      end
      else if Worker.try_steal w then Backoff.reset backoff
      else Worker.timed_wait w (fun () -> Backoff.once backoff)
    end
    else begin
      Termination.set_active term ~worker:me true;
      Backoff.reset backoff;
      (* bounded staleness gate *)
      let min_active () =
        let m = ref max_int in
        for j = 0 to sh.Worker.n - 1 do
          if j = me || Termination.is_active term ~worker:j then
            m := min !m (Atomic.get sh.Worker.iter_counts.(j))
        done;
        !m
      in
      (* a pending checkpoint unblocks the gate: the straggler we are
         waiting on may already be parked at the cut barrier with its
         iteration count frozen — gating on it would deadlock the
         rendezvous.  We run the iteration and join the cut at the next
         loop top (all our sends land before barrier 1, so the cut's
         drain still sees them). *)
      while
        (not (Atomic.get sh.Worker.failed || Cancel.is_set sh.Worker.token))
        && (not (Worker.cut_pending w))
        && Atomic.get sh.Worker.iter_counts.(me) - min_active () > s
      do
        (* gated on a straggler: take some of its work instead of
           napping — the steal directly advances the iteration count we
           are waiting on *)
        if not (Worker.try_steal w) then
          Worker.timed_wait w (fun () -> Unix.sleepf 0.0002);
        ignore (Worker.drain_and_merge w)
      done;
      Worker.run_iteration w;
      Worker.maybe_request_cut w
    end
  done

(* Sleep between re-checks while a DWS wait finds nothing to steal, and
   the per-iteration exponential forgetting of the queueing model's
   statistics (tracks phase changes of the fixpoint). *)
let dws_poll_interval = 0.0002

let dws_decay = 0.98

(* Algorithm 2: no global coordination — the queueing model decides,
   per pass, whether to wait up to τ for the pending delta to reach ω
   tuples or to proceed immediately.  The model knows about the morsel
   board: when stealable work exists the wait budget is stretched
   (waiting is productive), and the wait itself is spent stealing. *)
let dws w =
  let sh = Worker.shared w in
  let me = Worker.me w in
  let term = Exchange.term sh.Worker.exch in
  let backoff = Backoff.create () in
  let continue_ = ref true in
  while !continue_ do
    Worker.inject w Fault.Loop;
    Worker.bail_if_cancelled w;
    (* checkpoint rendezvous, same protocol as SSP *)
    if Worker.cut_pending w then Worker.join_cut w;
    ignore (Worker.drain_and_merge w);
    if Worker.frozen w then Worker.clear_deltas w;
    if Worker.delta_size w = 0 then begin
      Termination.set_active term ~worker:me false;
      Worker.inject w Fault.Quiesce;
      if Termination.quiescent term then begin
        if Worker.cut_pending w then Worker.join_cut w else continue_ := false
      end
      else if Worker.try_steal w then Backoff.reset backoff
      else Worker.timed_wait w (fun () -> Backoff.once backoff)
    end
    else begin
      Termination.set_active term ~worker:me true;
      Backoff.reset backoff;
      let decision = Worker.decide w in
      let sz = Worker.delta_size w in
      if float_of_int sz < decision.Qmodel.omega then begin
        (* wait up to τ (capped) for the delta to reach ω, collecting
           arriving tuples and stealing meanwhile; resume on timeout *)
        let deadline = Clock.now () +. Float.min decision.Qmodel.tau Coord.dws_tau_cap in
        let waiting = ref true in
        while !waiting do
          if Atomic.get sh.Worker.failed || Cancel.is_set sh.Worker.token then waiting := false
          else if Worker.cut_pending w then
            (* peers are converging on a checkpoint barrier — run now
               and join at the next loop top instead of waiting out τ *)
            waiting := false
          else if Clock.now () >= deadline then waiting := false
          else begin
            if not (Worker.try_steal w) then
              Worker.timed_wait w (fun () -> Unix.sleepf dws_poll_interval);
            ignore (Worker.drain_and_merge w);
            if float_of_int (Worker.delta_size w) >= decision.Qmodel.omega then
              waiting := false
          end
        done
      end;
      Worker.run_iteration w;
      Worker.maybe_request_cut w;
      Worker.decay_model w dws_decay
    end
  done

let run strategy w =
  match strategy with
  | Coord.Global -> global w
  | Coord.Ssp s -> ssp w s
  | Coord.Dws -> dws w
