module Arena = Dcd_storage.Arena

(* Double-banked fixpoint checkpoints (crash recovery, §3d of
   DESIGN.md).

   An epoch is a consistent cut of one recursive stratum taken at a
   globally quiescent point: every exchanged batch drained and merged,
   every morsel joined, every worker's fresh delta sitting in its delta
   arenas.  At such a point the whole evaluation state is exactly

     (per-worker stores, per-worker delta arenas, per-worker iteration
      counts)

   — nothing is in flight, so nothing else needs saving, and a rollback
   that restores ALL workers from the SAME committed epoch is sound:
   any batch discarded from the exchange was produced after the cut and
   will be regenerated when the senders re-run from it.  Restoring
   workers from different epochs would lose derivations, which is why
   commit is a single atomic over the whole matrix of banks.

   Banks are double-buffered by epoch parity: the cut for epoch [e]
   writes [banks.(w).(e land 1)] while the previously committed epoch
   [e - 1] stays intact in the other bank.  A crash in the middle of a
   cut therefore never corrupts the recovery point — [committed] still
   names the old epoch and its banks were not touched.  [commit] runs
   on worker 0 only, strictly after a barrier has collected every
   worker's bank write, and is itself followed by a barrier before any
   worker mutates post-cut state.

   The [requested] flag is the asynchronous strategies' rendezvous: a
   worker raises it once every active worker's local iteration count
   is [every] past the last cut ([cut_iterations]), and every worker
   polls it at its loop top and briefly
   forces global quiescence ([Worker.join_cut]) to take the cut.  The
   Global strategy needs neither flag nor extra quiescence — every
   barrier already is a quiescent point, so it cuts in lockstep on a
   shared pass count. *)

type bank = {
  mutable bk_snaps : Rec_store.snapshot array; (* per copy, this worker's row *)
  mutable bk_deltas : Arena.t array; (* per copy, deep copies *)
  mutable bk_iterations : int; (* the worker's local iteration count at the cut *)
}

type t = {
  every : int;
  workers : int;
  banks : bank array array; (* banks.(worker).(epoch land 1) *)
  committed : int Atomic.t; (* last committed epoch; 0 = base state only *)
  requested : bool Atomic.t;
}

let create ~workers ~every =
  if workers < 1 then invalid_arg "Checkpoint.create: workers must be >= 1";
  if every < 1 then invalid_arg "Checkpoint.create: every must be >= 1";
  {
    every;
    workers;
    banks =
      Array.init workers (fun _ ->
          Array.init 2 (fun _ -> { bk_snaps = [||]; bk_deltas = [||]; bk_iterations = 0 }));
    committed = Atomic.make 0;
    requested = Atomic.make false;
  }

let every t = t.every

let epoch t = Atomic.get t.committed

let next_epoch t = Atomic.get t.committed + 1

let bank t ~worker ~epoch =
  if epoch < 1 then invalid_arg "Checkpoint.bank: epochs start at 1";
  t.banks.(worker).(epoch land 1)

let commit t ~epoch = Atomic.set t.committed epoch

let cut_iterations t ~worker =
  let e = epoch t in
  if e = 0 then 0 else (bank t ~worker ~epoch:e).bk_iterations

let request t = Atomic.set t.requested true

let requested t = Atomic.get t.requested

let clear_request t = Atomic.set t.requested false

(* Bank arenas are recycled across cuts (the copy layout of a stratum
   never changes), so after the first two cuts a cut allocates nothing
   but the store snapshots — and Set-store snapshots are O(1)
   watermarks. *)
let write_bank bank ~snaps ~deltas ~iterations =
  bank.bk_snaps <- snaps;
  let n = Array.length deltas in
  let reusable =
    Array.length bank.bk_deltas = n
    && Array.for_all2 (fun d s -> Arena.arity d = Arena.arity s) bank.bk_deltas deltas
  in
  if not reusable then
    bank.bk_deltas <- Array.map (fun a -> Arena.create ~arity:(Arena.arity a) ()) deltas;
  Array.iteri
    (fun i src ->
      let dst = bank.bk_deltas.(i) in
      Arena.clear dst;
      let len = Arena.length src in
      if len > 0 then ignore (Arena.append_block dst (Arena.data src) ~off:0 ~tuples:len))
    deltas;
  bank.bk_iterations <- iterations
