(** Double-banked fixpoint checkpoints for crash recovery.

    An {e epoch} is a consistent cut of one recursive stratum taken at
    a globally quiescent point (exchange empty, morsels joined, deltas
    merged): per worker, a snapshot of its store row, a deep copy of
    its delta arenas, and its local iteration count.  Banks are
    double-buffered by epoch parity so cutting epoch [e] never touches
    the banks of the committed epoch [e - 1]; [commit] — worker 0,
    between two barriers — atomically promotes the new epoch.  Rollback
    ({!Parallel}) restores {e every} worker from the {e same} committed
    epoch; in-flight exchange batches can then be discarded because
    their senders re-run from the cut and regenerate them.  Restoring a
    mix of epochs would lose derivations and is never done. *)

type bank = {
  mutable bk_snaps : Rec_store.snapshot array;
      (** one snapshot per copy, for the owning worker's store row *)
  mutable bk_deltas : Dcd_storage.Arena.t array;
      (** deep copies of the worker's delta arenas at the cut *)
  mutable bk_iterations : int;
      (** the worker's local iteration count at the cut *)
}

type t

val create : workers:int -> every:int -> t
(** [every] is the cut cadence in iterations (>= 1). *)

val every : t -> int

val epoch : t -> int
(** Last committed epoch; [0] means none (base state only). *)

val next_epoch : t -> int

val bank : t -> worker:int -> epoch:int -> bank
(** The bank slot for [worker] at [epoch] (>= 1): parity-indexed, so
    [epoch] and [epoch - 1] never share a slot. *)

val write_bank :
  bank ->
  snaps:Rec_store.snapshot array ->
  deltas:Dcd_storage.Arena.t array ->
  iterations:int ->
  unit
(** Fills a bank: adopts [snaps], deep-copies [deltas] (recycling the
    bank's arenas from two epochs ago), records [iterations]. *)

val commit : t -> epoch:int -> unit
(** Worker 0 only, after a barrier has collected every bank write. *)

val cut_iterations : t -> worker:int -> int
(** [worker]'s local iteration count at the committed epoch's cut; [0]
    before the first commit. *)

val request : t -> unit
(** Raise the asynchronous cut-request flag (SSP/DWS: once every active
    worker is [every] iterations past the last cut, the worker that
    sees it asks everyone to rendezvous). *)

val requested : t -> bool

val clear_request : t -> unit
