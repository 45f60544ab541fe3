(** Execution statistics collected by the parallel evaluator.

    Used by the benchmark harness to report the quantities the paper's
    figures are about: idle waiting time per worker under each
    coordination strategy, local/global iteration counts, and message
    volumes. *)

type worker = {
  mutable iterations : int; (** local iterations executed *)
  mutable tuples_processed : int;
  mutable tuples_sent : int; (** tuples pushed through the exchange *)
  mutable tuples_local : int;
      (** tuples this worker's own pipelines routed to itself and folded
          straight into its own store, bypassing the exchange (local
          delivery: set copies no rule looks up).  Never counted in
          [tuples_sent] or [tuples_drained] *)
  mutable batches_sent : int;
      (** batch objects pushed into the exchange; each batch costs one
          queue push and one termination-counter update regardless of
          how many tuples it carries *)
  mutable words_sent : int;
      (** exchange payload volume in ints (tuple fields + contributor
          prefixes) — the words-per-sent-tuple ratio tracked in
          EXPERIMENTS.md *)
  mutable tuples_drained : int;
      (** tuples this worker consumed from its inbox.  At the end of a
          completed run, [total_drained = total_sent] — exact
          termination means nothing was left in flight, stolen
          emissions included (asserted by the stress suite) *)
  mutable merge_time : float;
      (** seconds in [drain_and_merge] — inbox drain plus the sorted
          store merge *)
  mutable merged_tuples : int;
      (** candidates handed to the authoritative index: the unique
          candidates of each sorted run *)
  mutable dup_dropped : int;
      (** candidates dropped by the run self-dedup and contributor
          absorption before reaching the index *)
  mutable cache_hits : int; (** existence-cache hits (§6.2.2), per stratum *)
  mutable cache_misses : int;
  mutable steals : int; (** morsels stolen from other workers *)
  mutable morsels_executed : int; (** morsels executed, own and stolen *)
  mutable stolen_tuples : int; (** scan tuples in the stolen morsels *)
  mutable wait_time : float; (** seconds idle: barrier + DWS/SSP waits *)
  mutable busy_time : float; (** seconds computing (stolen morsels count
                                 toward the thief) *)
  mutable checkpoint_time : float;
      (** seconds this worker spent cutting checkpoint epochs (snapshot
          of its stores + delta copy) *)
}

(** Run-level crash-recovery counters (zero on a crash-free run with
    checkpoints off). *)
type recovery = {
  mutable recoveries : int; (** crashed rounds recovered from *)
  mutable epochs_cut : int; (** committed checkpoint epochs, all strata *)
  mutable rolled_back_tuples : int;
      (** tuples/groups discarded from stores by rollbacks *)
  mutable rerun_iterations : int;
      (** worker-iterations re-executed after rollbacks (sum over
          workers of iterations lost per rollback) *)
}

type stratum = {
  preds : string list;
  kind : string;
  wall : float; (** end-to-end stratum time (setup + evaluate + materialize) *)
  setup : float;
      (** plan/copy-table construction, index prebuild, store and
          exchange allocation — everything before the pool round starts *)
  evaluate : float; (** the pool round: workers inside the fixpoint *)
  materialize : float; (** union of the partitions into the catalog *)
  workers : worker array;
}

(** Per-maintenance-worker counters accumulated across batches (the
    maintenance pool reuses the resident evaluation domains, but its
    rounds are separate from stratum evaluation, so the breakdown is
    kept apart from {!worker}). *)
type maintain_worker = {
  mutable mw_join_s : float; (** seconds inside maintenance delta joins *)
  mutable mw_morsels : int; (** maintenance morsels executed, own + stolen *)
  mutable mw_steals : int; (** maintenance morsels stolen from other workers *)
  mutable mw_stolen : int; (** scan tuples in the stolen morsels *)
}

(** Per-session incremental-maintenance counters, folded in by the
    {!Dcdatalog.Session} layer after each update batch (all zero on a
    one-shot run). *)
type maintenance = {
  mutable batches : int; (** update batches applied *)
  mutable base_inserted : int; (** base tuples actually added *)
  mutable base_deleted : int; (** base tuples actually removed *)
  mutable inserted : int; (** derived tuples that became visible *)
  mutable deleted : int; (** derived tuples that became invisible *)
  mutable overdeleted : int; (** DRed overdeletion marks removed *)
  mutable rederived : int; (** overdeleted tuples that rederived *)
  mutable restored : int;
      (** DRed supports given back to surviving tuples by derivations
          whose atoms all came back *)
  mutable recounted : int; (** rederived tuples whose support was recounted exactly *)
  mutable recomputed_strata : int; (** stratum fallback recomputes *)
  mutable maintain_s : float; (** seconds inside {!Maintain.apply} *)
  mutable words : int;
      (** words the maintenance tables hold after the last batch
          ({!Maintain.words}; a gauge, not a sum) *)
  mutable resident_tuples : int;
      (** visible tuples the maintenance state holds after the last
          batch, the base of words per resident tuple *)
  mutable coalesced : int;
      (** caller batches that rode along in another caller's maintenance
          round via writer coalescing (each merged group of [n] queued
          batches counts [n - 1]) *)
  mutable mworkers : maintain_worker array;
      (** per-maintenance-worker breakdown; empty until a parallel
          maintenance round runs, then grown to the maintenance worker
          count by {!maintain_worker} *)
}

type t = {
  mutable strata : stratum list; (** in evaluation order *)
  mutable total_wall : float;
  recovery : recovery;
  maintenance : maintenance;
}

val create : unit -> t

val fresh_worker : unit -> worker

val maintain_worker : maintenance -> int -> maintain_worker
(** [maintain_worker m i] is the accumulator for maintenance worker [i],
    growing [m.mworkers] with zeroed entries as needed. *)

val add_stratum : t -> stratum -> unit

val sum_strata : t -> (worker -> int) -> int
(** Sum an integer worker counter across all workers and strata. *)

val total_iterations : t -> int
(** Max local iteration count over workers, summed over strata — the
    "global iterations" a barrier engine would have used. *)

val total_wait : t -> float
(** Total idle time across all workers and strata. *)

val total_sent : t -> int

val total_local : t -> int
(** Tuples delivered locally (folded by their deriving worker into its
    own store) across all workers and strata. *)

val total_words : t -> int
(** Exchange payload ints across all workers and strata. *)

val total_batches : t -> int
(** Exchange batches pushed across all workers and strata; with
    batching enabled this is far below {!total_sent} (one per
    (copy, destination) flush instead of one per tuple). *)

val total_drained : t -> int
(** Tuples consumed across all workers and strata.  Equal to
    {!total_sent} after any completed run — the produced/consumed
    balance that certifies exact termination with stealing on. *)

val total_merged : t -> int

val total_dup_dropped : t -> int

val total_cache_hits : t -> int

val total_cache_misses : t -> int

val total_merge_time : t -> float
(** Seconds across all workers and strata spent draining and merging. *)

val total_steals : t -> int

val total_checkpoint_time : t -> float
(** Seconds across all workers and strata spent cutting epochs. *)

val total_stolen_tuples : t -> int

val busy_imbalance : t -> float
(** max/mean of per-worker busy seconds (summed across strata): 1.0 is
    perfect balance; skew without stealing shows up as values well
    above it. *)

val stratum_imbalance : stratum -> float

val pp : Format.formatter -> t -> unit
