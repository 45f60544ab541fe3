(** Parallel bottom-up evaluation of a compiled program (paper §4, §6).

    This module is the thin stratum orchestrator over the layered
    runtime: it owns the run-wide resources — one persistent
    {!Dcd_concurrent.Domain_pool} of [workers] domains, the fault
    schedule and the watchdog guardian — and submits each stratum (in
    dependency order) as one job per pool worker.  The evaluation
    machinery itself lives below:

    - {!Exchange} — the inter-worker tuple fabric (SPSC matrix or
      locked-queue ablation), one batch per flushed frame, occupancy
      and termination accounting;
    - {!Distribute} — the emit side: head-target routing into per-copy ×
      per-destination frames, partial aggregation and set dedup at flush;
    - {!Worker} — per-worker stores, delta arenas, prepared rule
      pipelines, and the step primitives (init scans, drain/merge,
      one semi-naive iteration);
    - {!Strategy} — the coordination loops driving those steps: [Global]
      barriers, [Ssp s] bounded staleness, or [Dws] with the {!Qmodel}
      controller (Algorithm 2).

    Both recursive and non-recursive strata evaluate on the same pool:
    non-recursive strata split their init-rule scans across the workers
    and converge after a single exchange round.  Domains are spawned
    exactly once per run, regardless of how many strata the program has.

    After a stratum reaches its global fixpoint, the union of its
    primary-route partitions is materialized into the catalog, where
    later strata (and the caller) read it. *)

(** The tuple-exchange fabric between workers.  [Spsc_exchange] is the
    paper's design (§6.1): a matrix of single-producer single-consumer
    queues maintained with atomics only.  [Locked_exchange] is the
    coarse-grained alternative the paper argues against — one
    mutex-protected multi-producer queue per destination — kept so the
    claim can be measured as an ablation. *)
type exchange = Exchange.kind =
  | Spsc_exchange
  | Locked_exchange

type config = {
  workers : int;
  strategy : Coord.t;
  optimized_stores : bool;
      (** Table 4's with/without switch for the §6.2 optimizations of
          aggregate stores: the B⁺-tree group index and the existence
          cache together (default [true]; see {!Rec_store.create}) *)
  partial_agg : bool;
  max_iterations : int;
      (** cap on local iterations per worker (0 = unbounded).  Needed
          for programs whose aggregate fixpoint converges only
          numerically (PageRank); also a safety net. *)
  exchange : exchange;
  steal : bool;
      (** intra-iteration morsel-driven work stealing (default [true]).
          Large delta and init scans are split into fixed-size morsels
          on a per-worker lock-free deque; idle workers steal from the
          most-loaded peer and emit through their own exchange row.
          Off, or with [workers = 1], the engine behaves exactly as
          before the morsel board existed. *)
  morsel_tuples : int;
      (** scan tuples per morsel (default 2048).  Scans of at most
          twice this size run unsplit — too small to be worth the
          publish/claim traffic. *)
  coord : Coord.config;
      (** run guard: wall-clock timeout, caller-owned cancel token, and
          the stall watchdog.  All off by default; when off, the only
          residual cost is one atomic load per worker loop pass. *)
  fault : Dcd_concurrent.Fault.spec option;
      (** seeded fault injection for the stress harness.  [None] (the
          default) compiles the injection sites down to a static no-op
          closure call per loop pass / flush / batch — the per-tuple hot
          path has no hook at all. *)
  checkpoint_every : int;
      (** cut a recovery epoch every [n] fixpoint iterations ([0], the
          default, disables checkpointing).  Under the Global strategy
          the cut is taken at the vote barrier — already a quiescent
          point; SSP/DWS briefly rendezvous to force one, once every
          active worker has run [n] iterations since the last cut. *)
  max_recoveries : int;
      (** how many worker crashes one run may transparently recover
          from by rolling back to the last committed epoch (or the
          stratum's base state) and re-running on a repaired pool.  [0]
          (the default) keeps the historical fail-fast behavior:
          {!Engine_error.Worker_crashed} on the first crash. *)
  maintain_workers : int;
      (** workers for incremental-maintenance delta joins ({!Maintain}):
          large seed scans and cascade sweeps dispatch onto the resident
          pool as steal-enabled morsel rounds.  [0] (the default) means
          "same as [workers]"; [1] runs every maintenance kernel inline
          on the coordinator; values above [workers] are clamped.
          Ignored by {!run} itself. *)
}

val default_config : config
(** 4 workers (or fewer if the machine recommends less), DWS, optimized
    stores, partial aggregation on, unbounded iterations. *)

type result = {
  catalog : Catalog.t;
  stats : Run_stats.t;
}

val run :
  ?pool:Dcd_concurrent.Domain_pool.t ->
  Dcd_planner.Physical.t ->
  edb:(string * Dcd_storage.Tuple.t Dcd_util.Vec.t) list ->
  config:config ->
  result
(** Evaluates the program over the given EDB.  Relation names absent
    from [edb] but used as base tables evaluate as empty.  Spawns the
    worker pool (and the guardian, if any run guard is armed) once, and
    always tears both down before returning or raising — unless a
    resident [pool] is supplied, which is used and left alive.  This is
    what keeps a serving session from re-spawning domains on every
    incremental recompute.  The caller owns such a pool: its size must
    equal [config.workers], at most one [run] may use it at a time, and
    a crash that exhausts [max_recoveries] may leave it with parked
    domains, so the caller should treat an escaping error as fatal to
    it.
    @raise Invalid_argument on arity mismatches in [edb].
    @raise Engine_error.Error when the run is cancelled (deadline or
    token), a worker crashes (the error names the faulting worker, with
    backtrace and any further genuine crashes), or the watchdog detects
    a stall — never a raw worker exception, and never a hang: workers
    are joined and the barrier poisoned before the error is raised. *)

val relation_vec : result -> string -> Dcd_storage.Tuple.t Dcd_util.Vec.t
(** Tuples of a materialized relation (empty if the relation is absent). *)
