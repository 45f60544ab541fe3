(** One evaluation worker: its stores, delta arenas, prepared rule
    pipelines and distribution buffers, plus the step primitives the
    {!Strategy} loops drive (init, drain/merge, run one iteration,
    quiesce bookkeeping).

    A worker object lives for one stratum: it allocates its queueing
    model, delta arenas and outgoing frames for that stratum, and
    nothing of it outlives the stratum.

    With the morsel board ({!Steal}) enabled, every delta and init scan
    is split into fixed-size morsels published on the owner's deque;
    idle peers claim them, evaluate them against the {e victim's} stores
    (the discriminating hash routed the matching recursive tuples
    there), and emit through their {e own} Distribute buffers and
    Exchange row, keeping every SPSC queue single-producer. *)

open Dcd_planner

(** {1 Per-stratum shared coordination state} *)

type shared = {
  n : int;
  exch : Exchange.t;
  barrier : Dcd_concurrent.Barrier.t;
  steal : Steal.t; (** the stratum's morsel board *)
  failed : bool Atomic.t;
  mutable token : Dcd_concurrent.Cancel.t;
      (** the round's cancellation token; swapped for a fresh one per
          recovery attempt, only between rounds with the pool idle *)
  ckpt : Checkpoint.t option; (** epoch store; [None] = no checkpointing *)
  heartbeats : int array;
      (** useful-work beats, plain ints read racily by the watchdog *)
  iter_counts : int Atomic.t array;
  nonempty : bool Atomic.t array; (** per-worker votes of the Global barrier round *)
  mutable inject : Dcd_concurrent.Fault.site -> worker:int -> unit;
  max_iterations : int;
}

val make_shared :
  exch:Exchange.t ->
  token:Dcd_concurrent.Cancel.t ->
  fault:Dcd_concurrent.Fault.t option ->
  max_iterations:int ->
  steal:Steal.t ->
  ckpt:Checkpoint.t option ->
  shared

val reset_shared : shared -> token:Dcd_concurrent.Cancel.t -> unit
(** Between recovery attempts only, every worker collected: clears the
    crash flag, heartbeats, iteration counts and votes, resets the
    barrier, and installs the next attempt's token.  The exchange,
    steal board and store rollback are reset separately by the
    orchestrator. *)

(** Read-only per-stratum compilation context, built once by the
    orchestrator and shared by every worker: rules paired with their
    head-target copy arrays (resolved at rule-compile time, so the emit
    path never does a string lookup), and the morsel group tables (a
    morsel names a group id that means the same thing to its owner and
    to any thief). *)
type stratum_ctx = {
  sx_catalog : Catalog.t;
  sx_copies : Exchange.copy_info array;
  sx_h : Dcd_storage.Partition.t;
  sx_partial_agg : bool;
  sx_init : (Physical.compiled_rule * int array) list;
  sx_delta : (Physical.compiled_rule * int array * int) list;
      (** (rule, head targets, scanned copy id) *)
  sx_delta_groups : (int * (Physical.compiled_rule * int array) list) array;
      (** delta rules grouped by scanned copy id; the group index is the
          [m_gid] of [Delta] morsels *)
  sx_init_groups : (Dcd_storage.Arena.t * (Physical.compiled_rule * int array) list) array;
      (** [S_base] init rules grouped by scanned relation, with that
          relation's own arena; the group index is the [m_gid] of
          [Init] morsels *)
  sx_init_unit : (Physical.compiled_rule * int array) list;
}

val make_stratum :
  catalog:Catalog.t ->
  copies:Exchange.copy_info array ->
  h:Dcd_storage.Partition.t ->
  partial_agg:bool ->
  Physical.stratum_plan ->
  stratum_ctx
(** Resolves every rule's head targets and scanned copy to integer ids
    and builds the morsel group tables; init rules scan their
    relation's own arena in place. *)

val stall_snapshot : shared -> strategy:string -> window:float -> Engine_error.stall_diagnostic
(** The watchdog's evidence on stall: global and per-worker termination
    counters, active flags, iteration counts and inbox occupancy. *)

(** {1 The worker} *)

type t

val create :
  shared:shared ->
  stratum:stratum_ctx ->
  me:int ->
  stores:Rec_store.t array array ->
  ws:Run_stats.worker ->
  t
(** Prepares every rule pipeline against this worker's stores.  [stores] is the full per-worker store matrix
    ([stores.(v).(cid)]): row [me] backs the worker's own pipelines, and
    when stealing is on, one extra pipeline set per victim row binds
    recursive lookups to that victim's partition.  Runs on the pool
    domain itself, so preparation is parallel across workers. *)

val me : t -> int

val shared : t -> shared

val stats : t -> Run_stats.worker

val run_init : t -> unit
(** Evaluates the init rules ([S_unit] on worker 0 only; [S_base] scans
    of the shared flat arenas: published as stealable [Init] morsels
    over this worker's contiguous share when the board is on, otherwise
    striped into an arena of its own) and flushes the produced deltas
    into the exchange. *)

val finish_nonrecursive : t -> unit
(** The whole evaluation of a non-recursive stratum after {!run_init}:
    one barrier (all flushes visible, stealing leftover init morsels in
    the barrier tail when the board is on), one drain into this worker's
    partition of the stores. *)

val drain_and_merge : t -> int
(** Drains this worker's inbox, folds every batch into its stores
    (new-delta tuples land in the delta arenas), feeds the arrival
    model, and updates the termination counters.  The drain folds each
    record into a set store with one hash probe, and stages it into an
    aggregate store's run; after the termination counters,
    {!Rec_store.merge_run} reports each store's new tuples into the
    deltas (a set store's in arrival order) and folds each aggregate
    run with one sorted index walk.

    It also reports the tuples this worker's own pipelines delivered
    locally ({!Distribute.emitter}), even when the exchange delivered
    nothing: without that, the next {!delta_size} read, or Global's
    vote, would miss them.  Only the copies that can hold local folds
    ([ci_local]) are checked, so a stratum with none runs exactly the
    exchange drain.  A drain that reports local folds alone evaluates
    the [Merge] fault site once and touches no termination counter:
    local folds are never sent, so they are never consumed.  Returns
    the tuple count drained from the exchange. *)

val run_iteration : t -> unit
(** One local semi-naive iteration: evaluate every delta rule group over
    the current delta arenas (publishing large scans as stealable
    morsels and joining on their completion when the board is on), clear
    them, flush the produced tuples.  A tuple the own pipelines route to
    this worker for a [ci_local] copy is folded into its store during
    the iteration instead and waits there for the next
    {!drain_and_merge}.  The caller must hold the worker
    Termination-active (SSP and DWS set the flag first; Global never
    clears it), so a quiescence check cannot certify the run while the
    folds are unreported. *)

val steal_enabled : t -> bool
(** The morsel board is on for this stratum (workers > 1 and the config
    did not disable it). *)

val try_steal : t -> bool
(** One steal attempt: claim a morsel from the most-loaded peer, execute
    it against the victim's stores, flush the emissions through this
    worker's own exchange row, then release it.  Returns [false] when
    nothing was claimed.  A stolen morsel delivers nothing locally, not
    even tuples routed to the thief: the thief may be
    Termination-inactive, and only sent tuples keep the quiescence check
    honest.  Accounts its own busy time, steal counters and
    service-model samples. *)

val await_barrier : t -> unit
(** Barrier arrival that fills the wait with {!try_steal} attempts when
    the board is on (plain timed await otherwise). *)

val delta_size : t -> int

val clear_deltas : t -> unit

val frozen : t -> bool
(** The [max_iterations] cap has been reached for this worker. *)

val timed_wait : t -> (unit -> unit) -> unit
(** Runs a blocking action, accounting its duration as idle time. *)

val bail_if_cancelled : t -> unit
(** If the run failed or was cancelled: poison the barrier and raise
    {!Dcd_concurrent.Barrier.Poisoned} (the quiet exit path). *)

val decide : t -> Qmodel.decision
(** {!Qmodel.decide} against the live occupancy of this worker's inbox,
    with the stealable-work signal from the morsel board. *)

val decay_model : t -> float -> unit

val inject : t -> Dcd_concurrent.Fault.site -> unit
(** Evaluate one fault-injection site as this worker. *)

(** {1 Checkpoint epochs (crash recovery)}

    All of these are no-ops (or [false]) when the stratum has no
    {!Checkpoint.t}. *)

val cut_epoch : t -> unit
(** Cut and commit the next epoch.  Caller guarantees global
    quiescence: exchange empty, morsels joined, deltas merged.  Runs
    the full commit dance (cut, barrier, worker-0 promote, barrier), so
    {e every} worker must call it — the Global strategy does so in
    lockstep when {!cut_due_global}. *)

val cut_due_global : t -> pass:int -> bool
(** Whether the Global strategy's lockstep pass count says to cut. *)

val maybe_request_cut : t -> unit
(** SSP/DWS, after an iteration: raise the cut-request flag once every
    Termination-active worker, this one included, is
    [checkpoint_every] local iterations past the last cut.  The
    rendezvous waits for the slowest worker's current iteration, so the
    slowest active worker's progress sets the pace. *)

val cut_pending : t -> bool

val join_cut : t -> unit
(** SSP/DWS cut rendezvous: force global quiescence (barrier, drain,
    barrier) and run {!cut_epoch}.  Every worker must call it once per
    pending request — they poll {!cut_pending} at their loop tops. *)

val restore : t -> bool
(** Resume from the committed epoch after the orchestrator rolled the
    stores back: refill the delta arenas and aggregate group indexes
    from the epoch's banks and rewind the iteration counters.  [false]
    when no epoch is committed — the caller restarts from
    {!run_init}. *)
