(** A resident serving session: the compiled program, the persistent
    worker pool, and the materialized fixpoint, kept alive between
    requests and maintained incrementally under update batches
    (ISSUE 9 tentpole; see DESIGN.md §3h).

    Lifecycle: {!open_session} runs the initial fixpoint on a freshly
    spawned {!Dcd_concurrent.Domain_pool} and hands the result to
    {!Dcd_engine.Maintain}; {!apply_batch} maintains it; {!close} joins
    the pool.  Between batches the session is a database.

    {b Concurrency contract.}  Reads ({!lookup}, {!scan}, {!count},
    {!version}) are wait-free against the last published snapshot: each
    response carries the snapshot version it was computed from, and a
    read racing {!apply_batch} sees either the entire pre-batch or the
    entire post-batch fixpoint — never a torn mix (snapshots are
    copy-on-write and published with a single atomic store).  Writes
    ({!apply_batch}, {!close}) serialize on an internal mutex; callers
    that queue up behind a running maintenance round are {e coalesced} —
    their batches merge, in arrival order, into one maintenance round
    (see {!apply_batch}).  Any number of threads or domains may call
    anything. *)

type t

val open_session :
  plan:Dcd_planner.Physical.t ->
  edb:(string * Dcd_storage.Tuple.t Dcd_util.Vec.t) list ->
  ?config:Dcd_engine.Parallel.config ->
  unit ->
  t
(** Spawns the pool, evaluates the initial fixpoint, builds the
    maintenance state, and publishes snapshot version 0.  On any
    failure the pool is torn down before the exception escapes.
    @raise Dcd_engine.Engine_error.Error as {!Dcd_engine.Parallel.run}.
    @raise Invalid_argument as {!Dcd_engine.Maintain.create} (notably
    [config.max_iterations > 0]). *)

val apply_batch :
  t -> ?deadline:float -> Dcd_engine.Maintain.update list -> Dcd_engine.Maintain.batch_report
(** Applies one update batch, restores the fixpoint, publishes the next
    snapshot version, and folds the counters into [stats.maintenance].

    {b Writer coalescing.}  Callers that arrive while another caller's
    round is running enqueue; when the round finishes, one queued caller
    becomes the leader and applies {e every} queued batch as a single
    merged maintenance round (batches concatenate in arrival order, so
    the resulting fixpoint is the one serial application would reach).
    All callers of a merged round receive the same {!Maintain.batch_report}
    — the report of the merged round, not of their slice.  Each batch is
    validated {e before} it enqueues, so a malformed batch raises on its
    own caller and never contaminates a merged round.

    [deadline] (absolute, {!Dcd_util.Clock.now} seconds) gates
    {e admission} only — a batch already admitted runs to completion,
    because no reader-visible state exists between "admitted" and
    "published".  Time spent queued counts: the deadline is re-checked
    when the merged round forms.
    @raise Dcd_engine.Engine_error.Error [(Cancelled Deadline)] when the
    deadline passed while queued.
    @raise Invalid_argument on a malformed batch (state untouched) or a
    closed session.  Any other escape poisons the session: reads keep
    serving the last published snapshot, and every later write re-raises
    the {e original} poisoning exception verbatim, so callers can tell
    what actually went wrong rather than a generic "session poisoned". *)

val lookup : t -> string -> Dcd_storage.Tuple.t -> int * bool
(** [(version, present)] against the current snapshot. *)

val scan :
  t -> ?deadline:float -> ?prefix:Dcd_storage.Tuple.t -> string -> int * Dcd_storage.Tuple.t list
(** [(version, tuples)] — the relation's tuples whose leading columns
    equal [prefix] (all of them when empty), sorted.  [deadline] is
    polled every 256 tuples.  A prefix scan marks the relation so its
    next published version carries a sorted index. *)

val count : t -> string -> int * int
(** [(version, cardinality)]. *)

val version : t -> int
(** The currently published snapshot version (0 = initial fixpoint). *)

val snapshot : t -> int * (string * Dcd_storage.Relation.t) list
(** The raw published snapshot.  The relations are immutable; callers
    may read them at leisure, even across later batches. *)

val check_invariants : t -> (unit, string) result
(** {!Dcd_engine.Maintain.check_invariants} on the maintained state,
    serialized with writes.  For tests: it enumerates every derivation
    of the recursive strata. *)

val predicates : t -> string list

val is_base : t -> string -> bool

val arity : t -> string -> int

val stats : t -> Dcd_engine.Run_stats.t
(** Cumulative run + maintenance statistics (live object). *)

val config : t -> Dcd_engine.Parallel.config

val closed : t -> bool
(** [true] once closed or poisoned. *)

val close : t -> unit
(** Joins the worker pool.  Idempotent.  Reads against an already-taken
    snapshot stay valid; new requests are refused. *)
