(** Incremental maintenance of a materialized fixpoint under batched
    base-relation updates (ISSUE 9; Ajileye–Motik–Horrocks-style
    incremental materialisation).

    A {!t} mirrors the engine's catalog after an initial {!Parallel.run}
    and keeps it at the exact fixpoint across {!apply} batches without
    recomputing from scratch:

    - non-recursive strata maintain per-tuple derivation counts
      (counting / GMS) and per-group aggregate support, updated by
      signed delta rules with mixed old/new visibility;
    - recursive plain strata run DRed (overdelete w.r.t. the old
      database, goal-directed rederive, semi-naive insert propagation),
      braked by rank-decreasing support counts that stay stable across
      batches: a rederived tuple keeps its rank when a current
      derivation ranks below it and has its support recounted exactly,
      and a derivation whose dead atoms all came back gives its
      surviving head the count its death took;
    - recursive min/max-aggregate strata propagate inserts monotonically
      and recompute on deletions;
    - strata with negation or recursive count/sum recompute through
      {!Parallel.run}, on the resident domain pool.

    Every maintained state is verified against (or adopted from) the
    engine's own materialization at {!create} time, and the differential
    suite checks {!apply} against a cold naive-oracle recompute.

    The state is flat: each predicate keeps every visible tuple in one
    slot of a {!Dcd_storage.Tuple_table} whose extra columns carry its
    derivation count (counting strata) or DRed rank and support, keyed
    indexes are per-key chains of those slots, aggregate supports are
    slots of their own chained per group, and the per-batch deltas,
    delete overlays, dead sets and worklists are tables too, scanned in
    place by the kernels.  {!create} sizes every table from the
    engine's materialized relations, and {!words} reports what they
    hold.

    Every rule body — the support and rank builds of {!create} as well
    as the delta joins of {!apply} — is ordered and compiled by the
    planner for the scan at hand ({!Dcd_planner.Physical.compile_scan})
    and run as an {!Eval} pipeline whose context hides each atom's
    Old/Cur visibility.  With [maintain_workers = 1], or
    for scans below a small threshold, the kernels run inline on the
    coordinator; larger scans execute as steal-enabled morsel rounds on
    the resident pool, where workers run the kernels read-only against
    the frozen state and buffer their emissions, which the coordinator
    applies sequentially after the round barrier.

    Not thread-safe: callers serialize {!apply}, and must not read
    through {!visible} concurrently with it (the {!Dcdatalog.Session}
    layer publishes copy-on-write snapshots for that). *)

type t

type update =
  | Insert of string * Dcd_storage.Tuple.t
  | Delete of string * Dcd_storage.Tuple.t

(** What one {!apply} did, for stats and the serve front door.
    [br_changed] lists [(pred, inserted, deleted)] for every predicate
    whose visible set changed, sorted by name. *)
type batch_report = {
  br_base_inserted : int;
  br_base_deleted : int;
  br_derived_inserted : int;
  br_derived_deleted : int;
  br_overdeleted : int;  (** DRed overdeletion marks physically removed *)
  br_rederived : int;  (** overdeleted tuples that rederived *)
  br_restored : int;
      (** DRed supports given back to surviving tuples by derivations
          whose atoms all came back *)
  br_recounted : int;  (** rederived tuples whose support was recounted exactly *)
  br_recomputed_strata : int;  (** strata that fell back to a sub-run *)
  br_changed : (string * int * int) list;
  br_deltas : (string * Dcd_storage.Tuple.t list * Dcd_storage.Tuple.t list) list;
      (** [(pred, inserted, deleted)] with the actual net tuples, same
          predicates and order as [br_changed] — what the session layer
          folds into its published snapshot overlays.  The arrays are
          immutable and remain valid across later batches. *)
  br_workers : (float * int * int * int) list;
      (** per maintenance worker: (join seconds, morsels executed,
          steals, tuples stolen) of the pool rounds, always one entry
          per effective maintenance worker — all zero if every round
          ran inline. *)
}

val create :
  plan:Dcd_planner.Physical.t ->
  config:Parallel.config ->
  pool:Dcd_concurrent.Domain_pool.t ->
  catalog:Catalog.t ->
  t
(** Builds the maintenance state from a finished run's catalog, on the
    resident [pool] the run used.  The counting strata rebuild their
    support from scratch with compiled kernels and verify the result
    against the catalog tuple-for-tuple; the other strata adopt the
    engine fixpoint as-is, and DRed strata label it with derivation
    ranks and rank-decreasing support counts.  All of this runs inline
    on the calling domain.
    @raise Invalid_argument if [config.max_iterations > 0] (a bounded
    fixpoint is not a model and cannot be maintained), if the pool's
    worker count disagrees with [config.workers], or if the rebuilt
    counting support diverges from the engine's materialization. *)

val validate : t -> update list -> unit
(** The validation prefix of {!apply} alone: raises [Invalid_argument]
    on an unknown predicate, a derived target or an arity mismatch, and
    is guaranteed to mutate nothing.  The session layer runs it before
    admitting a batch to the writer-coalescing queue, so a malformed
    batch fails fast on its own caller instead of poisoning a merged
    maintenance round. *)

val apply : t -> update list -> batch_report
(** Applies one batch of base-relation updates and restores the exact
    fixpoint.  Set semantics: inserting a present tuple or deleting an
    absent one is a no-op.  The whole batch is validated before any
    mutation, so a raised [Invalid_argument] (unknown predicate, derived
    target, arity mismatch) leaves the state untouched; any other escape
    (e.g. {!Engine_error.Error} from a recompute sub-run) may leave the
    state torn and must be treated as fatal to this [t]. *)

val check_invariants : t -> (unit, string) result
(** Checks the table shape of every predicate: each maintained index
    (and each aggregate's support chains) holds exactly the tuples of
    its table, each once, under their projected keys, with no key left
    on an empty chain; each aggregated group shows one value; and
    {!visible_count} equals the number of live slots.  Then checks the
    DRed support invariant on every recursive plain stratum:
    each visible tuple has a rank and at least one current
    rank-decreasing derivation (every same-stratum atom ranked strictly
    below it; derivations binding one tuple to two such atoms count
    too), and its support count is at most the number of them.  The
    fixpoint can stay right while an over-counting support breaks
    this, so it is what the differential tests assert after every
    batch.  Enumerates every derivation of every DRed tuple inline:
    a test and debugging aid, not for serving paths.  Must not run
    concurrently with {!apply}. *)

val visible : t -> string -> (int array -> int -> unit) -> unit
(** [visible t p f] calls [f data off] for every current visible tuple
    of [p], whose fields are [data.(off .. off + arity - 1)]; the slice
    is only valid during the call. *)

val visible_count : t -> string -> int

val resident_tuples : t -> int
(** Visible tuples over all maintained predicates. *)

val words : t -> int
(** Words held by the maintenance tables — visible sets, indexes,
    supports, per-batch tables and emission buffers — summed from their
    array lengths (no heap walk). *)

val arity : t -> string -> int

val predicates : t -> string list
(** All maintained predicates (base and derived), sorted. *)

val is_base : t -> string -> bool
