(** One worker's partition of one route-copy of a recursive relation.

    Recursive predicates are partitioned across workers by the hash of
    their route columns (paper §2.2); non-linear recursion additionally
    replicates a relation under several routes (§4.3), so the engine
    materializes one [Rec_store.t] per (predicate, route, worker).

    A set relation is one {!Dcd_storage.Tuple_table} in canonical column
    order: the table's hash probe is the existence check, and a
    {!Dcd_storage.Slot_index} on the route columns answers keyed
    lookups when some rule reads the copy.  The paper keeps this
    partition in a B⁺-tree behind an existence cache (§5.2.1, §6.2.2);
    the engine never range-scans a set store in key order, so a hash
    table with slot chains serves every access it makes.  An aggregate
    relation is backed by {!Dcd_storage.Agg_table}, a B⁺-tree on the
    route-permuted group key, with the §6.2.2 existence cache in front.
    All tuples are exchanged and returned in the predicate's canonical
    column order.

    A set store's table outlives its stratum: the engine adopts each
    worker's primary-route table as one shard of the answer relation
    ({!table}).  An aggregate store's groups are copied out instead.

    A store is owned by exactly one worker; no synchronization inside. *)

open Dcd_datalog

type t

val create :
  arity:int ->
  agg:(int * Ast.agg_kind) option ->
  route:int array ->
  ?indexed:bool ->
  ?optimized:bool ->
  unit ->
  t
(** [indexed] (default [true]) gives a set store its slot index on the
    route columns; the engine sets it for the copies some rule looks up
    ({!Exchange.copy_info}[.ci_probed]).  Aggregate stores ignore it.

    [optimized] (default [true]) is Table 4's with/without switch, and
    only aggregate stores read it: with it, the group index is a
    B⁺-tree ({!Dcd_storage.Agg_table.Indexed}, §6.2.1) behind the
    §6.2.2 existence cache; without it, a linear-scan group table and
    no cache.  Set stores are the same either way. *)

val table : t -> Dcd_storage.Tuple_table.t option
(** A set store's table, in canonical column order.  Once the stratum
    is over, the engine adopts each worker's primary-route table as a
    shard of the answer relation ({!Dcd_storage.Relation.of_shards}):
    every tuple in it is there because the route's placement sent it to
    this worker.  The store must not be used afterwards. *)

val index : t -> Dcd_storage.Slot_index.t option
(** A set store's route index over its table's rows, if it has one: the
    probe that {!iter_matches} runs, for resolving a lookup once.  It
    stays valid for the store's lifetime, across {!rollback}. *)

val merge : t -> tuple:Dcd_storage.Tuple.t -> contributor:Dcd_storage.Tuple.t -> Dcd_storage.Tuple.t option
(** Folds one candidate (canonical order) into the store.  For
    aggregate stores [contributor] carries the count/sum contributor
    key ([[||]] otherwise).  Returns the canonical delta tuple when the
    store changed — for aggregates this carries the {e updated}
    aggregate value, which may differ from the candidate's.  Both
    inputs are read transiently (anything retained is copied), so they
    may be scratch buffers. *)

val merge_slice :
  t ->
  data:int array ->
  off:int ->
  cdata:int array ->
  coff:int ->
  clen:int ->
  Dcd_storage.Tuple.t option
(** {!merge} reading the candidate straight out of flat storage: the
    tuple is [data.(off .. off+arity-1)], the contributor
    [cdata.(coff .. coff+clen-1)] ([clen = 0] for none).  The per-tuple
    reference of the drain's path: a set store's report mark moves past
    a new tuple, so no later {!merge_run} reports it again.
    @raise Invalid_argument on a set store holding new tuples that
    {!stage_slice} folded and no {!merge_run} has reported yet. *)

val stage_slice :
  t ->
  data:int array ->
  off:int ->
  cdata:int array ->
  coff:int ->
  clen:int ->
  unit
(** The drain's fold.  A set store inserts the candidate at once, with
    one hash probe; {!merge_run} reports it later if it was new.  An
    aggregate store probes its existence cache (a hit drops the
    candidate) and stages the rest into its scratch run, leaving the
    index untouched until {!merge_run}.  Inputs are copied. *)

val staged : t -> int
(** Candidates passed to {!stage_slice} since the last {!merge_run}
    (for aggregate stores: those the cache did not absorb). *)

val merge_run : t -> on_fresh:(int array -> int -> unit) -> int * int
(** Reports every store change since the last [merge_run] to
    [on_fresh] as a canonical [(data, off)] cursor valid only during
    the call; [on_fresh] must not change the store.
    - A set store reports its new tuples in arrival order and returns
      [(new, absorbed)]: the candidates that became new and those the
      table already held.
    - An aggregate store sorts its run by route-permuted key,
      self-dedups it, and folds it with one co-sequential index walk
      ({!Dcd_storage.Agg_table.apply_sorted}), reporting each changed
      group once, in key order, with its updated value.  It returns
      [(merged, dup_dropped)]: candidates handed to the index walk after
      self-dedup/contributor absorption, and candidates dropped before
      reaching it.  Equivalent to {!merge_slice} per staged candidate in
      staging order: final store state identical, and the deltas match
      the per-tuple path's last delta per group — except a Sum run
      whose contributions net to zero against an existing group, where
      the per-tuple path emits a cancelling delta pair and the batch
      path (soundly) emits nothing. *)

val iter_matches : t -> key:int array -> (int array -> int -> unit) -> unit
(** All current tuples whose route columns equal [key], canonical
    order, passed as [(data, off)] cursors valid only during the call.
    This is the recursive-relation side of an index join.
    @raise Invalid_argument on a set store created without an index. *)

val iter : t -> (int array -> int -> unit) -> unit
(** Every tuple as a canonical [(data, off)] cursor valid only during
    the call; a set store's come in arrival order. *)

val length : t -> int

val cache_stats : t -> (int * int) option
(** (hits, misses) of an aggregate store's existence cache, if enabled. *)

(** {1 Checkpoint snapshot / rollback} *)

type snapshot
(** The store's contribution to a checkpoint epoch.  For a set store
    this is its slot count (so cutting an epoch costs nothing
    proportional to the relation); for an aggregate store it is a deep
    value snapshot including the contributor-dedup state
    ({!Dcd_storage.Agg_table.snapshot}). *)

val snapshot : t -> snapshot
(** The store's state for a checkpoint cut.  Every cut follows a
    {!Worker.drain_and_merge}, which reports every fold, drained or
    locally delivered; a set store therefore holds no unreported tuple
    when it is snapshotted, and a tuple folded after the cut lies past
    the slot count, so {!rollback} drops it.
    @raise Invalid_argument on a set store holding folds that no
    {!merge_run} has reported: the cut would keep tuples that no banked
    delta carries, and a run resumed from it would silently lose their
    consequences. *)

val rollback : t -> snapshot -> int
(** Restores the store to exactly the snapshotted state: a set store
    refills its table and index in place from the surviving prefix of
    its arena; an aggregate store restores groups {e and} contributor state
    and drops its existence cache (a cached value can be newer than the
    restored store and would wrongly absorb re-derived candidates).
    Candidates not yet reported by {!merge_run} are discarded.  Returns
    the number of tuples/groups rolled back.  The snapshot survives the
    call — a second-level retry may roll back again. *)
