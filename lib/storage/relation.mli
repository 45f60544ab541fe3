(** A stored relation: an EDB table, a session view, or the answer of a
    completed stratum.

    A relation is n {e shards}, each one a {!Tuple_table}, and tuple [t]
    lies in shard {!Partition.of_slice} of [t] on the relation's shard
    columns.  {!create} makes a one-shard relation, which takes inserts.
    {!of_shards} adopts tables that this placement already filled: the
    engine hands over each worker's partition of a set stratum's answer
    as one shard, so no global copy of the answer exists.  Existence
    probes hash the shard columns once and probe one shard; a one-shard
    relation skips the hash.

    Keyed access goes through {!Slot_index} chains, one per shard,
    maintained incrementally on insert.  A probe whose key holds every
    shard column reads one shard, any other probe reads every shard.
    Generic-join plans and served prefix scans add {!Sorted_index}es:
    the slot ids sorted over one table, one int per tuple.  A sharded
    relation merges its shards into one table the first time it is asked
    for one.  A sorted index is built once and not maintained, so a
    relation refuses inserts once it holds one, and a sharded relation
    refuses them always.  Relations never delete, so each shard's arena
    holds its tuples back to back in insertion order ({!arenas}).  The
    [_slice]/[_slices] entry points move tuples between flat buffers
    without boxing. *)

type t

val create : ?size_hint:int -> name:string -> arity:int -> unit -> t
(** A one-shard relation.  [size_hint] (expected tuple count) pre-sizes
    its tuple table. *)

val of_shards : name:string -> arity:int -> cols:int array -> Tuple_table.t array -> t
(** [of_shards ~name ~arity ~cols tables] adopts the tables as the
    relation's shards, without copying them: tuple [t] must lie in table
    [Partition.of_slice (Partition.create ~workers:(Array.length tables))
    ~cols t 0], which is not checked.  The caller must not change the
    tables afterwards.
    @raise Invalid_argument on no tables, a table of another arity, with
    extra columns or with a freed slot, or a shard column out of
    range. *)

val name : t -> string

val arity : t -> int

val shards : t -> int
(** The number of shards. *)

val length : t -> int

val add : t -> Tuple.t -> bool
(** Inserts; [true] iff new.  Indexes are updated only for new tuples.
    @raise Invalid_argument on arity mismatch, on a sharded relation, or
    once the relation holds a sorted index. *)

val add_slice : t -> int array -> int -> bool
(** [add_slice t data off] inserts the tuple stored flat at
    [data.(off .. off+arity-1)] without boxing it; [true] iff new.
    @raise Invalid_argument on a sharded relation, or once the relation
    holds a sorted index. *)

val mem : t -> Tuple.t -> bool

val mem_slice : t -> int array -> int -> bool
(** Probes the one shard the tuple's shard columns pick; allocates
    nothing. *)

val iter : (Tuple.t -> unit) -> t -> unit

val iter_slices : t -> (int array -> int -> unit) -> unit
(** [iter_slices t f] calls [f data off] per stored tuple, shard by
    shard, each in insertion order; the slice is valid only during the
    call. *)

val to_vec : t -> Tuple.t Dcd_util.Vec.t

val arenas : t -> Arena.t array
(** One arena per shard: rows [0, n) of each are its shard's tuples in
    insertion order, at stride [max 1 arity].  Valid until the next
    insertion; the flat scan sources of init rules. *)

(** {1 Keyed indexes} *)

type index
(** The slot indexes of one key-column list, one per shard. *)

val ensure_index : t -> key_cols:int array -> index
(** Returns the index on [key_cols], building it from the current
    contents on first request.  Indexes are identified by their exact
    column list. *)

val find_index : t -> key_cols:int array -> index option

val slot_index : index -> Slot_index.t option
(** The index's one slot index, when its relation has one shard. *)

val iter_index : index -> int array -> (int array -> int -> unit) -> unit
(** [iter_index ix key f] calls [f data off] on every tuple whose
    [key_cols] equal [key].  A key that holds every shard column picks
    one shard, with the placement hash; any other key reads every
    shard.  [f] must not change the relation. *)

(** {1 Sorted indexes} *)

val ensure_sorted_index : t -> cols:int array -> Sorted_index.t
(** Returns the sorted index over the tuples in column order [cols] (a
    permutation of all columns), sorting the current slots on first
    request.  This is the trie the generic-join path leapfrogs over:
    seeking a key prefix enumerates the distinct continuations in
    [cols] order.  A sharded relation first merges its shards into one
    table, once, and rebuilds its keyed indexes over it.  From then on
    the relation refuses inserts.
    @raise Invalid_argument if [cols] is not a full permutation. *)

val find_sorted_index : t -> cols:int array -> Sorted_index.t option

val iter_prefix : t -> prefix:Tuple.t -> (Tuple.t -> unit) -> unit
(** [iter_prefix t ~prefix f] calls [f] on a fresh copy of every tuple
    whose first [Array.length prefix] columns equal [prefix].  Runs off
    the identity-order sorted index when one exists (ascending order,
    one seek and a walk); otherwise scans the flat rows shard by shard
    and boxes only the matches.  An empty prefix iterates everything.
    @raise Invalid_argument if the prefix is longer than the arity. *)
