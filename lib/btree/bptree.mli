(** B⁺-tree over composite integer keys (paper §3, Storage Layer).

    DCDatalog's recursive aggregates use it to locate the current value
    for a group key: it is the aggregate index of [Agg_table], the
    layout Table 4 measures (§6.2.1).  Relations keep their sorted
    orders as sorted slot arrays ([Sorted_index]) instead.  Keys are
    [int array]s compared lexicographically (shorter array = prefix =
    smaller when equal so far), values are arbitrary.  All key arrays
    handed to the tree are copied defensively on insert, so callers may
    reuse scratch buffers.

    Not thread-safe: in the engine each worker owns the tree for its own
    partition exclusively, which is precisely the design point of the
    partitioned evaluation (§2.2) — no concurrent index needed. *)

type 'a t

type key = int array

val compare_key : key -> key -> int
(** Lexicographic order; a strict prefix sorts first. *)

val create : ?branching:int -> unit -> 'a t
(** [branching] is the max number of children of an internal node
    (default 32). @raise Invalid_argument if [branching < 4]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val insert : 'a t -> key -> 'a -> unit
(** [insert t k v] maps [k] to [v], replacing any previous binding. *)

val add_if_absent : 'a t -> key -> 'a -> bool
(** [add_if_absent t k v] binds [k] to [v] and returns [true] iff no
    binding existed; an existing binding is left untouched and [false]
    is returned.  One descent either way — the set-semantics merge
    primitive, replacing the [mem]-then-[insert] double descent. *)

val upsert : 'a t -> key -> ('a option -> 'a) -> unit
(** [upsert t k f] binds [k] to [f (find_opt t k)] with a single
    descent.  This is the primitive behind monotone aggregate merging:
    [f] receives the current aggregate for the group key and returns the
    merged one. *)

val find_opt : 'a t -> key -> 'a option

val mem : 'a t -> key -> bool

val iter : 'a t -> (key -> 'a -> unit) -> unit
(** In ascending key order. *)

val fold : 'a t -> init:'acc -> f:('acc -> key -> 'a -> 'acc) -> 'acc

val iter_prefix : 'a t -> prefix:key -> (key -> 'a -> unit) -> unit
(** All bindings whose key starts with [prefix], ascending. *)

val to_list : 'a t -> (key * 'a) list

val of_sorted : ?branching:int -> (key * 'a) array -> 'a t
(** Bulk load from a strictly-sorted array of distinct keys; O(n).
    @raise Invalid_argument if the input is not strictly sorted. *)

val merge_sorted_slice :
  'a t -> n:int -> key:(int -> key) -> merge:(int -> 'a option -> 'a option) -> unit
(** [merge_sorted_slice t ~n ~key ~merge] folds a {e strictly
    increasing} run of [n] keys into the tree with one root descent per
    leaf {e segment} instead of one per key: the leaf chain is walked
    co-sequentially with the run, leaves are rewritten in place when the
    merged result fits, and overflowing leaves bulk-split into siblings
    at ~3/4 fill with cascading bulk internal splits up the recorded
    descent path ([of_sorted]-style level building when the root
    overflows).

    For each run index [i] (ascending, exactly once), [merge i cur] is
    called with the current binding of [key i] ([None] when absent) and
    decides the outcome: [Some v] binds [key i] to [v] (insert or
    overwrite), [None] leaves the tree untouched (no binding created, an
    existing one kept).  This single callback shape expresses both
    set-semantics merging ([None] on [Some _]) and monotone aggregate
    upserts.

    [key i] may be evaluated more than once per index and must be
    stable; on an actual insert the returned array is {e adopted}, not
    copied — callers must not mutate it afterwards (materialize fresh
    arrays, as the run-sorting layer does).

    An empty tree degenerates to a pure [of_sorted]-style bulk load.
    Cost: O(n + touched leaves · log-splits) descents instead of
    O(n · log |t|). *)

val check_invariants : 'a t -> unit
(** Asserts structural invariants (key order, node fill, uniform leaf
    depth, leaf chain consistency).  For tests. @raise Failure on
    violation. *)
