(** A stored relation (one partition's worth, or a whole EDB table).

    Each tuple lives once, in a slot of one {!Tuple_table}, which also
    answers existence probes.  Keyed access goes through {!Slot_index}
    chains over those slots, maintained incrementally on insert; base
    relations are loaded once and indexed on the join keys the planner
    requests.  Generic-join plans and served prefix scans add
    {!Sorted_index}es: the slot ids sorted over the same table, one int
    per tuple.  A sorted index is built once and not maintained, so a
    relation refuses inserts once it holds one.  Relations never
    delete, so the table's arena holds the tuples back to back in
    insertion order ({!arena}).  The [_slice]/[_slices] entry points
    move tuples between flat buffers without boxing. *)

type t

val create : ?size_hint:int -> name:string -> arity:int -> unit -> t
(** [size_hint] (expected tuple count) pre-sizes the tuple table. *)

val name : t -> string

val arity : t -> int

val length : t -> int

val add : t -> Tuple.t -> bool
(** Inserts; [true] iff new.  Indexes are updated only for new tuples.
    @raise Invalid_argument on arity mismatch, or once the relation
    holds a sorted index. *)

val add_slice : t -> int array -> int -> bool
(** [add_slice t data off] inserts the tuple stored flat at
    [data.(off .. off+arity-1)] without boxing it; [true] iff new.
    @raise Invalid_argument once the relation holds a sorted index. *)

val mem : t -> Tuple.t -> bool

val mem_slice : t -> int array -> int -> bool

val iter : (Tuple.t -> unit) -> t -> unit

val iter_slices : t -> (int array -> int -> unit) -> unit
(** [iter_slices t f] calls [f data off] per stored tuple in insertion
    order; the slice is valid only during the call. *)

val to_vec : t -> Tuple.t Dcd_util.Vec.t

val arena : t -> Arena.t
(** The tuple table's arena: rows [0, length t) are the tuples in
    insertion order, at stride [max 1 arity].  Valid until the next
    insertion; the flat scan source of init rules. *)

val ensure_index : t -> key_cols:int array -> Slot_index.t
(** Returns the slot index on [key_cols], building it from the current
    contents on first request.  Indexes are identified by their exact
    column list. *)

val find_index : t -> key_cols:int array -> Slot_index.t option

val ensure_sorted_index : t -> cols:int array -> Sorted_index.t
(** Returns the sorted index over the tuples in column order [cols] (a
    permutation of all columns), sorting the current slots on first
    request.  This is the trie the generic-join path leapfrogs over:
    seeking a key prefix enumerates the distinct continuations in
    [cols] order.  From then on the relation refuses inserts.
    @raise Invalid_argument if [cols] is not a full permutation. *)

val find_sorted_index : t -> cols:int array -> Sorted_index.t option

val iter_prefix : t -> prefix:Tuple.t -> (Tuple.t -> unit) -> unit
(** [iter_prefix t ~prefix f] calls [f] on a fresh copy of every tuple
    whose first [Array.length prefix] columns equal [prefix].  Runs off
    the identity-order sorted index when one exists (ascending order,
    one seek and a walk); otherwise scans the flat rows in insertion
    order and boxes only the matches.  An empty prefix iterates
    everything.
    @raise Invalid_argument if the prefix is longer than the arity. *)
