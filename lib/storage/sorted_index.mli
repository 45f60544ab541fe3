(** The sorted index over the slots of a {!Tuple_table}: the table's
    live slot ids, sorted by the tuples' columns taken in a given
    permutation — one int per tuple, no second copy of the rows.  This
    is the sorted side of HISA ("Optimizing Datalog for the GPU"), the
    layout that worst-case-optimal joins run over: generic join's tries
    and served prefix scans.

    Positions [0, length t) name the tuples in index order.  A key of
    [n] ints is compared with a tuple's first [n] columns in index
    order, lexicographically, and a tuple that extends the key compares
    equal to it; so seeking a key prefix lands on the first tuple
    carrying that prefix.

    The index is built once, from the table's members at {!create}, and
    does not follow the table: its owner must neither insert into nor
    remove from the table while the index is in use ({!Relation}
    refuses inserts once it holds one).  Seeks and walks only read, so
    any number of domains may probe one index at once. *)

type t

val create : Tuple_table.t -> cols:int array -> t
(** Sorts the table's live slots by the columns [cols], which must be a
    permutation of all the table's key columns.
    @raise Invalid_argument otherwise. *)

val cols : t -> int array

val length : t -> int

val seek_geq : t -> from:int -> int array -> int -> int
(** [seek_geq t ~from key n] is the first position whose tuple is not
    below [key.(0 .. n-1)], or [length t] if there is none.  [from] is
    a cursor and changes only the cost, never the answer: when the
    tuple at [from] is below the key, the search gallops forward from
    it, which costs the log of the distance moved; otherwise it binary
    searches [0, from], or every position when [from] is not one.
    @raise Invalid_argument if [n] exceeds [key] or the arity. *)

val prefix_eq : t -> int -> int array -> int -> bool
(** [prefix_eq t p key n]: [p < length t] and the first [n] columns of
    the tuple at position [p], in index order, equal [key.(0 .. n-1)]. *)

val value : t -> int -> int -> int
(** [value t p i] is column [i], in index order, of the tuple at
    position [p]. *)

val iter_prefix : t -> int array -> (int array -> int -> unit) -> unit
(** [iter_prefix t prefix f] calls [f data off] on every tuple whose
    first [Array.length prefix] columns in index order equal [prefix],
    in index order: one seek, then a walk over adjacent positions.  The
    row is the table's, [data.(off ..)] in table column order, valid
    only during the call. *)
