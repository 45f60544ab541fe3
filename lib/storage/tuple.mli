(** Tuples.

    Every engine tuple is an [int array]; string constants are interned
    through {!Dcd_util.Symbol} by the front end and fractional values are
    carried as fixed-point integers by the programs that need them
    (e.g. PageRank).  This keeps the hot paths free of boxing and
    polymorphic comparison.

    The hot read path additionally manipulates tuples as *slices* of a
    flat backing buffer ([int array] + offset, see {!Arena}); the
    [_slice]/[_cols] entry points below hash and compare those without
    materializing a boxed tuple, and agree exactly with the boxed
    versions on the same value sequence. *)

type t = int array

val equal : t -> t -> bool

val equal_slice : t -> int array -> int -> int -> bool
(** [equal_slice a data off len] is [equal a (Array.sub data off len)]
    without the allocation. *)

val equal_slices : int array -> int -> int array -> int -> int -> bool
(** [equal_slices d1 o1 d2 o2 len] compares two flat slices of length
    [len]. *)

val mix64 : int -> int
(** The splitmix64 finalizer used by {!hash}: a full-width avalanche
    permutation of the native int.  Exposed for hash-quality tests. *)

val hash : t -> int
(** FNV-1a over the splitmix64-mixed elements, with a final avalanche;
    suitable for the open-addressing tables in this library.  Equal
    value sequences hash equally across {!hash}, {!hash_slice} and
    {!hash_cols}. *)

val hash_int : int -> int
(** Hash of the single-field tuple [[| x |]] — equal to
    [hash [| x |]] without the allocation.  The partitioner hashes
    single-column keys through this so a key value lands on the same
    worker whether it is hashed boxed, flat, or bare. *)

val hash_slice : int array -> off:int -> len:int -> int
(** Hash of the tuple stored flat at [data.(off .. off+len-1)]. *)

val hash_cols : int array -> base:int -> int array -> int
(** [hash_cols data ~base cols] hashes the projected key
    [data.(base+cols.(0)), data.(base+cols.(1)), ...] — the key of the
    tuple at flat offset [base] — without materializing it. *)

val compare : t -> t -> int
(** Lexicographic; same order as {!Dcd_btree.Bptree.compare_key}. *)

val project : t -> int array -> t
(** [project tup cols] is the sub-tuple of the listed column positions,
    in the listed order. *)

val group_sentinel : int
(** The value standing in for the aggregate position of a group key
    ([min_int]). *)

val group_key : int array -> int -> arity:int -> agg_pos:int -> t
(** [group_key data off ~arity ~agg_pos] is a copy of the tuple stored
    flat at [data.(off .. off+arity-1)] with the aggregate value
    position masked by {!group_sentinel}: the key under which aggregate
    candidates for the same group collide.  Every site that groups
    aggregate tuples (Gather delta dedup, Distribute partial
    aggregation) must build keys with this one helper so the sentinels
    agree. *)

val pp : Format.formatter -> t -> unit
(** Renders as [(a, b, c)]. *)

val to_string : t -> string
