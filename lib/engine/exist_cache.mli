(** Constant-time existence-check cache (paper §6.2.2), in front of an
    aggregate store.

    At each semi-naive iteration the engine must decide, per candidate
    tuple, whether its group already holds a value at least as good —
    an O(log n) probe of the aggregate table's B⁺-tree.  This cache sits
    in front: a hash table from group key to the last-known aggregate
    value, checked in O(1).  A hit with a value at least as good as the
    candidate lets the engine drop the candidate without touching the
    index at all; anything else falls through to the authoritative
    store, whose answer refreshes the cache.  A set store needs no
    cache: its hash table's probe is the existence check. *)

type t

val create : ?capacity:int -> unit -> t

val find : t -> Dcd_storage.Tuple.t -> int option
(** Last value cached for this key, if any. *)

val put : t -> Dcd_storage.Tuple.t -> int -> unit

val clear : t -> unit
(** Drops every cached entry (hit/miss counters survive).  Required on
    checkpoint rollback: a cached aggregate value can be {e newer} than
    the restored store and would silently absorb candidates that must
    re-derive. *)

val length : t -> int

val hits : t -> int
(** Number of [find]s answered from the cache (diagnostics). *)

val misses : t -> int
