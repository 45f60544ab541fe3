(** Per-store scratch run for an aggregate store's batch-sorted merge.

    A worker's drain stages every surviving candidate record — canonical
    tuple fields plus an optional contributor key — flat into this pool,
    then {!sort} orders an index permutation by the store's permuted key
    columns and the merge layer walks the records in key order
    ({!Dcd_btree.Bptree.merge_sorted_slice} gets one strictly-increasing
    run instead of one descent per tuple).

    The sort is {e stable} (ties keep staging order), so
    last-contribution-wins aggregate semantics match the per-tuple merge
    path exactly.  Narrow keys (≤ 3 columns) with O(n) per-column value
    ranges take an LSD counting-radix path; everything else a stable
    comparison merge sort.  The pool and index arrays persist across
    {!clear}, so steady-state iterations allocate nothing but the
    materialized keys of retained candidates. *)

type t

val create : arity:int -> contrib:bool -> key_cols:int array -> unit -> t
(** [key_cols] are canonical column ids in permuted (route-first) key
    order — the order {!key} materializes and {!sort} compares. *)

val length : t -> int
(** Records currently staged. *)

val is_empty : t -> bool

val stage_slice :
  t -> data:int array -> off:int -> cdata:int array -> coff:int -> clen:int -> unit
(** Appends one record: tuple [data.(off .. off+arity-1)], contributor
    [cdata.(coff .. coff+clen-1)] ([clen = 0] for none; only legal on a
    [contrib] buffer).  Both are copied into the pool. *)

val sort : t -> unit
(** Orders the staged records by permuted key (stable on ties).  The
    rank accessors below are valid until the next {!stage_slice} or
    {!clear}. *)

val data : t -> int array
(** The flat pool; read records through {!off}/{!clen}/{!coff}. *)

val off : t -> int -> int
(** Tuple offset in {!data} of the record at sorted rank [i]. *)

val clen : t -> int -> int
(** Contributor length of the record at sorted rank [i] (0 for none). *)

val coff : t -> int -> int
(** Contributor offset in {!data} of the record at sorted rank [i]
    (meaningless when [clen] is 0). *)

val equal_keys : t -> int -> int -> bool
(** Whether two sorted ranks carry the same permuted key. *)

val key : t -> int -> int array
(** Materializes the permuted key of sorted rank [i] into a fresh array
    — safe to hand to [Bptree.merge_sorted_slice] for adoption. *)

val clear : t -> unit
(** Drops all staged records, keeping the buffers. *)
