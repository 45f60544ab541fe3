(** Deletable tuple table over flat storage, with stable slot ids.

    The one tuple store of the system: every {!Relation}, the
    incremental maintenance layer's visible sets, supports and
    per-batch deltas, the per-frame dedup of Distribute and the
    contributor sets of aggregate tables.  {!Slot_index} chains over its
    slots are its keyed indexes.

    Each key lives once, at a fixed stride, in an {!Arena}; an
    open-addressed probe table with backward-shift deletion maps a key
    to its {e slot}.  A slot stays valid until its key is removed, a
    freed slot is reused by the next insertion, and the slots of a
    table are always below {!slots}, so callers keep per-slot data in
    their own int arrays indexed by slot id.

    Each slot may also carry [extra] int columns stored right after the
    key ({!get}/{!set}), so a key and its counters share one cache
    line, and a scan over the arena sees [key ++ columns] rows.

    Nothing here allocates per tuple: the [_slice] entry points hash
    and compare straight out of the caller's flat buffer.  Lookups
    ({!find_slice}, {!live}, {!data}) do not mutate, so any number of
    domains may read a table while nobody writes it. *)

type slot = int

type t

val create : ?capacity:int -> ?extra:int -> arity:int -> unit -> t
(** [capacity] is a key-count hint: that many keys fit without growing
    the arena or the probe table.  [extra] (default 0) is the number of
    int columns each slot carries after its key.
    @raise Invalid_argument if [arity] or [extra] is negative. *)

val arity : t -> int

val stride : t -> int
(** Ints per slot in {!data}: [max 1 (arity + extra)]. *)

val length : t -> int
(** Number of live keys. *)

val slots : t -> int
(** One past the highest slot ever handed out since the last {!clear}:
    every live slot is below it, freed slots may be too. *)

val capacity : t -> int
(** Slots the arena holds before it grows; caller arrays of this length
    cover every slot the table can hand out until then. *)

val reserve : t -> int -> unit
(** [reserve t n] grows the arena and probe table once so that [n] keys
    fit without further growth. *)

val arena : t -> Arena.t
(** The backing arena (arity {!stride}); its rows [0, slots t) include
    freed slots, which {!live} tells apart. *)

val data : t -> int array
(** The arena's buffer: slot [s]'s key starts at [offset t s].  Valid
    until the next insertion. *)

val offset : t -> slot -> int

val live : t -> slot -> bool
(** Whether [s] currently holds a key. *)

val find_slice : t -> int array -> int -> slot
(** [find_slice t src off] is the slot of the key stored flat at
    [src.(off .. off + arity - 1)], or [-1]. *)

val find : t -> Tuple.t -> slot
(** @raise Invalid_argument on arity mismatch. *)

val mem_slice : t -> int array -> int -> bool

val add_slice : t -> int array -> int -> slot
(** The key's slot, inserting it first if absent (a fresh slot's extra
    columns are 0).  May grow the arena: re-read {!data} afterwards. *)

val add : t -> Tuple.t -> slot

val remove_slice : t -> int array -> int -> slot
(** Removes the key if present and returns the slot it had, else [-1]. *)

val remove_slot : t -> slot -> unit
(** @raise Invalid_argument unless the slot is live. *)

val get : t -> slot -> int -> int
(** [get t s c] is extra column [c] of slot [s]. *)

val set : t -> slot -> int -> int -> unit

val key : t -> slot -> Tuple.t
(** A boxed copy of the slot's key — API edges only. *)

val iter : t -> (slot -> unit) -> unit
(** Live slots in ascending slot order.  [f] must not insert. *)

val iter_slices : t -> (int array -> int -> unit) -> unit
(** [f data off] per live slot, ascending; the row is the key followed
    by the extra columns.  [f] must not insert. *)

val clear : t -> unit
(** Removes every key; capacity is retained. *)

val words : t -> int
(** Words held by the table's arrays, from their lengths. *)
