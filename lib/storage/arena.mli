(** Fixed-stride flat tuple arena.

    One growable [int array] holds tuples of arity [k] back to back at
    stride [k]: a per-iteration delta, a worker's scan stripe, or the
    slots of a {!Tuple_table}.  A tuple is named by its [slot] — its
    insertion index — and its fields live at
    [data t .((slot * k) + c)].  Nothing on the hot path materializes
    a boxed [int array] per tuple: the join kernel binds registers
    through an offset cursor, tuple tables hash and compare keys
    straight out of the arena, and a packed delta frame is absorbed
    with a single {!append_block} blit.

    Invariants:
    - slots are stable: tuples are only appended (or overwritten in
      place via {!set_slot}); [clear] invalidates all slots at once;
    - [data t] is only valid until the next growth — re-read it after
      any push when holding it across calls;
    - arity-0 arenas are legal (every slot starts at 0; only [length]
      distinguishes tuples). *)

type slot = int

type t

val create : ?capacity:int -> arity:int -> unit -> t
(** [capacity] is a tuple-count hint.  @raise Invalid_argument if
    [arity < 0]. *)

val arity : t -> int

val length : t -> int
(** Number of tuples. *)

val is_empty : t -> bool

val data : t -> int array
(** The backing buffer; valid until the next growth. *)

val capacity : t -> int
(** Tuples the backing buffer holds before the next growth. *)

val reserve : t -> int -> unit
(** [reserve t n] grows the buffer once so that [n] tuples fit. *)

val alloc : t -> slot
(** Appends one tuple slot without writing it (its fields hold whatever
    the buffer held) and returns it; the caller fills it through
    {!data}. *)

val push : t -> Tuple.t -> slot
(** Copies a boxed tuple in; returns its slot.
    @raise Invalid_argument on arity mismatch. *)

val push_slice : t -> int array -> int -> slot
(** [push_slice t src off] copies [arity t] ints from [src.(off)] in. *)

val append_block : t -> int array -> off:int -> tuples:int -> slot
(** Appends [tuples] consecutive tuples from a flat source buffer with
    one blit; returns the first new slot. *)

val set_slot : t -> slot -> int array -> int -> unit
(** [set_slot t slot src off] overwrites a tuple in place with [arity t]
    ints from [src.(off)] (delta-group replacement). *)

val get : t -> slot -> Tuple.t
(** Materializes a boxed copy — API edges only. *)

val read : t -> slot -> int -> int
(** [read t slot col] is field [col] of the tuple at [slot]. *)

val iter_slices : t -> (int array -> int -> unit) -> unit
(** [iter_slices t f] calls [f data off] for every tuple, in slot
    order.  [f] must not push into [t] (growth would invalidate
    [data]). *)

val clear : t -> unit

val truncate : t -> count:int -> unit
(** [truncate t ~count] rolls the arena back to its first [count]
    tuples: the surviving prefix keeps its slots, later slots become
    invalid, capacity is retained.  This is the storage half of a
    checkpoint rollback — a watermark recorded at a quiescent point is
    simply [length t].  @raise Invalid_argument unless
    [0 <= count <= length t]. *)
