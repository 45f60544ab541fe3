(** Packed exchange frame: one flush's worth of delta tuples for one
    (copy, destination), in a single flat [int array].

    The cross-worker exchange of the paper's §6.1 ships these as whole
    messages: the producer packs tuples (and, for count/sum copies,
    their contributor keys) back to back, pushes the frame as one queue
    element, and the consumer folds it in record by record via {!iter}
    — no per-tuple heap object crosses the fabric.

    Plain frames ([contrib = false]) store records at a fixed stride of
    [arity] ints; contributor frames append [clen; contributor...]
    after each tuple's fields.  A frame is owned by one domain at a
    time: the producer gives up ownership when it enqueues the frame. *)

type t

val create : ?capacity:int -> arity:int -> contrib:bool -> unit -> t
(** [capacity] is a record-count hint. *)

val data : t -> int array
(** The backing buffer (for reading records at offsets previously
    handed out by {!iter}); valid until the next push. *)

val count : t -> int
(** Number of records. *)

val words : t -> int
(** Payload size in ints (fields plus contributor prefixes) — the
    exchange-traffic denomination used by the per-worker [words_sent]
    statistic. *)

val is_empty : t -> bool

val push : t -> int array -> int array -> unit
(** [push t tuple contributor] packs one record; both arrays are copied
    (they may be scratch).  [contributor] must be [[||]] for plain
    frames.  @raise Invalid_argument otherwise. *)

val push_slice : t -> int array -> toff:int -> clen:int -> coff:int -> unit
(** Re-packs one record read out of another frame's buffer (as handed
    to an {!iter} callback). *)

val iter : t -> (int array -> toff:int -> clen:int -> coff:int -> unit) -> unit
(** [iter t f] calls [f data ~toff ~clen ~coff] per record: the tuple's
    fields are [data.(toff .. toff+arity-1)], its contributor key
    [data.(coff .. coff+clen-1)] ([clen = 0] for none). *)

val clear : t -> unit
