(** Unbounded single-producer single-consumer queue.

    A linked list of fixed-size chunks.  The producer owns the tail chunk
    and publishes elements by bumping the chunk's atomic committed count;
    the consumer owns the head chunk and follows [next] links once a full
    chunk is consumed.  Used for the DWS message buffers [M_i^j]
    (paper §6.1): delta batches can exceed any fixed ring capacity, and
    here a push can never fail, so a producing worker never blocks on a
    slow consumer (which would reintroduce the coordination stall DWS is
    designed to remove).

    The engine enqueues whole {e batches} (one element per
    (copy, destination) flush carrying a vector of tuples), not
    individual tuples, so {!size} counts batches; tuple-denominated
    occupancy for the queueing model is tracked by the engine
    separately. *)

type 'a t

val create : ?chunk:int -> unit -> 'a t
(** [chunk] is the chunk capacity (default 256). *)

val push : 'a t -> 'a -> unit
(** Producer only. Never fails. *)

val try_pop : 'a t -> 'a option
(** Consumer only. *)

val drain : 'a t -> ('a -> unit) -> int
(** Consumer only. Pops all currently visible elements in FIFO order and
    returns how many were consumed. *)

val size : 'a t -> int
(** Approximate occupancy (exact when producer and consumer are quiescent). *)

val is_empty : 'a t -> bool
