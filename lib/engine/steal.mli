(** The morsel board: intra-iteration work stealing under every
    coordination strategy.

    Each worker splits its delta scans and its init-scan share into
    fixed-size {e morsels} (contiguous slot ranges of a scan arena) and
    publishes them to its own Chase–Lev deque; an otherwise-idle peer —
    the DWS wait branch, the SSP staleness gate, the Global barrier
    tail, or a quiescence-backoff pass — steals from the most-loaded
    victim.

    Safety rests on two invariants, enforced by {!Worker}:

    - {e frozen-victim window}: between publishing morsels and the
      pending counter returning to zero, the owner mutates neither the
      recursive stores thieves read (the copies some rule looks up) nor
      the published arenas — its local deliveries touch only copies no
      rule looks up — so a thief may execute
      stolen morsels against pipelines bound to the {e victim's} stores
      (recursive lookups must probe the victim's partition — the
      discriminating hash put the matching tuples there) while emitting
      through its {e own} Distribute buffers and Exchange row (SPSC
      queues keep exactly one producer);
    - {e flush-before-complete}: a thief ships its emissions before
      {!complete}, and the victim stays Termination-active until its
      join finishes — so stolen emissions are always covered by an
      active worker and exact termination detection is preserved. *)

type kind =
  | Delta  (** a range of one worker's per-iteration delta arena *)
  | Init  (** a range of the stratum's shared init-scan arena *)

type morsel = {
  m_kind : kind;
  m_src : int;  (** publisher: whose stores execution must probe *)
  m_gid : int;  (** pipeline group index (per-kind) *)
  m_arena : Dcd_storage.Arena.t;
  m_first : int;
  m_len : int;
}

type t

val create : workers:int -> enabled:bool -> morsel_tuples:int -> t
(** Stealing is forced off for a single worker regardless of [enabled]. *)

val enabled : t -> bool

val morsel_tuples : t -> int

val publish_range :
  t -> me:int -> kind:kind -> gid:int -> arena:Dcd_storage.Arena.t -> first:int -> len:int -> unit
(** Owner only: splits the range into morsels on [me]'s deque, bumping
    [me]'s pending count per morsel (before publication) and the
    published-tuple estimate. *)

val pop_own : t -> me:int -> morsel option
(** Owner only: LIFO-pop one of [me]'s own morsels.  The caller must
    execute it and then {!complete} it. *)

val try_claim : t -> me:int -> morsel option
(** Steal one morsel from the most-loaded other worker (by published
    tuples), falling back to any non-empty peer.  [None] when nothing
    is stealable right now.  The caller must execute the morsel, flush
    its emissions, and only then {!complete} it. *)

val complete : t -> morsel -> unit
(** Releases one executed morsel back to its publisher's join.  Call
    only after every emission the morsel produced has been flushed to
    the exchange. *)

val pending : t -> me:int -> int
(** Outstanding (published but not completed) morsels of [me] — the
    owner's join condition. *)

val stealable : t -> me:int -> bool
(** Whether any other worker currently advertises stealable tuples
    (advisory; feeds the queueing model's wait decision). *)

val reset : t -> unit
(** Recovery reset: abandons every published morsel and zeroes the
    pending/published counters (a crashed round can orphan morsels with
    no executor left).  Between rounds only. *)
