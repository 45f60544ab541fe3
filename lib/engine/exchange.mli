(** The delta-exchange fabric of one recursive stratum (paper §6.1).

    Owns everything workers share to move tuples: the copy table (one
    entry per (predicate, partition route) pair), the message queues —
    the paper's SPSC matrix [M_i^j] or the locked ablation — the
    tuple-denominated occupancy matrix the DWS queueing model reads, and
    the global-fixpoint termination counters.

    Tuples travel in {e batches}: each flush ships one {!batch} per
    (copy, destination) carrying every tuple produced for it, so the
    queue push and the termination-counter updates are amortized over
    the whole batch rather than paid per tuple.  Fixpoint detection
    stays tuple-denominated (a batch of [k] tuples bumps the sent
    counter by [k] in a single atomic add). *)

open Dcd_planner

(** [Spsc_exchange] is the paper's design (§6.1): a matrix of
    single-producer single-consumer queues maintained with atomics only.
    [Locked_exchange] is the coarse-grained alternative the paper argues
    against — one mutex-protected multi-producer queue per destination —
    kept so the claim can be measured as an ablation. *)
type kind =
  | Spsc_exchange
  | Locked_exchange

(** {1 Copy table} *)

type copy_info = {
  ci_pred : string;
  ci_route : int array;
  ci_arity : int;
  ci_agg : (int * Dcd_datalog.Ast.agg_kind) option;
  ci_probed : bool; (** some rule of the stratum looks this copy up *)
  ci_local : bool;
      (** a set copy no rule looks up: a worker's own pipelines fold the
          tuples a single-target head routes to that worker straight
          into its store ({!Distribute.emitter}) instead of shipping
          them here *)
}

val build_copies : Physical.stratum_plan -> copy_info array
(** One copy per (predicate, route), in plan order.  [ci_local] is
    derived here from the plan ([ci_agg = None] and not [ci_probed]);
    nothing else sets it. *)

val copy_id : copy_info array -> string -> int array -> int
(** Resolves a (pred, route) pair to its copy id by linear scan.  Only
    for setup/prepare time: the per-tuple path dispatches on the integer
    ids this returns. @raise Invalid_argument if absent. *)

val copies_of_pred : copy_info array -> string -> int list
(** All copy ids of one predicate, in table order (primary route first). *)

(** {1 Fabric} *)

(** One exchange message: every delta tuple one worker produced for one
    (copy, destination) in one flush, packed flat into a single frame.
    The producer gives up ownership on push. *)
type batch = {
  bcopy : int;
  bsrc : int;
  bframe : Dcd_concurrent.Frame.t;
}

type t

val create : workers:int -> kind:kind -> copies:copy_info array -> t

val workers : t -> int

val copies : t -> copy_info array

val contrib : t -> int -> bool
(** Whether a copy's frames carry a contributor suffix (count/sum). *)

val term : t -> Dcd_concurrent.Termination.t
(** The stratum's global-fixpoint counters. *)

val send : t -> ws:Run_stats.worker -> src:int -> dest:int -> copy:int -> Dcd_concurrent.Frame.t -> unit
(** Pushes one frame as a single batch: bumps the sent counter by the
    frame's tuple count, adds to the occupancy cell, updates [ws], then
    enqueues.  Ownership of the frame passes to the consumer. *)

val drain : t -> me:int -> drained_from:int array -> (batch -> unit) -> int
(** [drain t ~me ~drained_from consume] pops every currently visible
    batch addressed to [me] (FIFO per source), calls [consume] on each,
    fills [drained_from.(src)] with per-source tuple counts, subtracts
    the drained tuples from the occupancy matrix {e after} the drain,
    and returns the total tuple count.  Consumer side only; the caller
    owns the termination-counter update. *)

val reset : t -> unit
(** Recovery reset: discards every in-flight batch, zeroes the
    occupancy matrix, and resets the termination counters.  Sound only
    between rounds with every worker collected, and only because
    rollback restores {e all} workers to the same committed epoch — the
    senders of the discarded batches re-run from the cut and regenerate
    them. *)

val inbox_sizes : t -> dest:int -> int array
(** Per-source occupancy snapshot |M_dest^j| (tuples), for
    {!Qmodel.decide}. *)

val inbox_tuples : t -> dest:int -> int

val inbox_batches : t -> dest:int -> int
