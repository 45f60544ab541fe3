(** Structured failures of the parallel runtime.

    Everything that aborts a fixpoint — a deadline, an external cancel,
    a crashed worker, a detected stall — surfaces as one [Error of t]
    exception carrying enough structure to act on: the faulting worker
    with its backtrace (and its poisoned peers, separated), or the
    watchdog's state snapshot at the moment progress stopped.  Raw
    worker exceptions never escape {!Parallel.run}. *)

type worker_snapshot = {
  ws_worker : int;
  ws_active : bool;  (** termination-protocol active flag *)
  ws_iterations : int;  (** local iterations completed *)
  ws_consumed : int;  (** tuples drained from its inbox *)
  ws_inbox_tuples : int;  (** occupancy |M_i^*| awaiting this worker *)
  ws_inbox_batches : int;  (** queue elements awaiting this worker *)
}

type stall_diagnostic = {
  stall_window : float;  (** seconds without progress before firing *)
  stall_strategy : string;
  stall_sent : int;  (** global sent counter at the snapshot *)
  stall_consumed : int;  (** sum of consumed counters at the snapshot *)
  stall_workers : worker_snapshot array;
}

type crash = {
  worker : int;
  error : exn;
  backtrace : string;
}

type t =
  | Cancelled of Dcd_concurrent.Cancel.reason
      (** the run was cancelled cooperatively (deadline or caller) *)
  | Worker_crashed of {
      worker : int;  (** the true origin: first worker whose body raised *)
      error : exn;
      backtrace : string;
      others : crash list;  (** further genuine crashes, if any *)
    }
  | Stalled of stall_diagnostic
      (** the watchdog saw no progress for its window *)

exception Error of t

val worker_crashed : Dcd_concurrent.Domain_pool.failure list -> t
(** The report of a crashed pool round: the first failure (lowest
    worker index) is the origin, the rest are [others].
    @raise Invalid_argument on an empty list. *)

val to_string : t -> string
(** One-line rendering (CLI stderr). *)

val pp_diagnostic : Format.formatter -> stall_diagnostic -> unit
(** Multi-line state snapshot dump. *)
