(** Coordination strategies for parallel semi-naive evaluation (paper §4).

    - [Global]: Algorithm 1 — a barrier after every global iteration.
      This is the DeALS-MC-style baseline; fast workers idle at the
      barrier until the slowest finishes.
    - [Ssp s]: the stale-synchronous extension — a worker may run up to
      [s] local iterations ahead of the slowest active worker before
      blocking.
    - [Dws]: the paper's contribution (Algorithm 2) — no global
      coordination at all; each worker decides locally, from the
      queueing model ({!Qmodel}), whether to wait up to [τ_i] for its
      pending delta to reach [ω_i] tuples or to proceed immediately. *)

type t =
  | Global
  | Ssp of int
  | Dws

val dws_tau_cap : float
(** Algorithm 2's deadlock-avoidance timeout (line 7): the cap on a
    single DWS wait, 10 ms.  The engine's strategy loop and the
    simulator both apply it. *)

(** Run-guard configuration: cooperative cancellation and the stall
    watchdog.  The strategy loops poll the (internal or caller-supplied)
    {!Dcd_concurrent.Cancel} token once per local iteration, so any of
    these knobs aborts the fixpoint cleanly — barrier poisoned, queues
    abandoned, a structured {!Engine_error.t} raised — rather than
    leaving domains running. *)
type config = {
  timeout : float option;
      (** wall-clock budget for the whole run, seconds; on expiry the
          run raises [Cancelled Deadline] *)
  cancel : Dcd_concurrent.Cancel.t option;
      (** caller-owned token; cancel it from any thread to abort *)
  stall_window : float option;
      (** arm the watchdog: if no worker makes progress (heartbeats,
          tuples exchanged, iterations) for this many seconds, the run
          is torn down with [Stalled] and a state snapshot.  Must
          comfortably exceed the longest single rule×delta evaluation,
          which cannot be interrupted mid-flight. *)
}

val default_config : config
(** No timeout, no external token, watchdog off. *)

val to_string : t -> string
