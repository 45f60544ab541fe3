(** The DWS queueing model (paper §4.2, Equations 1 and 2).

    Each worker [W_i] models itself as a G/G/1 queue: tuples arrive from
    the message buffers [M_i^j] and are serviced by local computation.
    From live statistics — per-producer mean arrival rate [λ_j] and
    inter-arrival variance [σ²_{a,j}], plus the worker's own service
    rate [μ] and variance [σ²_s] — Equation 1 combines the per-buffer
    arrival processes (weighted by buffer occupancy [|M_i^j|]) and
    Kingman's formula (Equation 2) estimates the steady-state queue
    length [L_q]:

    {v Lq ≈ ρ²(C_a² + C_s²) / (2(1 − ρ)) v}

    with [ρ = λ/μ], [C_a² = λ²σ_a²], [C_s² = μ²σ_s²].  The decision
    threshold is [ω_i = L_q] and the wait budget [τ_i = L_q / λ] (the
    mean queue wait).  When the system is unstable ([ρ ≥ 1] — tuples
    arrive faster than they can be processed) waiting is pointless and
    the model returns [ω = 0].

    One [t] belongs to one worker; not thread-safe. *)

type t

val create : producers:int -> unit -> t
(** [producers] is the number of peer workers feeding this one. *)

val record_arrival : t -> from:int -> now:float -> count:int -> unit
(** Notes that [count] tuples from producer [from] were observed at time
    [now]; updates that buffer's inter-arrival statistics. *)

val record_service : t -> tuples:int -> elapsed:float -> unit
(** Notes that one local iteration processed [tuples] delta tuples in
    [elapsed] seconds. *)

type decision = {
  omega : float; (** ω_i: proceed when the pending delta is at least this *)
  tau : float; (** τ_i: maximum seconds to wait for more tuples *)
  rho : float; (** utilization, for diagnostics *)
}

val decide : ?stealable:bool -> t -> buffer_sizes:int array -> decision
(** Evaluates Equations 1–2 against the current statistics.  With no
    statistics yet (cold start), returns [omega = 0] so workers never
    stall before the model has data.  [stealable] (default [false])
    signals that the morsel board currently advertises stealable work:
    a wait pass is then productive rather than idle, so the wait budget
    [tau] is stretched (ω is unchanged — it prices batching efficiency,
    not idleness). *)

val decay : t -> float -> unit
(** Exponential forgetting of all statistics, to track phase changes of
    the fixpoint computation. *)
