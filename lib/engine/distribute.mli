(** One worker's distribution side: per-(copy, destination) outgoing
    frames, the emit closures the join kernel writes through, and the
    flush path — with optional partial aggregation (min/max pre-combine
    per group) and per-frame set dedup (paper §5.2.3) — into the
    {!Exchange} fabric.  Local delivery is the one shortcut: a tuple the
    worker's own pipelines route to the worker itself, for a set copy
    no rule looks up, folds straight into the worker's own store.

    Owned by exactly one worker; no synchronization inside (the only
    cross-worker effect is {!Exchange.send} at flush time). *)

type t

val create :
  exch:Exchange.t ->
  me:int ->
  h:Dcd_storage.Partition.t ->
  partial_agg:bool ->
  stores:Rec_store.t array ->
  ws:Run_stats.worker ->
  t
(** [stores] is worker [me]'s own store row (by copy id), the target of
    local delivery; [ws] receives the send and local-delivery counters. *)

val emitter :
  t ->
  targets:int array ->
  local:bool ->
  (tuple:Dcd_storage.Tuple.t -> contributor:Dcd_storage.Tuple.t -> unit)
(** The emit closure for one rule head: partitions the tuple under each
    target copy's route and appends it to the matching outgoing frame.
    [targets] is the head predicate's copy-id array, resolved once at
    rule-compile time; the single-target case is specialized to a
    straight array-indexed push (no list traversal, no allocation).

    With [local] (the worker's own pipelines), a single-target head
    whose copy has [ci_local] (a set copy no rule looks up) folds a
    tuple whose destination is [me] into [stores] at once with
    {!Rec_store.stage_slice} and counts it in [tuples_local], never
    sent: the next {!Worker.drain_and_merge} reports it into the
    deltas.  A multi-copy head ships every copy.  Steal
    pipelines pass [~local:false] and ship everything, tuples routed to
    the thief included: a thief may be Termination-inactive, and a fold
    it kept privately would be invisible to the quiescence check. *)

val flush : t -> unit
(** Ships every non-empty outgoing frame to its destination, applying
    partial aggregation / set dedup per frame when enabled.  Local
    folds never pass through here. *)
