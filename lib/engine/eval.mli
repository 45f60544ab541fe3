(** Execution of one compiled rule over a batch of scan tuples.

    This is the operator pipeline of the physical plan (paper §5.2):
    the scan binds registers from each input tuple, [Lookup] steps probe
    shared base indexes or the worker's partitioned recursive stores,
    [Filter]/[Compute] steps evaluate compiled arithmetic, and every
    complete binding is projected through the head and handed to [emit]
    (the entry point of the Distribute operator).  Rules compiled to a
    {!Physical.gj} plan replace the lookup chain with a leapfrog
    multiway intersection over sorted base indexes, one level per
    variable in the elimination order: each atom keeps a position in
    its {!Dcd_storage.Sorted_index} and gallops it forward.

    Tuples flow through the pipeline as [(data, off)] cursors into flat
    storage — the delta arena being scanned, a base relation's tuple
    table, a packed exchange frame — so the per-tuple path touches no
    boxed tuple at all.  A boxed tuple is the degenerate cursor [(tup, 0)].

    Rules are {!prepare}d against a context once and then run many
    times: preparation resolves every lookup, once, to an {!access}
    through {!context.lookup} — the engine resolves base lookups, and
    recursive lookups into a set relation, to their slot index (the
    worker's own partition of the recursive copy), a lookup into a
    sharded lower-stratum relation to its per-shard probe, and
    recursive lookups into an aggregate relation to its partition's
    iterator;
    incremental maintenance resolves each body position to its
    atom's Old- or Cur-visibility iterator or membership probe — and
    allocates the register file, the per-step lookup-key scratch
    buffers and the head/contributor emission buffers.  The per-tuple
    path therefore performs no string comparison and no allocation;
    scratch buffers are reused across probes and emissions, which is
    sound because every consumer either uses them transiently or copies
    on retention.  This module is the one builder of these closure
    chains; {!Kernel} holds their per-tuple primitives.

    Pure with respect to shared state: relations are only read, through
    accesses the caller resolves, so each engine worker only ever
    touches its own stores.  A [prepared] value owns mutable scratch
    state: it belongs to one worker and must not be run reentrantly. *)

open Dcd_planner

(** What one lookup reads, resolved once at prepare time.  Matches are
    [(data, off)] slices valid only during the callback. *)
type access =
  | Index of Dcd_storage.Slot_index.t
      (** a slot index on the lookup's key columns *)
  | Iter of (int array -> (int array -> int -> unit) -> unit)
      (** [iter key f] calls [f data off] on every tuple matching the
          filled key buffer (every tuple, for an empty key); must not
          retain [key] *)
  | Mem of (int array -> bool)
      (** membership of the filled key, which is the whole tuple *)

type context = {
  lookup : Physical.lookup -> access;
      (** called once per lookup step at prepare time *)
  base_sorted : string -> int array -> Dcd_storage.Sorted_index.t;
      (** prebuilt shared sorted (trie) index: the relation's slots
          sorted by the given column order; probed by generic-join
          pipelines with prefix seeks.  Read-only during evaluation. *)
}

type emit = tuple:Dcd_storage.Tuple.t -> contributor:Dcd_storage.Tuple.t -> unit
(** Both arrays are scratch buffers owned by the prepared rule and
    overwritten by the next emission — copy (or blit into flat storage)
    on retention.  [contributor] is [[||]] for non-aggregate heads. *)

type prepared
(** A rule compiled against a context and an emit sink: the closure
    chain plus its scratch buffers. *)

val prepare : Physical.compiled_rule -> context -> emit:emit -> prepared

val run_prepared :
  prepared ->
  scan:
    [ `Flat of Dcd_storage.Arena.t
    | `Flat_range of Dcd_storage.Arena.t * int * int
    | `Tuples of Dcd_storage.Tuple.t Dcd_util.Vec.t
    | `Unit ] ->
  int
(** Runs the rule over the given scan input ([`Unit] for bodies without
    positive atoms; [`Flat] scans an arena without boxing — the rule
    must not push into that same arena; [`Flat_range (a, first, len)]
    scans only the [len] tuples starting at slot [first] — the morsel
    form, same non-growth proviso) and returns the number of scan
    tuples processed.  Arithmetic faults (division by zero) silently
    drop the binding, per standard Datalog semantics for partial
    built-ins. *)

val run_row : prepared -> int array -> int -> unit
(** Runs one scan row at [(data, off)] through the pipeline: scan binds,
    scan checks, steps, emit.  The row may be wider than the scan's
    columns (a bind may read past them), and [[||], 0] feeds a
    unit-scan rule.  Exceptions raised by [emit] pass through, which is
    how a caller stops an existence probe at its first match. *)

val regs : prepared -> int array
(** The live register file, for emit continuations that read more than
    the head. *)

val run :
  Physical.compiled_rule ->
  context ->
  scan:
    [ `Flat of Dcd_storage.Arena.t
    | `Flat_range of Dcd_storage.Arena.t * int * int
    | `Tuples of Dcd_storage.Tuple.t Dcd_util.Vec.t
    | `Unit ] ->
  emit:emit ->
  int
(** [prepare] + [run_prepared] in one call, for one-shot evaluation. *)
