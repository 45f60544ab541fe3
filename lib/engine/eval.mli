(** Execution of one compiled rule over a batch of scan tuples.

    This is the operator pipeline of the physical plan (paper §5.2):
    the scan binds registers from each input tuple, [Lookup] steps probe
    shared base indexes or the worker's partitioned recursive stores,
    [Filter]/[Compute] steps evaluate compiled arithmetic, and every
    complete binding is projected through the head and handed to [emit]
    (the entry point of the Distribute operator).  Rules compiled to a
    {!Physical.gj} plan replace the lookup chain with a leapfrog
    multiway intersection over sorted base indexes, one level per
    variable in the elimination order.

    Tuples flow through the pipeline as [(data, off)] cursors into flat
    storage — the delta arena being scanned, a base relation's tuple
    table, a packed exchange frame — so the per-tuple path touches no
    boxed tuple at all.  A boxed tuple is the degenerate cursor [(tup, 0)].

    Rules are {!prepare}d against a context once and then run many
    times: preparation resolves every recursive lookup to an integer
    copy id ({!context.rec_resolve}) and every indexed base lookup to
    its concrete slot index, and allocates the register file, the
    per-step lookup-key scratch buffers and the head/contributor
    emission buffers.  The per-tuple path therefore performs no string
    comparison and no allocation; scratch buffers are reused across
    probes and emissions, which is sound because every consumer either
    uses them transiently or copies on retention.

    Pure with respect to shared state: base relations are only read, and
    recursive lookups go through the caller-supplied callback so each
    worker only ever touches its own stores.  A [prepared] value owns
    mutable scratch state: it belongs to one worker and must not be run
    reentrantly. *)

open Dcd_planner

type context = {
  base_iter : string -> (int array -> int -> unit) -> unit;
      (** full scan of a shared base / lower-stratum relation; the
          callback receives [(data, off)] slices valid only during the
          call *)
  base_index : string -> int array -> Dcd_storage.Slot_index.t;
      (** prebuilt shared slot index on the given key columns *)
  base_sorted : string -> int array -> unit Dcd_btree.Bptree.t;
      (** prebuilt shared sorted (trie) index whose keys are the
          relation's tuples permuted to the given column order; probed
          by generic-join pipelines with prefix seeks.  Read-only during
          evaluation. *)
  rec_resolve : pred:string -> route:int array -> int;
      (** called once per recursive lookup at prepare time: the integer
          id under which {!rec_matches} will be probed *)
  rec_matches : int -> key:int array -> (int array -> int -> unit) -> unit;
      (** matches in this worker's copy [cid] of a recursive relation;
          [key] is a scratch buffer valid only during the call, and the
          matched slices likewise *)
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
