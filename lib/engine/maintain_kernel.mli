(** Compiled rule pipelines for incremental maintenance: the only way
    {!Maintain} evaluates a rule body.  A [spec] is the same register
    machine {!Dcd_planner.Physical} compiles rules into, but with each
    body atom's iteration abstracted behind a closure the maintenance
    state supplies (its flat tables carry per-batch Old/Cur visibility
    the engine's relations know nothing about); the closures hand over
    candidates as [(data, off)] cursors into those tables.
    Binds, residual checks and key/head fills execute through the exact
    {!Kernel} monomorphic binder/checker/filler closures the one-shot
    engine uses.

    An [instance] owns mutable register/key/head buffers, so each
    maintenance worker gets its own; the atom-iteration closures inside
    the shared [spec] are read-only against the maintenance state and
    safe to share across domains {e provided} the state is frozen for
    the duration of a parallel round (lazy indexes and delete-overlays
    prewarmed, all mutation buffered and applied after the barrier —
    {!Maintain} enforces this). *)

open Dcd_planner

exception Stop
(** Raised by an emit closure to abandon the current scan tuple —
    the existence-check mode used by rederivation probes.
    {!run_row} converts it into a [true] return. *)

type iter = int array -> (int array -> int -> unit) -> unit
(** [iter key f] calls [f data off] for every candidate tuple matching
    the filled key buffer.  Must not retain [key] or mutate any shared
    state. *)

type step =
  | S_atom of {
      sa_key_src : Physical.src array;  (** sources filling the probe key *)
      sa_binds : (int * int) array;  (** (column, register) on match *)
      sa_checks : (int * Physical.src) array;  (** residual equalities *)
      sa_iter : iter;
    }
  | S_mem of {
      sm_key_src : Physical.src array;  (** the fully bound tuple *)
      sm_mem : int array -> bool;
      sm_negated : bool;
    }
  | S_filter of Dcd_datalog.Ast.cmp_op * Physical.code * Physical.code
  | S_compute of int * Physical.code

type spec = {
  sp_nregs : int;
  sp_scan_binds : (int * int) array;
  sp_scan_checks : (int * Physical.src) array;
  sp_steps : step list;
  sp_head : Physical.src array;
  sp_contrib : Physical.src array;  (** aggregate contributor sources *)
}

type instance

val instantiate : spec -> instance
(** Fresh register file and buffers; emit is initially a no-op.
    Division by zero inside a filter or assignment rejects the binding,
    exactly as the one-shot engine and the naive oracle do. *)

val regs : instance -> int array
(** The live register file — for phase-specific emit closures that need
    extra projections (e.g. DRed rank lookups). *)

val head : instance -> int array
(** The head scratch buffer, valid inside the emit closure.  Copy on
    retention. *)

val contrib : instance -> int array
(** The aggregate-contributor scratch buffer, likewise transient. *)

val set_emit : instance -> (unit -> unit) -> unit
(** Installs the emission continuation for the next run; it reads
    {!head}/{!contrib}/{!regs} and may raise {!Stop}. *)

val run_row : instance -> int array -> int -> bool
(** Feeds one scan tuple at [(data, off)] through the pipeline;
    [true] iff an emit raised {!Stop} (existence established). *)

val run_range : instance -> Dcd_storage.Tuple_table.t -> first:int -> len:int -> unit
(** Runs the live slots of a contiguous table slot range (one morsel)
    through the pipeline, each read in place. *)
