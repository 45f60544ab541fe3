(** DCDatalog — a parallel Datalog engine for shared-memory multicore
    machines.

    OCaml reproduction of Wu, Wang & Zaniolo,
    "Optimizing Parallel Recursive Datalog Evaluation on Multicore
    Machines" (SIGMOD 2022).

    {1 Quick start}

    {[
      let program = "tc(X, Y) <- arc(X, Y).  tc(X, Y) <- tc(X, Z), arc(Z, Y)." in
      let prepared = Result.get_ok (Dcdatalog.prepare program) in
      let edb = [ ("arc", Dcdatalog.tuples [ [1; 2]; [2; 3] ]) ] in
      let result = Dcdatalog.run prepared ~edb () in
      Dcdatalog.relation result "tc"   (* [(1,2); (1,3); (2,3)] *)
    ]}

    The engine supports linear, non-linear and mutual recursion, the
    monotone aggregates min/max/count/sum inside recursion, stratified
    negation outside recursion, and three parallel coordination
    strategies — [Global] barriers, stale-synchronous [Ssp], and the
    paper's dynamic weight-based strategy [Dws] (the default).

    {1 Submodules}

    The full machinery is re-exported for power users: [Ast]/[Parser]/
    [Analysis]/[Pcg] (front end), [Logical]/[Physical] (planner),
    [Parallel]/[Naive]/[Coord]/[Run_stats] (engines), and the
    [Graph]/[Gen]/[Queries]/[Datasets] workload kit. *)

module Ast = Dcd_datalog.Ast
module Parser = Dcd_datalog.Parser
module Analysis = Dcd_datalog.Analysis
module Pcg = Dcd_datalog.Pcg
module Logical = Dcd_planner.Logical
module Physical = Dcd_planner.Physical
module Coord = Dcd_engine.Coord
module Parallel = Dcd_engine.Parallel
module Engine_error = Dcd_engine.Engine_error
module Cancel = Dcd_concurrent.Cancel
module Fault = Dcd_concurrent.Fault
module Naive = Dcd_engine.Naive
module Run_stats = Dcd_engine.Run_stats
module Catalog = Dcd_engine.Catalog
module Rec_store = Dcd_engine.Rec_store
module Graph = Dcd_workload.Graph
module Gen = Dcd_workload.Gen
module Queries = Dcd_workload.Queries
module Datasets = Dcd_workload.Datasets
module Loader = Dcd_workload.Loader
module Tuple = Dcd_storage.Tuple
module Relation = Dcd_storage.Relation
module Vec = Dcd_util.Vec
module Maintain = Dcd_engine.Maintain
module Snapshot = Dcd_storage.Snapshot

module Session = Session
(** The resident serving runtime: open once, query and update many
    times (see {!Session.open_session} and {!open_session}). *)

type prepared = {
  source : string;
  info : Analysis.info;
  plan : Physical.t;
}

type config = Parallel.config = {
  workers : int;
  strategy : Coord.t;
  optimized_stores : bool;
      (** Table 4's switch for the §6.2 aggregate-store optimizations,
          the B⁺-tree group index and the existence cache together
          (default [true]) *)
  partial_agg : bool;
  max_iterations : int;
  exchange : Parallel.exchange;
  steal : bool; (** morsel-driven work stealing (default [true]) *)
  morsel_tuples : int; (** scan tuples per stealable morsel (default 2048) *)
  coord : Coord.config;
  fault : Fault.spec option;
  checkpoint_every : int;
      (** cut a crash-recovery epoch every [n] fixpoint iterations
          ([0] = off); under SSP/DWS, once every active worker has run
          [n] iterations since the last cut *)
  max_recoveries : int;
      (** worker crashes one run may recover from by rolling back to
          the last epoch and re-running ([0] = fail fast) *)
  maintain_workers : int;
      (** workers for incremental-maintenance delta joins in a
          {!Session} ([0] = same as [workers], [1] = inline on the
          coordinator) *)
}

val default_config : config

val prepare :
  ?params:(string * int) list ->
  ?generic_join:[ `Auto | `Off | `Force ] ->
  string ->
  (prepared, string) result
(** Parses, analyzes and compiles a Datalog program.  [params] binds
    symbolic constants (e.g. [("start", 42)] for the SSSP query) at
    plan time.  [generic_join] controls whether eligible rule bodies
    compile to the worst-case-optimal multiway join instead of a binary
    lookup chain: [`Auto] (default) uses it only for cyclic bodies,
    [`Off] never, [`Force] for every eligible body (see
    {!Physical.compile}). *)

val run :
  prepared ->
  edb:(string * Tuple.t Vec.t) list ->
  ?config:config ->
  unit ->
  Parallel.result
(** Evaluates to the global fixpoint and returns the materialized
    relations plus execution statistics.
    @raise Engine_error.Error on cancellation, worker crash, or a
    watchdog-detected stall (see {!Engine_error.t}); use {!try_run} for
    the exception-free variant. *)

val try_run :
  prepared ->
  edb:(string * Tuple.t Vec.t) list ->
  ?config:config ->
  unit ->
  (Parallel.result, Engine_error.t) result
(** Like {!run}, but returns runtime failures — [Cancelled],
    [Worker_crashed], [Stalled] — as a structured [Error] instead of
    raising. *)

val query :
  ?params:(string * int) list ->
  ?generic_join:[ `Auto | `Off | `Force ] ->
  ?config:config ->
  string ->
  edb:(string * Tuple.t Vec.t) list ->
  (Parallel.result, string) result
(** One-shot [prepare] + [run]. *)

val relation : Parallel.result -> string -> int list list
(** Tuples of a result relation as sorted lists (empty when absent) —
    convenient for tests and small outputs.  For bulk access use
    {!Parallel.relation_vec}. *)

val relation_count : Parallel.result -> string -> int

val tuples : int list list -> Tuple.t Vec.t
(** EDB construction helper. *)

val open_session :
  prepared ->
  edb:(string * Tuple.t Vec.t) list ->
  ?config:config ->
  unit ->
  Session.t
(** Runs the initial fixpoint and keeps it resident: the returned
    session serves wait-free snapshot reads and maintains the fixpoint
    incrementally under {!Session.apply_batch} update batches, on a
    persistent worker pool, until {!Session.close}. *)

val explain : prepared -> string
(** The physical plan: strata, partition routes, join methods. *)

val pcg_string : prepared -> root:string -> string
(** The AND/OR tree (predicate connection graph) rooted at [root]. *)
