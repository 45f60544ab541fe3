open Dcd_datalog

(** Physical plans (paper §5.2), the only rule-body compiler: the
    engine's plans ({!compile}) and the incremental-maintenance kernels
    ({!compile_scan}) both come from here.

    A compiled rule is a register machine: the scan binds registers from
    each delta (or base) tuple, each step refines the binding, and the
    head projects registers into an output tuple handed to the
    Distribute operator.  The Distribute/Gather operators themselves
    live in the execution engine; the plan records everything they need:
    the partition routes of every recursive predicate and the aggregate
    specification of every head.

    Symbolic constants are resolved at compile time — either to a
    runtime parameter (e.g. [start] for SSSP) or to an interned symbol
    id — so the hot loop never touches strings. *)

type src =
  | Const of int
  | Reg of int

(** Paper §5.2.1's three join implementations.  [Hash] and [Index] both
    execute as slot-index lookups (on the shared base relation, or on
    the worker's partition of a recursive set relation; an aggregate
    partition answers through its B⁺-tree); the label records which
    heuristic case fired, and [Nested_loop] scans the whole relation
    with residual checks. *)
type join_method =
  | Hash
  | Index
  | Nested_loop

type rel_ref =
  | R_base of string (** EDB or completed lower stratum: shared, read-only *)
  | R_rec of {
      pred : string;
      route : int array; (** which partitioned copy to consult *)
    }

type code =
  | C_const of int
  | C_reg of int
  | C_bin of Ast.binop * code * code
  | C_neg of code

type lookup = {
  rel : rel_ref;
  method_ : join_method;
  key_cols : int array; (** columns forming the lookup key *)
  key_src : src array; (** value feeding each key column *)
  binds : (int * int) array; (** (column, register) to bind on match *)
  checks : (int * src) array; (** residual equality predicates *)
  negated : bool; (** anti-join: succeed iff no match *)
  pos : int; (** the atom's position in the rule body *)
}

type step =
  | Lookup of lookup
  | Filter of {
      op : Ast.cmp_op;
      lhs : code;
      rhs : code;
    }
  | Compute of {
      reg : int;
      code : code;
    }

type scan_spec =
  | S_base of {
      pred : string;
      binds : (int * int) array;
      checks : (int * src) array;
    }
  | S_delta of {
      pred : string;
      route : int array; (** the copy whose owned delta this variant scans *)
      binds : (int * int) array;
      checks : (int * src) array;
    }
  | S_unit

type head = {
  hpred : string;
  args : src array; (** full head tuple, including the aggregate position *)
  agg : (int * Ast.agg_kind * src array) option;
      (** (value position, kind, contributor sources) *)
}

(** {2 Generic (worst-case-optimal) join}

    Selected when the rule body is join-graph cyclic (see
    {!Logical.body_cyclic}) and every non-scan atom is a base or
    lower-stratum relation: each such atom becomes a trie iterator over
    a sorted index whose column order is the scan-bound prefix followed
    by the eliminated variables in elimination order, and the engine
    resolves one variable per level by leapfrog intersection.  Recursive
    non-scan atoms keep the binary pipeline — their stores are
    route-permuted per partition and mutate every iteration, so no
    shared trie in elimination order exists for them. *)

type gj_atom = {
  ga_pred : string; (** base / lower-stratum relation *)
  ga_cols : int array; (** trie column order (a full permutation) *)
  ga_prefix : src array; (** sources filling the leading bound columns *)
}

type gj_level = {
  gv_reg : int; (** register receiving this level's variable *)
  gv_atoms : (int * int) array;
      (** (atom index, probe depth): probe the atom's first [depth] trie
          columns; the candidate value lives at slot [depth - 1] *)
  gv_steps : step array; (** residual steps runnable once this binds *)
}

type gj = {
  gj_atoms : gj_atom array;
  gj_prelude : step array; (** runnable from the scan bindings alone *)
  gj_levels : gj_level array;
  gj_elim : string list; (** elimination order, for explain *)
}

type compiled_rule = {
  source : Ast.rule;
  logical : string; (** rendering of the ordered logical pipeline *)
  nregs : int;
  scan : scan_spec;
  steps : step array; (** binary pipeline; [[||]] when [gj] is chosen *)
  gj : gj option; (** the generic-join body, when selected *)
  head : head;
}

type pred_plan = {
  pred : string;
  arity : int;
  agg : (int * Ast.agg_kind) option;
  routes : int array list; (** partitioned copies to maintain; head tuples
                               are distributed under every route *)
}

type stratum_plan = {
  stratum : Analysis.stratum;
  pred_plans : pred_plan list;
  init_rules : compiled_rule list; (** base rules, evaluated once *)
  delta_rules : compiled_rule list; (** one per (rule, recursive occurrence) *)
}

type t = {
  info : Analysis.info;
  symbols : Dcd_util.Symbol.table;
  params : (string * int) list;
  strata : stratum_plan list;
}

val compile :
  ?params:(string * int) list ->
  ?generic_join:[ `Auto | `Off | `Force ] ->
  Analysis.info ->
  (t, string) result
(** Orders every rule body (via {!Logical.order}), allocates registers,
    selects join methods, and derives the partition routes of each
    recursive predicate.  Fails with a message when a body cannot be
    ordered or a recursive lookup's key cannot be colocated with the
    scanned delta (a documented engine limitation).

    [generic_join] controls the worst-case-optimal path: [`Auto]
    (default) selects it for join-graph-cyclic, eligible bodies; [`Off]
    disables it; [`Force] selects it for every eligible body regardless
    of cyclicity (benchmarking and differential testing — e.g. SG's
    chain-shaped recursive body is acyclic but still profits when the
    binary plan's intermediate explodes). *)

val compile_scan :
  ?bind_extra:bool ->
  t ->
  Analysis.stratum ->
  Ast.rule ->
  Logical.scan_at ->
  sizes:(string -> int) ->
  (compiled_rule, string) result
(** One rule of a stratum of [t], ordered by {!Logical.order_at} for
    the given scan with [sizes] breaking score ties, and compiled with
    [t]'s symbols and params.  There are no partitioned copies: the
    scan is an [S_base] over the scanned atom's (or the head's)
    relation, every positive atom a keyed [R_base] lookup over its
    whole relation, and there is no generic join.  [bind_extra] binds
    the scanned row's first column past the tuple to one more register,
    the last.  This is how incremental maintenance compiles its
    kernels. *)

val eval_code : code -> int array -> int
(** Evaluates compiled arithmetic against a register file.  Division and
    modulo by zero raise [Division_by_zero]. *)

val eval_cmp : Ast.cmp_op -> int -> int -> bool

val iter_lookups : compiled_rule -> (lookup -> unit) -> unit
(** Every lookup step of a rule: its pipeline, or its generic-join
    prelude and levels. *)

val explain : t -> string
(** Human-readable plan: strata, routes, and each rule's pipeline with
    join methods. *)

val to_dot : t -> string
(** Graphviz rendering of the physical plan — the analog of the paper's
    Figures 4 and 5: one cluster per stratum, one operator chain per
    compiled rule (scan → joins/filters/computes → Distribute/Gather),
    dashed edges for the inter-worker coordination performed by the
    Distribute and Gather operators.  Pipe into [dot -Tsvg]. *)
