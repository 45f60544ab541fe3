open Dcd_datalog

(** Logical planning: ordering a rule body into a left-deep pipeline
    (paper §5.1).  This is the only rule-body orderer: the engine's
    plans and every incremental-maintenance kernel come from it.

    The optimizations applied here are the ones the paper calls out:
    - the recursive (delta) occurrence is moved to the leftmost, outer
      position of the join so the indexes on the other relations drive
      the lookups;
    - selections (comparison literals) are pushed down to the earliest
      point at which their variables are bound;
    - assignments ([X = expr] with [X] unbound) are placed as soon as
      their inputs are available;
    - remaining atoms are ordered greedily by the number of bound
      argument positions, i.e. most selective index access first.

    Incremental maintenance scans other things than a delta: any body
    atom (a delta table of a lower or the same stratum), the head
    (rederivation probes) or nothing (full evaluation), and breaks
    score ties toward the smaller relation ({!order_at}). *)

type scan_kind =
  | Scan_base of Ast.atom (** full scan of a base / lower-stratum relation *)
  | Scan_delta of {
      atom : Ast.atom;
      occurrence : int; (** which recursive body occurrence is the delta *)
    }
  | Scan_head
      (** head-bound probe: the scanned rows are head tuples, which bind
          the head's plain terms; every body atom is joined *)
  | Scan_unit (** nothing scanned: every body atom is joined *)

type pipe_elem =
  | L_join of {
      atom : Ast.atom;
      recursive : bool; (** same-stratum predicate: looked up in the local
                            partitioned copy rather than a shared base index *)
      pos : int; (** the atom's position in the rule body *)
    }
  | L_neg of {
      atom : Ast.atom;
      pos : int;
    }
  | L_filter of Ast.cmp_op * Ast.expr * Ast.expr
  | L_assign of string * Ast.expr

type rule_pipeline = {
  rule : Ast.rule;
  scan : scan_kind;
  pipeline : pipe_elem list;
}

(** What a pipeline scans.  Body positions index the rule's literal
    list. *)
type scan_at =
  | At_atom of int (** the positive atom at this body position *)
  | At_head (** head tuples (rederivation probes) *)
  | At_nothing (** nothing: full evaluation *)

val order_at :
  ?sizes:(string -> int) ->
  Analysis.stratum ->
  Ast.rule ->
  scan_at ->
  (rule_pipeline, string) result
(** [order_at stratum rule at] linearizes the body around the scan
    [at].  A scanned same-stratum atom is a [Scan_delta] (its
    occurrence counts the same-stratum atoms before it), any other
    scanned atom a [Scan_base].  With [sizes] (relation sizes by
    predicate), a score tie between atoms goes to the smaller relation;
    without, to the atom written first.
    @raise Invalid_argument if [At_atom] names no positive atom. *)

val order :
  Analysis.stratum -> Ast.rule -> delta_occurrence:int option -> (rule_pipeline, string) result
(** [order stratum rule ~delta_occurrence] linearizes the body for the
    engine.  For a recursive rule, [delta_occurrence = Some k]
    designates the [k]-th recursive body atom (0-based, counting only
    same-stratum atoms) as the delta to scan; the semi-naive rewriting
    generates one pipeline per occurrence.  [None] treats the rule as a
    base rule: it scans the first lower-stratum atom, or nothing.  Ties
    go to the atom written first. *)

val recursive_occurrences : Analysis.stratum -> Ast.rule -> int
(** Number of same-stratum atoms in the body. *)

val body_cyclic : Ast.rule -> bool
(** Join-graph cycle check over the positive body atoms: GYO ear
    removal, i.e. alpha-acyclicity of the body hypergraph.  Cyclic
    bodies — triangles, clique patterns — are where binary join
    pipelines materialize doomed intermediates and the generic-join
    path is selected. *)

val elimination_order : bound:string list -> Ast.atom list -> string list
(** Greedy variable elimination order over [atoms] for the variables not
    in [bound]: highest atom-degree first, ties toward variables
    adjacent to bound ones, then name order (deterministic plans). *)

val pp : Format.formatter -> rule_pipeline -> unit
(** One-line rendering, e.g.
    [SCAN δcc2 ⋈ arc[X] → σ(...) → π cc2(Y, min<Z>)]. *)

val to_string : rule_pipeline -> string
