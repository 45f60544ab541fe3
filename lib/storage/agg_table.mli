(** Monotone aggregate relations (paper §6.2.1).

    An aggregate relation such as [cc2(Y, min⟨Z⟩)] stores, per group key
    [Y], the current best aggregate value.  Merging a candidate value is
    monotone: [min]/[max] only improve, [count]/[sum] only grow as new
    distinct contributions arrive (set semantics — a contribution is
    counted once, identified by its contributor key, which is how
    Datalog's [count⟨X⟩]/[sum⟨(Y,K)⟩] remain well-defined in recursion).

    Two backends implement the merge:
    - [Indexed] — the paper's optimized path: a B⁺-tree on the group key
      locates the current value in O(log n) and updates it in place.
    - [Scan] — the unoptimized baseline used in the Table 4 ablation:
      values live in an unsorted vector and merging a batch performs a
      linear pass over the whole table.

    The existence-check cache of §6.2.2 is layered on top by the engine
    (see {!Dcd_engine.Exist_cache}). *)

type kind =
  | Min
  | Max
  | Count
  | Sum

type backend =
  | Indexed
  | Scan

type t

val create : ?backend:backend -> kind:kind -> group_arity:int -> unit -> t

val kind : t -> kind

val group_arity : t -> int

val length : t -> int
(** Number of groups present. *)

val find : t -> Tuple.t -> int option
(** Current aggregate value for a group key, if any.  O(log n) for
    [Indexed], O(n) for [Scan]. *)

val merge : t -> group:Tuple.t -> ?contributor:Tuple.t -> int -> int option
(** [merge t ~group ?contributor v] folds candidate [v] into the group's
    aggregate.  For [Count], [contributor] identifies the contribution
    for set-semantics deduplication ([v] is ignored; each distinct
    contributor adds 1).  For [Sum], the table keeps the current partial
    value per (group, contributor) — the paper's first PageRank index —
    and a new value for an existing contributor adjusts the sum by the
    difference.  Returns [Some updated] when the stored aggregate
    changed (the value to emit into the delta), [None] when the
    candidate was absorbed.

    @raise Invalid_argument if [contributor] is missing for [Count]/[Sum]
    or supplied for [Min]/[Max]. *)

val normalize_candidate : t -> group:Tuple.t -> ?contributor:Tuple.t -> int -> int option
(** The contribution-dedup half of {!merge} alone: applies contributor
    set-semantics ([Count]) or partial-value replacement ([Sum]) and
    returns the additive/candidate value to fold into the group's
    aggregate, or [None] when the candidate is absorbed outright.
    [Min]/[Max] candidates pass through unchanged.  Mutates the
    contributor tables exactly like {!merge}; the caller owns applying
    the returned value (see {!apply_sorted}).

    @raise Invalid_argument on the same contributor-shape errors as
    {!merge}. *)

val combine : kind -> int -> int -> int
(** How two {e normalized} candidate values for the same group fold into
    one before hitting the store: min/max pick the better, count/sum
    add their deltas. *)

val apply_sorted :
  t -> n:int -> group:(int -> Tuple.t) -> value:(int -> int) -> changed:(int -> int -> unit) -> unit
(** [apply_sorted t ~n ~group ~value ~changed] folds a run of [n]
    pre-normalized, pre-combined candidates — [group i] strictly
    increasing, [value i] the combined candidate value — into the store.
    [changed i v'] fires for every group whose stored aggregate changed,
    with the {e updated} value.  For the [Indexed] backend this is one
    co-sequential B⁺-tree walk ({!Dcd_btree.Bptree.merge_sorted_slice},
    group keys adopted on insert: callers must pass fresh arrays and not
    mutate them after); the [Scan] backend falls back to per-group
    linear passes, preserving the ablation's cost model. *)

val iter : t -> (Tuple.t -> int -> unit) -> unit
(** All [(group, value)] pairs. Ascending group order for [Indexed];
    unspecified order for [Scan]. *)

val iter_prefix : t -> prefix:Tuple.t -> (Tuple.t -> int -> unit) -> unit
(** All groups whose key starts with [prefix].  O(log n + matches) for
    [Indexed] (B⁺-tree range), O(n) for [Scan]. *)

val to_vec : t -> (Tuple.t * int) Dcd_util.Vec.t

(** {1 Checkpoint snapshot / restore} *)

type snapshot
(** A deep value snapshot of the table: group entries {e plus} the
    contributor-dedup state ([Count]'s contributor set, [Sum]'s partial
    values).  Restoring contributor state is a correctness requirement:
    a recovered worker re-derives contributions it had already folded in
    before the cut, and without the restored sets those would
    double-count.  Key arrays are shared with the live table (stored
    keys are immutable once adopted), so the snapshot costs O(groups +
    contributors) words — proportional to aggregate state, unlike the
    O(1) watermark of an append-only set log. *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Rebuilds the table to exactly the snapshotted state.  Fresh
    structures are built each time — the snapshot is never adopted, so
    it remains valid for a second-level retry. *)
