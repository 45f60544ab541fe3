(* Incremental maintenance of a materialized fixpoint under batched
   base-relation updates.

   The maintenance state mirrors the engine's catalog as hash-table
   stores with per-tuple support, processed stratum by stratum in the
   same bottom-up order the engine evaluated them:

   - non-recursive strata use counting (Gupta–Mumick–Subrahmanian):
     per-tuple derivation counts, updated by signed delta rules where
     the delta atom at body position [i] sees the batch delta, positions
     [< i] see the new state and positions [> i] the old one — the
     telescoping N0⋈N1 − O0⋈O1 = ∆0⋈O1 + N0⋈∆1, so every changed
     derivation is counted exactly once with its net sign;
   - recursive plain strata use DRed: overdelete closure w.r.t. the old
     database, physical removal, goal-directed rederivation, then
     worklist insert propagation (semi-naive from the current fixpoint);
   - recursive strata whose aggregates are all min/max propagate inserts
     monotonically (improvements only — sound because a grown database
     can only improve a monotone aggregate) and fall back to a stratum
     recompute for deletions;
   - strata with negation, or recursive count/sum aggregates, recompute
     through the parallel engine itself ({!Parallel.run} on the resident
     {!Parallel.runtime} pool), then diff against the previous state.

   Every rule body, at [create] as well as in [apply], is evaluated by a
   compiled {!Maintain_kernel} pipeline; a round runs inline on the
   coordinator or as a morsel round on the pool ([run_round]).

   The old (pre-batch) state of a finished lower stratum is
   reconstructed per predicate as [(current \ d_ins) ∪ d_del] from the
   per-batch delta recorder, with lazily built overlay indexes over the
   delete set for keyed lookups. *)

open Dcd_planner
module Ast = Dcd_datalog.Ast
module Analysis = Dcd_datalog.Analysis
module Tuple = Dcd_storage.Tuple
module Relation = Dcd_storage.Relation
module Vec = Dcd_util.Vec
module Arena = Dcd_storage.Arena
module Clock = Dcd_util.Clock
module Fault = Dcd_concurrent.Fault
module Domain_pool = Dcd_concurrent.Domain_pool

module Tup_tbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

type update =
  | Insert of string * Tuple.t
  | Delete of string * Tuple.t

type batch_report = {
  br_base_inserted : int;
  br_base_deleted : int;
  br_derived_inserted : int;
  br_derived_deleted : int;
  br_overdeleted : int;
  br_rederived : int;
  br_restored : int;
  br_recounted : int;
  br_recomputed_strata : int;
  br_changed : (string * int * int) list;
  br_deltas : (string * Dcd_storage.Tuple.t list * Dcd_storage.Tuple.t list) list;
  br_workers : (float * int * int * int) list;
      (* per maintenance worker: (join seconds, morsels executed,
         steals, tuples stolen) *)
}

(* --- state --- *)

(* Counting support for an aggregated head in a non-recursive stratum:
   enough to recompute the group's visible value after any mix of
   derivation gains and losses. *)
type agg_support =
  | Sminmax of (int, int) Hashtbl.t (* value -> derivation count *)
  | Scount of int Tup_tbl.t (* contributor -> derivation count *)
  | Ssum of (int, int) Hashtbl.t Tup_tbl.t (* contributor -> value -> count *)

type apred = {
  a_pos : int;
  a_kind : Ast.agg_kind;
  a_best : int Tup_tbl.t; (* group -> visible aggregate value *)
  a_support : agg_support Tup_tbl.t option; (* counting strata only *)
}

type pbody =
  | Pplain of int Tup_tbl.t (* tuple -> derivation count (sets: 1) *)
  | Pagg of apred

type index = {
  ix_cols : int array;
  ix_buckets : unit Tup_tbl.t Tup_tbl.t; (* projected key -> visible tuples *)
}

(* Per-batch net change recorder.  Invariants after cancellation:
   d_del ∩ visible = ∅ and d_ins ⊆ visible, so the old state is exactly
   (visible \ d_ins) ∪ d_del. *)
type delta = {
  d_ins : unit Tup_tbl.t;
  d_del : unit Tup_tbl.t;
  mutable d_overlays : (int array * unit Tup_tbl.t Tup_tbl.t) list;
      (* lazy keyed indexes over d_del, for Old-visibility lookups *)
}

type pred_state = {
  ps_name : string;
  ps_arity : int;
  ps_body : pbody;
  mutable ps_indexes : index list;
  ps_delta : delta;
  ps_ranks : int Tup_tbl.t;
      (* DRed strata only: a well-founded derivation rank per visible
         tuple, grounding the rank-decreasing support counts that brake
         the overdeletion cascade *)
  ps_supports : int Tup_tbl.t;
      (* DRed strata only: a lower bound on the number of current
         rank-decreasing derivations of each visible tuple — those whose
         same-stratum atoms all rank below it.  Exact after
         [build_ranks] and for every tuple a DRed pass rederives (it is
         recounted at the end of the pass); deletions decrement, fresh
         insertions start at 1, and a derivation that gets back all its
         atoms by rederivation gives its surviving head one count back.
         A positive count proves the tuple derivable in the new
         fixpoint, so only zero-count tuples join the overdeletion
         frontier.  Lower-bound discipline keeps this sound: decrements
         may over-fire and increments under-fire — a premature zero
         only costs a rederivation check, never a wrong fixpoint. *)
}

(* --- compiled delta kernels --- *)

(* One worker's private half of a compiled maintenance kernel: its
   {!Maintain_kernel.instance} (register file, head/contrib scratch)
   plus a filler per same-stratum body atom, tagged with its body
   position, so the DRed emit closures can look up that atom's
   derivation rank without a boxed environment. *)
type mk_inst = {
  mi_pipe : Maintain_kernel.instance;
  mi_atoms : (int * pred_state * int array * (unit -> unit)) array;
}

type mkernel = {
  mk_insts : mk_inst array; (* one per maintenance worker *)
  mk_rank_reg : int; (* cascade kernels: register of the scan rank column, -1 if none *)
  mk_prewarm : (unit -> unit) list;
      (* forces lazily built per-batch structures (delete overlays)
         on the coordinator before a parallel round reads them *)
}

(* --- compiled rules --- *)

type catom = {
  ca_pred : string;
  ca_args : Ast.term array;
}

type oelem =
  | O_atom of int (* index into cr_atoms *)
  | O_neg of Ast.atom
  | O_filter of Ast.cmp_op * Ast.expr * Ast.expr
  | O_assign of string * Ast.expr

type crule = {
  cr_rule : Ast.rule;
  cr_head : string;
  cr_agg : (int * Ast.agg_kind) option;
  cr_atoms : catom array;
  cr_others : Ast.literal list; (* negations and comparisons *)
  mutable cr_orders : (int * oelem list) list;
      (* greedy orderings cached by scan key: the delta atom index,
         [-1] = full evaluation, [-2] = head-bound (rederive check) *)
  mutable cr_kernels : (int * mkernel) list;
      (* compiled pipelines cached by phase key (see [kcount] etc.);
         valid across batches — they close over the persistent
         pred_state tables and maintained indexes, never over
         batch-local data *)
}

type mode =
  | M_counting
  | M_dred
  | M_aggrec
  | M_subrun

type cstratum = {
  cs_stratum : Analysis.stratum;
  cs_mode : mode;
  cs_insert_ok : bool; (* aggrec: every aggregate is min/max *)
  cs_body_preds : string list; (* lower predicates feeding this stratum *)
  cs_rules : crule array;
  mutable cs_sub : Physical.t option; (* cached recompute sub-plan *)
}

type t = {
  plan : Physical.t;
  config : Parallel.config;
  runtime : Parallel.runtime;
  preds : (string, pred_state) Hashtbl.t;
  edb : (string, unit) Hashtbl.t;
  m_workers : int;
      (* effective maintenance parallelism: config.maintain_workers
         clamped to [1, workers], 0 meaning "same as workers" *)
  m_steal : Steal.t option; (* morsel board for parallel rounds (m_workers > 1) *)
  m_fault : Fault.t option; (* injection schedule for the Maintain site *)
  m_bufs : (Tuple.t * Tuple.t) Vec.t array;
      (* per-worker (head, contrib) emission buffers, drained
         sequentially by the coordinator after each round's barrier *)
  m_arenas : (int, Arena.t) Hashtbl.t; (* scratch scan arenas by arity *)
  m_wjoin : float array; (* per-batch, per-worker round-execution seconds *)
  m_wmorsels : int array;
  m_wsteals : int array;
  m_wstolen : int array;
  mutable strata : cstratum list;
  mutable recording : bool;
  mutable rank_counter : int;
      (* strictly above every assigned rank; fresh insertions take the
         next value so later tuples always outrank their supports *)
  mutable cur_overdeleted : int;
  mutable cur_rederived : int;
  mutable cur_restored : int;
  mutable cur_recounted : int;
  mutable cur_recomputed : int;
}

type vis =
  | Cur
  | Old

(* --- basic helpers --- *)

let get_pred mt name =
  match Hashtbl.find_opt mt.preds name with
  | Some ps -> ps
  | None -> invalid_arg (Printf.sprintf "Maintain: unknown predicate %s" name)

let sym_value mt s =
  match List.assoc_opt s mt.plan.Physical.params with
  | Some v -> v
  | None -> Dcd_util.Symbol.intern mt.plan.Physical.symbols s

let group_of a tup =
  let arity = Array.length tup in
  let g = Array.make (arity - 1) 0 in
  let gi = ref 0 in
  for c = 0 to arity - 1 do
    if c <> a.a_pos then begin
      g.(!gi) <- tup.(c);
      incr gi
    end
  done;
  g

let assemble a group v =
  let arity = Array.length group + 1 in
  let tup = Array.make arity 0 in
  let gi = ref 0 in
  for c = 0 to arity - 1 do
    if c = a.a_pos then tup.(c) <- v
    else begin
      tup.(c) <- group.(!gi);
      incr gi
    end
  done;
  tup

let cols_equal a b = Array.length a = Array.length b && Array.for_all2 ( = ) a b

(* --- visibility --- *)

let iter_vis_cur ps f =
  match ps.ps_body with
  | Pplain counts -> Tup_tbl.iter (fun tup _ -> f tup) counts
  | Pagg a -> Tup_tbl.iter (fun g v -> f (assemble a g v)) a.a_best

let mem_cur ps tup =
  match ps.ps_body with
  | Pplain counts -> Tup_tbl.mem counts tup
  | Pagg a -> (
    let g = group_of a tup in
    match Tup_tbl.find_opt a.a_best g with
    | Some v -> v = tup.(a.a_pos)
    | None -> false)

let mem_vis ps visk tup =
  match visk with
  | Cur -> mem_cur ps tup
  | Old ->
    let d = ps.ps_delta in
    (mem_cur ps tup && not (Tup_tbl.mem d.d_ins tup)) || Tup_tbl.mem d.d_del tup

let iter_vis ps visk f =
  match visk with
  | Cur -> iter_vis_cur ps f
  | Old ->
    let d = ps.ps_delta in
    iter_vis_cur ps (fun tup -> if not (Tup_tbl.mem d.d_ins tup) then f tup);
    Tup_tbl.iter (fun tup () -> f tup) d.d_del

let visible_count_ps ps =
  match ps.ps_body with
  | Pplain counts -> Tup_tbl.length counts
  | Pagg a -> Tup_tbl.length a.a_best

(* --- indexes and delta recording --- *)

let bucket_add buckets key tup =
  let b =
    match Tup_tbl.find_opt buckets key with
    | Some b -> b
    | None ->
      let b = Tup_tbl.create 4 in
      Tup_tbl.add buckets key b;
      b
  in
  Tup_tbl.replace b tup ()

let ensure_index ps cols =
  match List.find_opt (fun ix -> cols_equal ix.ix_cols cols) ps.ps_indexes with
  | Some ix -> ix
  | None ->
    let ix = { ix_cols = Array.copy cols; ix_buckets = Tup_tbl.create 64 } in
    iter_vis_cur ps (fun tup -> bucket_add ix.ix_buckets (Tuple.project tup ix.ix_cols) tup);
    ps.ps_indexes <- ix :: ps.ps_indexes;
    ix

let overlay ps cols =
  let d = ps.ps_delta in
  match List.find_opt (fun (c, _) -> cols_equal c cols) d.d_overlays with
  | Some (_, tbl) -> tbl
  | None ->
    let tbl = Tup_tbl.create 16 in
    Tup_tbl.iter (fun tup () -> bucket_add tbl (Tuple.project tup cols) tup) d.d_del;
    d.d_overlays <- (Array.copy cols, tbl) :: d.d_overlays;
    tbl

let record_ins ps tup =
  let d = ps.ps_delta in
  if Tup_tbl.mem d.d_del tup then begin
    Tup_tbl.remove d.d_del tup;
    d.d_overlays <- []
  end
  else if not (Tup_tbl.mem d.d_ins tup) then Tup_tbl.add d.d_ins tup ()

let record_del ps tup =
  let d = ps.ps_delta in
  if Tup_tbl.mem d.d_ins tup then Tup_tbl.remove d.d_ins tup
  else if not (Tup_tbl.mem d.d_del tup) then begin
    Tup_tbl.add d.d_del tup ();
    d.d_overlays <- []
  end

(* The single entry points for a visibility flip: maintain every built
   index and (once serving) the per-batch delta recorder.  Callers own
   the support tables. *)
let visible_insert mt ps tup =
  List.iter (fun ix -> bucket_add ix.ix_buckets (Tuple.project tup ix.ix_cols) tup) ps.ps_indexes;
  if mt.recording then record_ins ps tup

let visible_remove mt ps tup =
  List.iter
    (fun ix ->
      match Tup_tbl.find_opt ix.ix_buckets (Tuple.project tup ix.ix_cols) with
      | Some b -> Tup_tbl.remove b tup
      | None -> ())
    ps.ps_indexes;
  if mt.recording then record_del ps tup

(* --- support updates --- *)

let plain_add mt ps counts tup sign =
  let cur = Option.value ~default:0 (Tup_tbl.find_opt counts tup) in
  let nv = cur + sign in
  if nv < 0 then
    invalid_arg (Printf.sprintf "Maintain: negative support for %s %s" ps.ps_name (Tuple.to_string tup));
  if nv = 0 then Tup_tbl.remove counts tup else Tup_tbl.replace counts tup nv;
  if cur = 0 && nv > 0 then visible_insert mt ps tup
  else if cur > 0 && nv = 0 then visible_remove mt ps tup

let bump_int tbl k sign =
  let cur = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  let nv = cur + sign in
  if nv < 0 then invalid_arg "Maintain: negative aggregate support";
  if nv = 0 then Hashtbl.remove tbl k else Hashtbl.replace tbl k nv

let bump_tup tbl k sign =
  let cur = Option.value ~default:0 (Tup_tbl.find_opt tbl k) in
  let nv = cur + sign in
  if nv < 0 then invalid_arg "Maintain: negative aggregate support";
  if nv = 0 then Tup_tbl.remove tbl k else Tup_tbl.replace tbl k nv

(* Recomputes a group's visible value from its support after an update,
   flipping the assembled tuple's visibility when it changed.  Sum
   groups fold each contributor's largest pending value — a contributor
   carrying several distinct values at once has no engine-defined order,
   and the initial-build verification rejects programs where this
   matters. *)
let refresh_group mt ps a support_tbl group =
  let newbest =
    match Tup_tbl.find_opt support_tbl group with
    | None -> None
    | Some (Sminmax vt) ->
      if Hashtbl.length vt = 0 then None
      else
        Hashtbl.fold
          (fun v _ acc ->
            match acc with
            | None -> Some v
            | Some b -> Some (if a.a_kind = Ast.Min then min b v else max b v))
          vt None
    | Some (Scount ct) ->
      let n = Tup_tbl.length ct in
      if n = 0 then None else Some n
    | Some (Ssum st) ->
      if Tup_tbl.length st = 0 then None
      else
        Some
          (Tup_tbl.fold
             (fun _ vt acc -> acc + Hashtbl.fold (fun v _ m -> max v m) vt min_int)
             st 0)
  in
  if newbest = None then Tup_tbl.remove support_tbl group;
  let oldbest = Tup_tbl.find_opt a.a_best group in
  if oldbest <> newbest then begin
    (match oldbest with
    | Some v ->
      Tup_tbl.remove a.a_best group;
      visible_remove mt ps (assemble a group v)
    | None -> ());
    match newbest with
    | Some v ->
      Tup_tbl.replace a.a_best group v;
      visible_insert mt ps (assemble a group v)
    | None -> ()
  end

let agg_support_add mt ps a tuple contrib sign =
  let group = group_of a tuple in
  let support_tbl =
    match a.a_support with
    | Some s -> s
    | None -> invalid_arg "Maintain: aggregate support missing"
  in
  let sup =
    match Tup_tbl.find_opt support_tbl group with
    | Some s -> s
    | None ->
      let s =
        match a.a_kind with
        | Ast.Min | Ast.Max -> Sminmax (Hashtbl.create 8)
        | Ast.Count -> Scount (Tup_tbl.create 8)
        | Ast.Sum -> Ssum (Tup_tbl.create 8)
      in
      Tup_tbl.add support_tbl group s;
      s
  in
  (match sup with
  | Sminmax vt -> bump_int vt tuple.(a.a_pos) sign
  | Scount ct -> bump_tup ct contrib sign
  | Ssum st ->
    let vt =
      match Tup_tbl.find_opt st contrib with
      | Some vt -> vt
      | None ->
        let vt = Hashtbl.create 4 in
        Tup_tbl.add st contrib vt;
        vt
    in
    bump_int vt tuple.(a.a_pos) sign;
    if Hashtbl.length vt = 0 then Tup_tbl.remove st contrib);
  refresh_group mt ps a support_tbl group

(* --- rule compilation and greedy ordering --- *)

let compile_rule (r : Ast.rule) =
  let atoms =
    Array.of_list
      (List.filter_map
         (function
           | Ast.Pos a -> Some { ca_pred = a.Ast.pred; ca_args = Array.of_list a.Ast.args }
           | Ast.Neg_lit _ | Ast.Cmp _ -> None)
         r.Ast.body)
  in
  let others =
    List.filter
      (function
        | Ast.Pos _ -> false
        | Ast.Neg_lit _ | Ast.Cmp _ -> true)
      r.Ast.body
  in
  {
    cr_rule = r;
    cr_head = r.Ast.head_pred;
    cr_agg = Ast.agg_of_rule r;
    cr_atoms = atoms;
    cr_others = others;
    cr_orders = [];
    cr_kernels = [];
  }

(* Orders the remaining body for a given scan key: drain every
   placeable comparison (filter once bound, Eq-with-unbound-var as an
   assignment) and negation, then the atom with the most bound argument
   positions — ties broken toward the smaller visible relation, which
   keeps head-bound probes scanning a narrow EDB bucket instead of a
   wide recursive one — and repeat. *)
let compute_order mt cr key =
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let bind_vars vars = List.iter (fun v -> Hashtbl.replace bound v ()) vars in
  (match key with
  | -2 ->
    List.iter
      (function
        | Ast.Plain t -> bind_vars (Ast.vars_of_term t)
        | Ast.Agg _ -> ())
      cr.cr_rule.Ast.head_args
  | i when i >= 0 -> Array.iter (fun t -> bind_vars (Ast.vars_of_term t)) cr.cr_atoms.(i).ca_args
  | _ -> ());
  let all_bound vars = List.for_all (Hashtbl.mem bound) vars in
  let remaining_atoms =
    ref
      (List.filter
         (fun i -> i <> key)
         (List.init (Array.length cr.cr_atoms) (fun i -> i)))
  in
  let remaining_others = ref cr.cr_others in
  let out = ref [] in
  let rec drain_others () =
    let placed = ref false in
    remaining_others :=
      List.filter
        (fun lit ->
          match lit with
          | Ast.Cmp (op, lhs, rhs) -> (
            if all_bound (Ast.vars_of_expr lhs) && all_bound (Ast.vars_of_expr rhs) then begin
              out := O_filter (op, lhs, rhs) :: !out;
              placed := true;
              false
            end
            else if op <> Ast.Eq then true
            else
              match (lhs, rhs) with
              | Ast.Term (Ast.Var x), e
                when (not (Hashtbl.mem bound x)) && all_bound (Ast.vars_of_expr e) ->
                out := O_assign (x, e) :: !out;
                bind_vars [ x ];
                placed := true;
                false
              | e, Ast.Term (Ast.Var x)
                when (not (Hashtbl.mem bound x)) && all_bound (Ast.vars_of_expr e) ->
                out := O_assign (x, e) :: !out;
                bind_vars [ x ];
                placed := true;
                false
              | _ -> true)
          | Ast.Neg_lit a ->
            if all_bound (List.concat_map Ast.vars_of_term a.Ast.args) then begin
              out := O_neg a :: !out;
              placed := true;
              false
            end
            else true
          | Ast.Pos _ -> assert false)
        !remaining_others;
    if !placed then drain_others ()
  in
  drain_others ();
  while !remaining_atoms <> [] do
    let score i =
      Array.fold_left
        (fun acc t ->
          match t with
          | Ast.Int _ | Ast.Sym _ -> acc + 1
          | Ast.Var v -> if Hashtbl.mem bound v then acc + 1 else acc)
        0
        cr.cr_atoms.(i).ca_args
    in
    let size i = visible_count_ps (get_pred mt cr.cr_atoms.(i).ca_pred) in
    let best =
      List.fold_left
        (fun acc i ->
          match acc with
          | None -> Some (i, score i)
          | Some (j, s) ->
            let si = score i in
            if si > s || (si = s && size i < size j) then Some (i, si) else acc)
        None !remaining_atoms
    in
    let i, _ = Option.get best in
    out := O_atom i :: !out;
    Array.iter (fun t -> bind_vars (Ast.vars_of_term t)) cr.cr_atoms.(i).ca_args;
    remaining_atoms := List.filter (fun j -> j <> i) !remaining_atoms;
    drain_others ()
  done;
  if !remaining_others <> [] then
    invalid_arg ("Maintain: cannot order body of " ^ Ast.rule_to_string cr.cr_rule);
  List.rev !out

let get_order mt cr key =
  match List.assoc_opt key cr.cr_orders with
  | Some o -> o
  | None ->
    let o = compute_order mt cr key in
    cr.cr_orders <- (key, o) :: cr.cr_orders;
    o

(* --- kernel compilation --- *)

(* Phase keys for the per-rule kernel cache.  For delta/scan atom [i]:
   counting uses [4i] (positions < i New, > i Old), DRed seeding
   [4i+1] (same-stratum Cur, lower Old), the DRed cascade and the
   insert-propagation worklist [4i+2] (all Cur, a trailing int column
   on the scan row: the dying tuple's rank, the worklist entry's tag),
   and lower-stratum insert seeds and rank labelling [4i+3] (all Cur);
   [-2] is the head-bound probe (rederivation, support recount). *)
let kcount i = 4 * i
let kseed i = (4 * i) + 1
let kcasc i = (4 * i) + 2
let kprop i = (4 * i) + 3
let krederive = -2

(* Compiles one cached ordering of [cr] into a {!Maintain_kernel.spec}
   and instantiates it once per maintenance worker.  Variables become
   integer registers; each body atom becomes a membership probe (fully
   bound), a keyed bucket scan against a persistent [ensure_index]
   (partially bound, with the per-batch delete overlay layered on for
   Old visibility) or a full visible scan.  The iteration closures read
   the maintenance tables but never write them — a parallel round keeps
   every mutation in the per-worker emission buffers.  [scan] is the
   row a run feeds in: a body atom, the head (rederivation probes) or
   the empty tuple of a unit scan (full evaluations). *)
let build_mkernel mt cr ~order ~scan ~vis_of ~with_rank ~in_stratum =
  let nregs = ref 0 in
  let vars : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let reg_of v =
    match Hashtbl.find_opt vars v with
    | Some r -> r
    | None ->
      let r = !nregs in
      incr nregs;
      Hashtbl.add vars v r;
      r
  in
  let src_of = function
    | Ast.Int i -> Physical.Const i
    | Ast.Sym s -> Physical.Const (sym_value mt s)
    | Ast.Var v -> (
      match Hashtbl.find_opt vars v with
      | Some r -> Physical.Reg r
      | None -> invalid_arg (Printf.sprintf "Maintain: unbound kernel variable %s" v))
  in
  let rec code_of = function
    | Ast.Term t -> (
      match src_of t with
      | Physical.Const c -> Physical.C_const c
      | Physical.Reg r -> Physical.C_reg r)
    | Ast.Binop (op, a, b) ->
      let ca = code_of a in
      let cb = code_of b in
      Physical.C_bin (op, ca, cb)
    | Ast.Neg e -> Physical.C_neg (code_of e)
  in
  (* scan row: first occurrence of a variable binds its register,
     repeats and constants become residual checks *)
  let scan_terms =
    match scan with
    | `Atom i -> cr.cr_atoms.(i).ca_args
    | `Unit -> [||]
    | `Head ->
      Array.of_list
        (List.map
           (function
             | Ast.Plain t -> t
             | Ast.Agg _ -> invalid_arg "Maintain: aggregate head in rederive kernel")
           cr.cr_rule.Ast.head_args)
  in
  let sbinds = ref [] and schecks = ref [] in
  Array.iteri
    (fun c t ->
      match t with
      | Ast.Var v when not (Hashtbl.mem vars v) -> sbinds := (c, reg_of v) :: !sbinds
      | t -> schecks := (c, src_of t) :: !schecks)
    scan_terms;
  let rank_reg =
    if with_rank then begin
      let r = !nregs in
      incr nregs;
      sbinds := (Array.length scan_terms, r) :: !sbinds;
      r
    end
    else -1
  in
  let prewarm = ref [] in
  let steps =
    List.map
      (fun el ->
        match el with
        | O_atom j ->
          let ca = cr.cr_atoms.(j) in
          let ps = get_pred mt ca.ca_pred in
          let vis = vis_of j in
          let arity = Array.length ca.ca_args in
          let newly : (string, unit) Hashtbl.t = Hashtbl.create 4 in
          let cols = ref [] and ksrc = ref [] and binds = ref [] and checks = ref [] in
          Array.iteri
            (fun c t ->
              match t with
              | Ast.Var v when Hashtbl.mem newly v ->
                checks := (c, Physical.Reg (Hashtbl.find vars v)) :: !checks
              | Ast.Var v when not (Hashtbl.mem vars v) ->
                Hashtbl.add newly v ();
                binds := (c, reg_of v) :: !binds
              | t ->
                cols := c :: !cols;
                ksrc := src_of t :: !ksrc)
            ca.ca_args;
          let cols = Array.of_list (List.rev !cols) in
          let ksrc = Array.of_list (List.rev !ksrc) in
          if Array.length cols = arity then
            Maintain_kernel.S_mem
              { sm_key_src = ksrc; sm_mem = (fun key -> mem_vis ps vis key); sm_negated = false }
          else begin
            let iter =
              if Array.length cols = 0 then fun _key f -> iter_vis ps vis (fun tup -> f tup 0)
              else begin
                (* built (from the current visible set) at compile time,
                   then maintained forever by visible_insert/remove —
                   capturing it here stays correct across batches *)
                let ix = ensure_index ps cols in
                match vis with
                | Cur ->
                  fun key f -> (
                    match Tup_tbl.find_opt ix.ix_buckets key with
                    | Some b -> Tup_tbl.iter (fun tup () -> f tup 0) b
                    | None -> ())
                | Old ->
                  prewarm := (fun () -> ignore (overlay ps cols)) :: !prewarm;
                  let d = ps.ps_delta in
                  fun key f ->
                    (match Tup_tbl.find_opt ix.ix_buckets key with
                    | Some b ->
                      Tup_tbl.iter
                        (fun tup () -> if not (Tup_tbl.mem d.d_ins tup) then f tup 0)
                        b
                    | None -> ());
                    (match Tup_tbl.find_opt (overlay ps cols) key with
                    | Some b -> Tup_tbl.iter (fun tup () -> f tup 0) b
                    | None -> ())
              end
            in
            Maintain_kernel.S_atom
              {
                sa_key_src = ksrc;
                sa_binds = Array.of_list (List.rev !binds);
                sa_checks = Array.of_list (List.rev !checks);
                sa_iter = iter;
              }
          end
        | O_neg a ->
          let ps = get_pred mt a.Ast.pred in
          let ksrc = Array.of_list (List.map src_of a.Ast.args) in
          Maintain_kernel.S_mem
            { sm_key_src = ksrc; sm_mem = (fun key -> mem_vis ps Cur key); sm_negated = true }
        | O_filter (op, lhs, rhs) ->
          let cl = code_of lhs in
          let crr = code_of rhs in
          Maintain_kernel.S_filter (op, cl, crr)
        | O_assign (x, e) ->
          let c = code_of e in
          Maintain_kernel.S_compute (reg_of x, c))
      order
  in
  let head_srcs =
    Array.of_list
      (List.map
         (fun (arg : Ast.head_arg) ->
           match arg with
           | Ast.Plain t -> src_of t
           | Ast.Agg (Ast.Count, _) -> Physical.Const 0
           | Ast.Agg ((Ast.Min | Ast.Max), [ t ]) -> src_of t
           | Ast.Agg (Ast.Sum, ts) -> src_of (List.nth ts (List.length ts - 1))
           | Ast.Agg _ -> invalid_arg "Maintain: malformed aggregate")
         cr.cr_rule.Ast.head_args)
  in
  let contrib_srcs =
    Array.of_list
      (List.concat_map
         (fun (arg : Ast.head_arg) ->
           match arg with
           | Ast.Agg (Ast.Count, ts) -> List.map src_of ts
           | Ast.Agg (Ast.Sum, ts) ->
             List.map src_of (List.filteri (fun i _ -> i < List.length ts - 1) ts)
           | Ast.Agg ((Ast.Min | Ast.Max), _) | Ast.Plain _ -> [])
         cr.cr_rule.Ast.head_args)
  in
  let datoms =
    let acc = ref [] in
    Array.iteri
      (fun j ca ->
        if in_stratum ca.ca_pred then
          acc := (j, get_pred mt ca.ca_pred, Array.map src_of ca.ca_args) :: !acc)
      cr.cr_atoms;
    Array.of_list (List.rev !acc)
  in
  let spec =
    {
      Maintain_kernel.sp_nregs = !nregs;
      sp_scan_binds = Array.of_list (List.rev !sbinds);
      sp_scan_checks = Array.of_list (List.rev !schecks);
      sp_steps = steps;
      sp_head = head_srcs;
      sp_contrib = contrib_srcs;
    }
  in
  let insts =
    Array.init mt.m_workers (fun _ ->
        let pipe = Maintain_kernel.instantiate spec in
        let regs = Maintain_kernel.regs pipe in
        let atoms =
          Array.map
            (fun (j, ps, srcs) ->
              let buf = Array.make (Array.length srcs) 0 in
              (j, ps, buf, Kernel.filler srcs ~regs ~buf))
            datoms
        in
        { mi_pipe = pipe; mi_atoms = atoms })
  in
  { mk_insts = insts; mk_rank_reg = rank_reg; mk_prewarm = !prewarm }

let get_kernel mt cs cr key =
  match List.assoc_opt key cr.cr_kernels with
  | Some mk -> mk
  | None ->
    let in_stratum p = List.mem p cs.cs_stratum.Analysis.preds in
    let mk =
      if key = krederive then
        build_mkernel mt cr ~order:(get_order mt cr krederive) ~scan:`Head
          ~vis_of:(fun _ -> Cur) ~with_rank:false ~in_stratum
      else begin
        let i = key / 4 in
        let order = get_order mt cr i in
        let scan = `Atom i in
        match key mod 4 with
        | 0 ->
          build_mkernel mt cr ~order ~scan
            ~vis_of:(fun j -> if j < i then Cur else Old)
            ~with_rank:false ~in_stratum
        | 1 ->
          build_mkernel mt cr ~order ~scan
            ~vis_of:(fun j -> if in_stratum cr.cr_atoms.(j).ca_pred then Cur else Old)
            ~with_rank:false ~in_stratum
        | 2 -> build_mkernel mt cr ~order ~scan ~vis_of:(fun _ -> Cur) ~with_rank:true ~in_stratum
        | _ -> build_mkernel mt cr ~order ~scan ~vis_of:(fun _ -> Cur) ~with_rank:false ~in_stratum
      end
    in
    cr.cr_kernels <- (key, mk) :: cr.cr_kernels;
    mk

(* The full evaluation of [cr] (order key [-1], all Cur) over a one-row
   unit scan.  It runs once per rule, at [create], so the kernel is not
   cached and dies with it. *)
let full_kernel mt cs cr =
  build_mkernel mt cr ~order:(get_order mt cr (-1)) ~scan:`Unit ~vis_of:(fun _ -> Cur)
    ~with_rank:false
    ~in_stratum:(fun p -> List.mem p cs.cs_stratum.Analysis.preds)

(* --- round execution --- *)

(* Rounds smaller than this run inline on the coordinator: a morsel
   round costs a pool submit and a barrier, which only pays for itself
   on scans of a few hundred tuples and up. *)
let par_threshold = 256

let default_morsel mi _w arena ~first ~len = Maintain_kernel.run_range mi.mi_pipe arena ~first ~len

let set_emits mk make =
  Array.iteri (fun w mi -> Maintain_kernel.set_emit mi.mi_pipe (make w mi)) mk.mk_insts

(* The standard emit: buffer a copy of the head (and aggregate
   contributors, if any) for the post-barrier apply. *)
let push_emit mt w mi =
  let buf = mt.m_bufs.(w) in
  let h = Maintain_kernel.head mi.mi_pipe in
  let c = Maintain_kernel.contrib mi.mi_pipe in
  if Array.length c = 0 then fun () -> Vec.push buf (Array.copy h, [||])
  else fun () -> Vec.push buf (Array.copy h, Array.copy c)

let raise_worker_crash (failures : Domain_pool.failure list) =
  match failures with
  | [] -> assert false
  | first :: rest ->
    raise
      (Engine_error.Error
         (Engine_error.Worker_crashed
            {
              worker = first.Domain_pool.index;
              error = first.Domain_pool.error;
              backtrace = first.Domain_pool.backtrace;
              others =
                List.map
                  (fun (f : Domain_pool.failure) ->
                    {
                      Engine_error.worker = f.Domain_pool.index;
                      error = f.Domain_pool.error;
                      backtrace = f.Domain_pool.backtrace;
                    })
                  rest;
            }))

(* One buffered maintenance round over [arena].  Below the threshold
   (or with one effective worker) the coordinator runs instance 0
   inline; above it each pool worker publishes its stripe of the range
   as morsels on the steal board, drains its own deque LIFO, then
   claims from loaded peers, executing every morsel through its private
   kernel instance with all emissions buffered.  The maintenance state
   is strictly read-only between the prewarm and the barrier, so the
   concurrent hash-table reads are safe; [apply] then drains the
   buffers sequentially.  Every pass only uses rounds whose
   applications commute within the round (signed counting updates of
   one sign, support decrements, idempotent inserts, monotone merges),
   so the fixpoint does not depend on which worker ran which morsel;
   only the order in which fresh ranks are handed out does. *)
let run_round mt mk ~arena ~morsel ~apply =
  let n = Arena.length arena in
  if n > 0 then begin
    let mw = mt.m_workers in
    match mt.m_steal with
    | Some steal when n >= par_threshold ->
      List.iter (fun f -> f ()) mk.mk_prewarm;
      Steal.reset steal;
      let body me =
        if me < mw then begin
          let t0 = Clock.now () in
          let lo = n * me / mw and hi = n * (me + 1) / mw in
          if hi > lo then
            Steal.publish_range steal ~me ~kind:Steal.Delta ~gid:0 ~arena ~first:lo
              ~len:(hi - lo);
          let mi = mk.mk_insts.(me) in
          let exec stolen (m : Steal.morsel) =
            (match mt.m_fault with
            | Some fa -> Fault.hit fa Fault.Maintain ~worker:me
            | None -> ());
            morsel mi me m.Steal.m_arena ~first:m.Steal.m_first ~len:m.Steal.m_len;
            Steal.complete steal m;
            mt.m_wmorsels.(me) <- mt.m_wmorsels.(me) + 1;
            if stolen then begin
              mt.m_wsteals.(me) <- mt.m_wsteals.(me) + 1;
              mt.m_wstolen.(me) <- mt.m_wstolen.(me) + m.Steal.m_len
            end
          in
          let rec drain () =
            match Steal.pop_own steal ~me with
            | Some m ->
              exec false m;
              drain ()
            | None ->
              if Steal.enabled steal then (
                match Steal.try_claim steal ~me with
                | Some m ->
                  exec true m;
                  drain ()
                | None -> ())
          in
          drain ();
          mt.m_wjoin.(me) <- mt.m_wjoin.(me) +. (Clock.now () -. t0)
        end
      in
      (match Domain_pool.submit mt.runtime.Parallel.rt_pool body with
      | Ok () -> ()
      | Error failures -> raise_worker_crash failures);
      for w = 0 to mw - 1 do
        let buf = mt.m_bufs.(w) in
        Vec.iter apply buf;
        Vec.clear buf
      done
    | _ ->
      morsel mk.mk_insts.(0) 0 arena ~first:0 ~len:n;
      let buf = mt.m_bufs.(0) in
      Vec.iter apply buf;
      Vec.clear buf
  end

let scratch_arena mt ~arity =
  match Hashtbl.find_opt mt.m_arenas arity with
  | Some a ->
    Arena.clear a;
    a
  | None ->
    let a = Arena.create ~arity () in
    Hashtbl.add mt.m_arenas arity a;
    a

let arena_of_tbl mt tbl ~arity =
  let a = scratch_arena mt ~arity in
  Tup_tbl.iter (fun tup _ -> ignore (Arena.push a tup)) tbl;
  a

(* An arena of [arity]-tuples, each row extended by a trailing int
   column: what the [kcasc] kernels and the head-bound DRed probes
   scan. *)
let tagged_arena mt ~arity iter =
  let a = scratch_arena mt ~arity:(arity + 1) in
  let row = Array.make (arity + 1) 0 in
  iter (fun tup tag ->
      Array.blit tup 0 row 0 arity;
      row.(arity) <- tag;
      ignore (Arena.push a row));
  a

(* --- counting strata --- *)

(* One buffered round of rule [cr]'s kernel [mk] over [arena], each
   emitted head adjusting its derivation count (or aggregate support)
   by [sign]. *)
let count_round mt cr mk ~arena ~sign =
  set_emits mk (push_emit mt);
  let hps = get_pred mt cr.cr_head in
  run_round mt mk ~arena ~morsel:default_morsel ~apply:(fun (tuple, contrib) ->
      match (hps.ps_body, cr.cr_agg) with
      | Pplain counts, None -> plain_add mt hps counts tuple sign
      | Pagg a, Some _ -> agg_support_add mt hps a tuple contrib sign
      | _ -> invalid_arg "Maintain: aggregate/plain mismatch")

(* One buffered round per (rule, delta atom, sign).  Within a round
   every application carries the same sign, and same-sign support
   updates commute (deletions run first, so counts never cross the zero
   boundary out of order), so the morsel execution order cannot change
   the resulting state. *)
let counting_pass mt cs =
  Array.iter
    (fun cr ->
      Array.iteri
        (fun i ca ->
          let dps = get_pred mt ca.ca_pred in
          let d = dps.ps_delta in
          let run tbl sign =
            if Tup_tbl.length tbl > 0 then
              count_round mt cr (get_kernel mt cs cr (kcount i))
                ~arena:(arena_of_tbl mt tbl ~arity:dps.ps_arity)
                ~sign
          in
          run d.d_del (-1);
          run d.d_ins 1)
        cr.cr_atoms)
    cs.cs_rules

(* --- recursive plain strata (DRed) --- *)

(* Rank tests over the same-stratum atoms of the instantiation a kernel
   instance is emitting, read through their fillers.  [ranks_below]:
   every atom except body position [skip] is ranked strictly below
   [limit]. *)
let rec ranks_below_from atoms skip limit k =
  k >= Array.length atoms
  ||
  let j, ps, buf, fill = atoms.(k) in
  (j = skip
  ||
  (fill ();
   match Tup_tbl.find_opt ps.ps_ranks buf with
   | Some r -> r < limit
   | None -> false))
  && ranks_below_from atoms skip limit (k + 1)

let ranks_below atoms ~skip ~limit = ranks_below_from atoms skip limit 0

(* Whether one tuple fills two same-stratum positions.  Support counts
   never include such instantiations. *)
let dup_atoms atoms =
  let n = Array.length atoms in
  n > 1
  && begin
       Array.iter (fun (_, _, _, fill) -> fill ()) atoms;
       let dup = ref false in
       for a = 0 to n - 1 do
         let _, pa, ba, _ = atoms.(a) in
         for b = a + 1 to n - 1 do
           let _, pb, bb, _ = atoms.(b) in
           if pa == pb && Tuple.equal ba bb then dup := true
         done
       done;
       !dup
     end

(* Derivation ranks for a DRed stratum: rank(t) = 1 + max rank over the
   same-stratum atoms of some derivation (0 when a rule without
   same-stratum atoms derives it) — a layered, well-founded labelling
   of the adopted fixpoint.  The overdelete phase counts surviving
   rank-decreasing derivations; soundness needs only well-foundedness,
   so approximate or drifting ranks merely make the counts more
   conservative, never wrong.  Runs inline on the coordinator: every
   emit ranks its head at once, and later emits of the same scan read
   that rank. *)
let build_ranks mt cs =
  let stratum = cs.cs_stratum in
  let in_stratum p = List.mem p stratum.Analysis.preds in
  let frontier = Vec.create () in
  (* A derivation is usable once every same-stratum atom is ranked; an
     instantiation blocked on an unranked atom re-emerges when that
     atom's own frontier entry is processed.  The same enumeration
     seeds the support counts: a rank-decreasing instantiation is
     counted when found from its lexicographically greatest
     (rank, position) same-stratum atom — by then the others are
     already ranked, and no other frontier entry claims the same
     instantiation as its own maximum, so nothing is counted twice
     (an instantiation missed because an atom ranked late merely
     leaves the lower bound tighter).  Instantiations binding the same
     tuple to several same-stratum atoms are never counted: once that
     tuple dies the survivors cannot re-enumerate them to decrement.
     [i] is the frontier atom position, [-1] in the base pass. *)
  let rank_emit cr i mi =
    let head_ps = get_pred mt cr.cr_head in
    let h = Maintain_kernel.head mi.mi_pipe in
    let atoms = mi.mi_atoms in
    fun () ->
      let ok = ref true and r = ref 0 and best = ref (-1) and best_r = ref (-1) in
      Array.iter
        (fun (j, ps, buf, fill) ->
          if !ok then begin
            fill ();
            match Tup_tbl.find_opt ps.ps_ranks buf with
            | Some x ->
              if x >= !r then r := x + 1;
              if x > !best_r || (x = !best_r && j > !best) then begin
                best_r := x;
                best := j
              end
            | None -> ok := false
          end)
        atoms;
      if !ok then begin
        (* a head ranked here keys its support entry with the same copy *)
        let key =
          if mem_cur head_ps h && not (Tup_tbl.mem head_ps.ps_ranks h) then begin
            let h = Array.copy h in
            Tup_tbl.replace head_ps.ps_ranks h !r;
            Vec.push frontier (cr.cr_head, h);
            h
          end
          else h
        in
        if !best = i && not (dup_atoms atoms) then
          match Tup_tbl.find_opt head_ps.ps_ranks h with
          | Some hr when hr = !r ->
            let s = Option.value ~default:0 (Tup_tbl.find_opt head_ps.ps_supports h) in
            Tup_tbl.replace head_ps.ps_supports (if key == h then Array.copy h else key) (s + 1)
          | _ -> ()
      end
  in
  let pipes = ref [] in
  let pipe cr mk i =
    let mi = mk.mk_insts.(0) in
    Maintain_kernel.set_emit mi.mi_pipe (rank_emit cr i mi);
    pipes := mi.mi_pipe :: !pipes;
    mi.mi_pipe
  in
  Array.iter
    (fun cr ->
      if Array.for_all (fun ca -> not (in_stratum ca.ca_pred)) cr.cr_atoms then
        ignore (Maintain_kernel.run_row (pipe cr (full_kernel mt cs cr) (-1)) [||] 0))
    cs.cs_rules;
  (* the pipelines a frontier tuple of each predicate feeds, in rule
     then body-position order *)
  let feeds =
    List.map
      (fun p ->
        let acc = ref [] in
        Array.iter
          (fun cr ->
            Array.iteri
              (fun i ca ->
                if ca.ca_pred = p then acc := pipe cr (get_kernel mt cs cr (kprop i)) i :: !acc)
              cr.cr_atoms)
          cs.cs_rules;
        (p, List.rev !acc))
      stratum.Analysis.preds
  in
  let cursor = ref 0 in
  while !cursor < Vec.length frontier do
    let p, tup = Vec.get frontier !cursor in
    incr cursor;
    List.iter (fun pipe -> ignore (Maintain_kernel.run_row pipe tup 0)) (List.assoc p feeds)
  done;
  (* the cached kernels must not keep the frontier alive *)
  List.iter (fun pipe -> Maintain_kernel.set_emit pipe ignore) !pipes;
  List.iter
    (fun p ->
      let ps = get_pred mt p in
      let m = Tup_tbl.fold (fun _ r acc -> max acc r) ps.ps_ranks mt.rank_counter in
      mt.rank_counter <- m + 1)
    stratum.Analysis.preds

(* Phase 2 of DRed: physically remove the dead set from stores, ranks,
   supports and indexes. *)
let dred_remove_dead mt dsets =
  List.iter
    (fun (p, ds) ->
      let ps = get_pred mt p in
      let counts =
        match ps.ps_body with
        | Pplain c -> c
        | Pagg _ -> invalid_arg "Maintain: aggregate in DRed stratum"
      in
      Tup_tbl.iter
        (fun tup _ ->
          if Tup_tbl.mem counts tup then begin
            Tup_tbl.remove counts tup;
            Tup_tbl.remove ps.ps_ranks tup;
            Tup_tbl.remove ps.ps_supports tup;
            visible_remove mt ps tup
          end)
        ds;
      mt.cur_overdeleted <- mt.cur_overdeleted + Tup_tbl.length ds)
    dsets

(* Groups the worklist entries [from, upto) by predicate, keeping
   their order within each predicate. *)
let segments worklist ~from ~upto =
  let by_pred = Hashtbl.create 4 in
  for k = from to upto - 1 do
    let p, x = Vec.get worklist k in
    let l =
      match Hashtbl.find_opt by_pred p with
      | Some l -> l
      | None ->
        let l = Vec.create () in
        Hashtbl.add by_pred p l;
        l
    in
    Vec.push l x
  done;
  by_pred

(* Semi-naive insert propagation, shared by the DRed and monotone
   aggregate passes: seed rounds over the lower-stratum insertions
   ([kprop] kernels), then the worklist [prop] drained in per-predicate
   segments, one round per (rule, body atom of that predicate).  A
   worklist entry [(p, (tup, tag))] carries an int tag that its segment
   arena appends as a trailing column, which the [kcasc] kernels scan
   into their rank register.  [emit mk cr i] makes each worker's emit
   for a round of [cr] scanning body atom [i]; [apply cr] applies one
   buffered emission and pushes onto [prop] whatever became visible. *)
let propagate_inserts mt cs prop ~emit ~apply =
  let stratum = cs.cs_stratum in
  let in_stratum p = List.mem p stratum.Analysis.preds in
  let round key cr i arena =
    let mk = get_kernel mt cs cr key in
    set_emits mk (emit mk cr i);
    run_round mt mk ~arena ~morsel:default_morsel ~apply:(apply cr)
  in
  Array.iter
    (fun cr ->
      Array.iteri
        (fun i ca ->
          if not (in_stratum ca.ca_pred) then begin
            let dps = get_pred mt ca.ca_pred in
            let d = dps.ps_delta in
            if Tup_tbl.length d.d_ins > 0 then
              round (kprop i) cr i (arena_of_tbl mt d.d_ins ~arity:dps.ps_arity)
          end)
        cr.cr_atoms)
    cs.cs_rules;
  let cursor = ref 0 in
  while !cursor < Vec.length prop do
    let upto = Vec.length prop in
    let by_pred = segments prop ~from:!cursor ~upto in
    cursor := upto;
    List.iter
      (fun p ->
        match Hashtbl.find_opt by_pred p with
        | None -> ()
        | Some entries ->
          let arena =
            tagged_arena mt ~arity:(get_pred mt p).ps_arity (fun push ->
                Vec.iter (fun (tup, tag) -> push tup tag) entries)
          in
          Array.iter
            (fun cr ->
              Array.iteri
                (fun i ca -> if ca.ca_pred = p then round (kcasc i) cr i arena)
                cr.cr_atoms)
            cs.cs_rules)
      stratum.Analysis.preds
  done

(* The contrib slot of DRed's rederivation and propagation emissions
   carries one of these tags (the head rides in the head slot). *)
let tag_fresh = [||] (* make visible; a dead head takes a fresh rank *)

let tag_keep = [| 0 |] (* make visible; a dead head keeps its old rank *)
let tag_restore = [| 1 |] (* give a surviving head one support back *)

(* Head-bound probe rounds over rows [tuple, rank]: per row the rank is
   published in [limit.(w)] and [hits.(w)] reset for the emit, and
   [result ~stopped hits] decides what, if anything, the row buffers
   alongside a copy of its tuple. *)
let probe_morsel mt ~limit ~hits ~result mi w a ~first ~len =
  let data = Arena.data a in
  let k = Arena.arity a in
  let buf = mt.m_bufs.(w) in
  for s = first to first + len - 1 do
    let off = s * k in
    limit.(w) <- data.(off + k - 1);
    hits.(w) <- 0;
    let stopped = Maintain_kernel.run_row mi.mi_pipe data off in
    match result ~stopped hits.(w) with
    | Some c -> Vec.push buf (Array.sub data off (k - 1), c)
    | None -> ()
  done

let add_support ps tup n =
  let s = Option.value ~default:0 (Tup_tbl.find_opt ps.ps_supports tup) in
  Tup_tbl.replace ps.ps_supports tup (s + n)

(* DRed in five phases, each a sequence of buffered kernel rounds:

   - phase 1, support-counted overdeletion.  Instead of the classic
     DRed closure — overdelete everything the dead tuples ever helped
     derive, then rederive most of it back — each death decrements the
     rank-decreasing support counts of the derivations it kills, and a
     tuple dies only when its count reaches zero, i.e. when no
     surviving well-founded derivation is left.  On densely supported
     fixpoints (transitive closure over one big SCC is the canonical
     case) the cascade stops at roughly the true deleted delta instead
     of unravelling the whole stratum.  Seed rounds (derivations lost
     to lower-stratum deletions: lower atoms read Old, same-stratum
     atoms the physically untouched pre-batch fixpoint) and cascade
     rounds evaluate the decrement body through a kernel whose emit
     replays the rank conditions worker-side (sound: ranks and
     current-visibility are frozen until phase 2, and supports — which
     do change — are only read at apply time); the dead-set dedup and
     the support counter itself stay on the sequential apply side, so
     a head killed early in a round's apply order absorbs no further
     decrements.  The stratum stays physically untouched for the whole
     cascade, so a derivation with several dying atoms is
     re-enumerated — and decremented — once per death; counted once,
     decremented possibly more, the bound only drops, which stays
     sound.  The cascade drains the dead list in segments, one scan
     arena per predicate with the dying tuple's rank as a trailing
     column; lower relations read their new fixpoint (derivations
     through same-batch lower insertions were never counted, so
     decrementing or skipping them is equally sound).  The dead set
     remembers each tuple's old rank;
   - phase 2 physically removes the dead set;
   - phase 3, rederivation: a zero count is only a candidate death,
     so one head-bound probe round per (predicate, rule) over the
     candidate set restores any tuple that survives via some current
     derivation, with insertions flushed per predicate in dsets order
     — conservative counts cost time, never correctness.  A candidate
     with a derivation whose same-stratum atoms all rank below its old
     rank keeps that rank, otherwise it takes a fresh one, so no rank
     ever drops;
   - phase 4, insert propagation, seeds from the lower-stratum d_ins
     sets and drains the worklist in per-predicate segments.  Tuples
     are made visible before they enter the worklist, so any derivation
     needing two same-segment tuples is found from either scan side;
     inserts are idempotent, which makes the round order immaterial.
     A dead head derived here keeps its old rank when the deriving
     instantiation ranks below it.  Scanning a tuple that came back at
     its old rank (the worklist tag; -1 for everything else, which no
     surviving head outranks) gives one support back to the head of
     each instantiation that is rank-decreasing, binds no tuple twice
     and has the scanned atom as its greatest (rank, body position)
     rederived atom — once per instantiation, and only to heads
     neither dead nor fresh this batch.  After phase 1 a surviving
     head's count covers at most its derivations that lost no atom,
     and their ranks are unchanged; every restored instantiation holds
     a dead atom, so it is none of those, and the count stays a lower
     bound;
   - phase 5 recounts every rederived tuple's support exactly, one
     head-bound probe round per (predicate, rule). *)
let dred_pass mt cs =
  let stratum = cs.cs_stratum in
  let in_stratum p = List.mem p stratum.Analysis.preds in
  let dsets = List.map (fun p -> (p, Tup_tbl.create 64)) stratum.Analysis.preds in
  let dset p = List.assoc p dsets in
  let dead = Vec.create () in
  let kill p tup =
    let ds = dset p in
    if not (Tup_tbl.mem ds tup) then begin
      let r =
        match Tup_tbl.find_opt (get_pred mt p).ps_ranks tup with
        | Some r -> r
        | None -> 0
      in
      Tup_tbl.add ds tup r;
      Vec.push dead (p, (tup, r))
    end
  in
  let apply_decrement cr (h, _) =
    let head_ps = get_pred mt cr.cr_head in
    if not (Tup_tbl.mem (dset cr.cr_head) h) then begin
      let s = Option.value ~default:0 (Tup_tbl.find_opt head_ps.ps_supports h) in
      if s <= 1 then kill cr.cr_head h else Tup_tbl.replace head_ps.ps_supports h (s - 1)
    end
  in
  (* the emit of rule [cr] scanning body atom [i]: the head's support
     could have counted this instantiation only if it is rank-decreasing
     — the scan atom's rank comes from its trailing column (cascade) or
     is unconstrained (a lower-stratum seed), every other same-stratum
     atom's from its rank table *)
  let decrement_emit mk cr i w mi =
    let head_ps = get_pred mt cr.cr_head in
    let buf = mt.m_bufs.(w) in
    let h = Maintain_kernel.head mi.mi_pipe in
    let regs = Maintain_kernel.regs mi.mi_pipe in
    let rank_reg = mk.mk_rank_reg in
    fun () ->
      if mem_cur head_ps h then
        match Tup_tbl.find_opt head_ps.ps_ranks h with
        | None -> ()
        | Some hr ->
          if
            (rank_reg < 0 || regs.(rank_reg) < hr)
            && ranks_below mi.mi_atoms ~skip:i ~limit:hr
          then Vec.push buf (Array.copy h, [||])
  in
  (* phase 1a: derivations lost to lower-stratum deletions *)
  Array.iter
    (fun cr ->
      Array.iteri
        (fun i ca ->
          if not (in_stratum ca.ca_pred) then begin
            let dps = get_pred mt ca.ca_pred in
            let d = dps.ps_delta in
            if Tup_tbl.length d.d_del > 0 then begin
              let mk = get_kernel mt cs cr (kseed i) in
              set_emits mk (decrement_emit mk cr i);
              run_round mt mk
                ~arena:(arena_of_tbl mt d.d_del ~arity:dps.ps_arity)
                ~morsel:default_morsel ~apply:(apply_decrement cr)
            end
          end)
        cr.cr_atoms)
    cs.cs_rules;
  (* phase 1b: the cascade, in dead-list segments *)
  let cursor = ref 0 in
  while !cursor < Vec.length dead do
    let upto = Vec.length dead in
    let by_pred = segments dead ~from:!cursor ~upto in
    cursor := upto;
    List.iter
      (fun p ->
        match Hashtbl.find_opt by_pred p with
        | None -> ()
        | Some entries ->
          let arena =
            tagged_arena mt ~arity:(get_pred mt p).ps_arity (fun push ->
                Vec.iter (fun (tup, r) -> push tup r) entries)
          in
          Array.iter
            (fun cr ->
              Array.iteri
                (fun i ca ->
                  if ca.ca_pred = p then begin
                    let mk = get_kernel mt cs cr (kcasc i) in
                    set_emits mk (decrement_emit mk cr i);
                    run_round mt mk ~arena ~morsel:default_morsel
                      ~apply:(apply_decrement cr)
                  end)
                cr.cr_atoms)
            cs.cs_rules)
      stratum.Analysis.preds
  done;
  (* phase 2: physically remove the dead set *)
  dred_remove_dead mt dsets;
  (* phases 3 to 5: rederive, worklist insert propagation, recount *)
  let prop = Vec.create () in
  let insert p tup ~keep =
    let ps = get_pred mt p in
    let counts =
      match ps.ps_body with
      | Pplain c -> c
      | Pagg _ -> assert false
    in
    if not (Tup_tbl.mem counts tup) then begin
      Tup_tbl.replace counts tup 1;
      let old = Tup_tbl.find_opt (dset p) tup in
      let tag =
        match old with
        | Some r when keep ->
          Tup_tbl.replace ps.ps_ranks tup r;
          r
        | _ ->
          (* the monotone counter orders same-batch inserts by
             derivation, above every rank a surviving tuple holds *)
          Tup_tbl.replace ps.ps_ranks tup mt.rank_counter;
          mt.rank_counter <- mt.rank_counter + 1;
          -1
      in
      (* one support is a lower bound for a fresh insert; a rederived
         tuple is recounted in phase 5 *)
      Tup_tbl.replace ps.ps_supports tup 1;
      visible_insert mt ps tup;
      if old <> None then mt.cur_rederived <- mt.cur_rederived + 1;
      Vec.push prop (p, (tup, tag))
    end
  in
  (* per-worker slots the head-bound probe morsels share with their emits *)
  let limit = Array.make mt.m_workers 0 and hits = Array.make mt.m_workers 0 in
  let probe_rounds p ds ~emit ~result ~apply =
    let arena =
      tagged_arena mt ~arity:(get_pred mt p).ps_arity (fun push -> Tup_tbl.iter push ds)
    in
    Array.iter
      (fun cr ->
        if cr.cr_head = p then begin
          let mk = get_kernel mt cs cr krederive in
          set_emits mk emit;
          run_round mt mk ~arena ~morsel:(probe_morsel mt ~limit ~hits ~result) ~apply
        end)
      cs.cs_rules
  in
  (* phase 3: the probe stops at the first derivation ranked below the
     old rank, after counting every other one it passed *)
  List.iter
    (fun (p, ds) ->
      if Tup_tbl.length ds > 0 then begin
        let keep = Tup_tbl.create 64 in
        let matched = Vec.create () in
        probe_rounds p ds
          ~emit:(fun w mi () ->
            hits.(w) <- hits.(w) + 1;
            if ranks_below mi.mi_atoms ~skip:(-1) ~limit:limit.(w) then
              raise Maintain_kernel.Stop)
          ~result:(fun ~stopped n ->
            if stopped then Some tag_keep else if n > 0 then Some tag_fresh else None)
          ~apply:(fun (tup, tag) ->
            match Tup_tbl.find_opt keep tup with
            | None ->
              Tup_tbl.add keep tup (tag == tag_keep);
              Vec.push matched tup
            | Some false when tag == tag_keep -> Tup_tbl.replace keep tup true
            | Some _ -> ());
        Vec.iter (fun tup -> insert p tup ~keep:(Tup_tbl.find keep tup)) matched
      end)
    dsets;
  (* phase 4: a visible head can only take a restore, an invisible one
     is an insert whose tag says whether a dead head keeps its rank *)
  let prop_emit mk cr i w mi =
    let head_ps = get_pred mt cr.cr_head in
    let hdset = dset cr.cr_head in
    let buf = mt.m_bufs.(w) in
    let h = Maintain_kernel.head mi.mi_pipe in
    let regs = Maintain_kernel.regs mi.mi_pipe in
    let rank_reg = mk.mk_rank_reg in
    let atoms = mi.mi_atoms in
    let adsets = Array.map (fun (_, ps, _, _) -> dset ps.ps_name) atoms in
    (* every other rederived atom is below the scanned one, ranked [sr],
       in (rank, body position) order; the atoms are filled and ranked *)
    let rec greatest sr k =
      k >= Array.length atoms
      ||
      let j, ps, buf, _ = atoms.(k) in
      (j = i
      || (not (Tup_tbl.mem adsets.(k) buf))
      ||
      let r = Tup_tbl.find ps.ps_ranks buf in
      r < sr || (r = sr && j < i))
      && greatest sr (k + 1)
    in
    fun () ->
      let sr = if rank_reg < 0 then -1 else regs.(rank_reg) in
      if mem_cur head_ps h then begin
        if sr >= 0 && (not (Tup_tbl.mem hdset h)) && not (Tup_tbl.mem head_ps.ps_delta.d_ins h)
        then
          match Tup_tbl.find_opt head_ps.ps_ranks h with
          | Some hr
            when sr < hr
                 && ranks_below atoms ~skip:i ~limit:hr
                 && (not (dup_atoms atoms))
                 && greatest sr 0 ->
            Vec.push buf (Array.copy h, tag_restore)
          | _ -> ()
      end
      else
        let keep =
          match Tup_tbl.find_opt hdset h with
          | Some old ->
            (rank_reg < 0 || (sr >= 0 && sr < old)) && ranks_below atoms ~skip:i ~limit:old
          | None -> false
        in
        Vec.push buf (Array.copy h, if keep then tag_keep else tag_fresh)
  in
  propagate_inserts mt cs prop ~emit:prop_emit ~apply:(fun cr (h, tag) ->
      if tag == tag_restore then begin
        add_support (get_pred mt cr.cr_head) h 1;
        mt.cur_restored <- mt.cur_restored + 1
      end
      else insert cr.cr_head h ~keep:(tag == tag_keep));
  (* phase 5: exact support recount of the rederived tuples, at their
     final ranks *)
  List.iter
    (fun (p, ds) ->
      let ps = get_pred mt p in
      let back = Tup_tbl.create 64 in
      Tup_tbl.iter
        (fun tup _ ->
          match Tup_tbl.find_opt ps.ps_ranks tup with
          | Some r ->
            Tup_tbl.remove ps.ps_supports tup;
            Tup_tbl.add back tup r
          | None -> ())
        ds;
      if Tup_tbl.length back > 0 then begin
        mt.cur_recounted <- mt.cur_recounted + Tup_tbl.length back;
        probe_rounds p back
          ~emit:(fun w mi () ->
            if ranks_below mi.mi_atoms ~skip:(-1) ~limit:limit.(w) && not (dup_atoms mi.mi_atoms)
            then hits.(w) <- hits.(w) + 1)
          ~result:(fun ~stopped:_ n -> if n > 0 then Some [| n |] else None)
          ~apply:(fun (tup, c) -> add_support ps tup c.(0))
      end)
    dsets

(* --- recursive min/max aggregate strata: monotone insert propagation --- *)

(* Monotone insert propagation with [merge] as the apply.  Merging
   keeps the best value per group and any improvement re-enters the
   worklist, so the segment rounds reach the same monotone fixpoint in
   any order. *)
let aggrec_insert_pass mt cs =
  let prop = Vec.create () in
  let merge p tup =
    let ps = get_pred mt p in
    match ps.ps_body with
    | Pplain counts ->
      if not (Tup_tbl.mem counts tup) then begin
        Tup_tbl.replace counts tup 1;
        visible_insert mt ps tup;
        Vec.push prop (p, (tup, -1))
      end
    | Pagg a -> (
      let g = group_of a tup in
      let v = tup.(a.a_pos) in
      let improves =
        match Tup_tbl.find_opt a.a_best g with
        | None -> true
        | Some cur -> (
          match a.a_kind with
          | Ast.Min -> v < cur
          | Ast.Max -> v > cur
          | Ast.Count | Ast.Sum -> invalid_arg "Maintain: non-monotone aggregate insert")
      in
      if improves then begin
        (match Tup_tbl.find_opt a.a_best g with
        | Some cur ->
          Tup_tbl.remove a.a_best g;
          visible_remove mt ps (assemble a g cur)
        | None -> ());
        Tup_tbl.replace a.a_best g v;
        visible_insert mt ps tup;
        Vec.push prop (p, (tup, -1))
      end)
  in
  propagate_inserts mt cs prop
    ~emit:(fun _mk _cr _i -> push_emit mt)
    ~apply:(fun cr (h, _) -> merge cr.cr_head h)

(* --- stratum recompute through the parallel engine --- *)

let collect_syms rules =
  let acc = Hashtbl.create 16 in
  let term = function
    | Ast.Sym s -> Hashtbl.replace acc s ()
    | Ast.Int _ | Ast.Var _ -> ()
  in
  let rec expr = function
    | Ast.Term t -> term t
    | Ast.Binop (_, a, b) ->
      expr a;
      expr b
    | Ast.Neg e -> expr e
  in
  List.iter
    (fun (r : Ast.rule) ->
      List.iter
        (fun (ha : Ast.head_arg) ->
          match ha with
          | Ast.Plain t -> term t
          | Ast.Agg (_, ts) -> List.iter term ts)
        r.Ast.head_args;
      List.iter
        (fun lit ->
          match lit with
          | Ast.Pos a | Ast.Neg_lit a -> List.iter term a.Ast.args
          | Ast.Cmp (_, l, r') ->
            expr l;
            expr r')
        r.Ast.body)
    rules;
  Hashtbl.fold (fun s () l -> s :: l) acc []

let sub_plan mt cs =
  match cs.cs_sub with
  | Some p -> p
  | None ->
    let rules = cs.cs_stratum.Analysis.base_rules @ cs.cs_stratum.Analysis.recursive_rules in
    let program = { Ast.rules } in
    let info =
      match Analysis.analyze program with
      | Ok i -> i
      | Error e -> invalid_arg ("Maintain: sub-program analysis failed: " ^ e)
    in
    (* resolve every symbolic constant against the session plan's table
       so interned ids agree with the maintained tuples *)
    let params =
      List.fold_left
        (fun acc s ->
          if List.mem_assoc s acc then acc
          else (s, Dcd_util.Symbol.intern mt.plan.Physical.symbols s) :: acc)
        mt.plan.Physical.params (collect_syms rules)
    in
    let plan =
      match Physical.compile ~params info with
      | Ok p -> p
      | Error e -> invalid_arg ("Maintain: sub-program compile failed: " ^ e)
    in
    cs.cs_sub <- Some plan;
    plan

let visible_vec_of mt p =
  let v = Vec.create () in
  iter_vis_cur (get_pred mt p) (fun tup -> Vec.push v tup);
  v

let recompute mt cs =
  mt.cur_recomputed <- mt.cur_recomputed + 1;
  let sub = sub_plan mt cs in
  let edb = List.map (fun p -> (p, visible_vec_of mt p)) sub.Physical.info.Analysis.edb in
  let config =
    {
      mt.config with
      Parallel.fault = None;
      checkpoint_every = 0;
      max_recoveries = 0;
      coord = Coord.default_config;
    }
  in
  let result = Parallel.run ~runtime:mt.runtime sub ~edb ~config in
  List.iter
    (fun p ->
      let ps = get_pred mt p in
      let newvec = Parallel.relation_vec result p in
      match ps.ps_body with
      | Pplain counts ->
        let newset = Tup_tbl.create (max 16 (Vec.length newvec)) in
        Vec.iter (fun tup -> Tup_tbl.replace newset tup ()) newvec;
        let stale = ref [] in
        Tup_tbl.iter
          (fun tup _ -> if not (Tup_tbl.mem newset tup) then stale := tup :: !stale)
          counts;
        List.iter
          (fun tup ->
            Tup_tbl.remove counts tup;
            visible_remove mt ps tup)
          !stale;
        Tup_tbl.iter
          (fun tup () ->
            if not (Tup_tbl.mem counts tup) then begin
              Tup_tbl.replace counts tup 1;
              visible_insert mt ps tup
            end)
          newset
      | Pagg a ->
        let newbest = Tup_tbl.create 64 in
        Vec.iter (fun tup -> Tup_tbl.replace newbest (group_of a tup) tup.(a.a_pos)) newvec;
        let stale = ref [] in
        Tup_tbl.iter
          (fun g v ->
            match Tup_tbl.find_opt newbest g with
            | Some v' when v' = v -> ()
            | _ -> stale := (g, v) :: !stale)
          a.a_best;
        List.iter
          (fun (g, v) ->
            Tup_tbl.remove a.a_best g;
            visible_remove mt ps (assemble a g v))
          !stale;
        Tup_tbl.iter
          (fun g v ->
            if not (Tup_tbl.mem a.a_best g) then begin
              Tup_tbl.replace a.a_best g v;
              visible_insert mt ps (assemble a g v)
            end)
          newbest)
    cs.cs_stratum.Analysis.preds

(* --- construction --- *)

let new_ps name arity body =
  {
    ps_name = name;
    ps_arity = arity;
    ps_body = body;
    ps_indexes = [];
    ps_delta = { d_ins = Tup_tbl.create 16; d_del = Tup_tbl.create 16; d_overlays = [] };
    ps_ranks = Tup_tbl.create 16;
    ps_supports = Tup_tbl.create 16;
  }

let arity_of info p =
  match List.assoc_opt p info.Analysis.arities with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Maintain: unknown arity for %s" p)

let create ~plan ~config ~runtime ~catalog =
  if config.Parallel.max_iterations > 0 then
    invalid_arg "Maintain: bounded-iteration programs cannot be incrementally maintained";
  if runtime.Parallel.rt_workers <> config.Parallel.workers then
    invalid_arg "Maintain: runtime/config worker mismatch";
  if config.Parallel.maintain_workers < 0 then
    invalid_arg "Maintain: maintain_workers must be >= 0";
  let m_workers =
    let req =
      if config.Parallel.maintain_workers = 0 then config.Parallel.workers
      else config.Parallel.maintain_workers
    in
    max 1 (min req config.Parallel.workers)
  in
  let mt =
    {
      plan;
      config;
      runtime;
      preds = Hashtbl.create 32;
      edb = Hashtbl.create 16;
      m_workers;
      m_steal =
        (if m_workers > 1 then
           Some
             (Steal.create ~workers:m_workers ~enabled:config.Parallel.steal
                ~morsel_tuples:(max 1 config.Parallel.morsel_tuples))
         else None);
      m_fault =
        (match config.Parallel.fault with
        | Some spec when m_workers > 1 -> Some (Fault.create ~workers:m_workers spec)
        | _ -> None);
      m_bufs = Array.init m_workers (fun _ -> Vec.create ());
      m_arenas = Hashtbl.create 8;
      m_wjoin = Array.make m_workers 0.;
      m_wmorsels = Array.make m_workers 0;
      m_wsteals = Array.make m_workers 0;
      m_wstolen = Array.make m_workers 0;
      strata = [];
      recording = false;
      rank_counter = 1;
      cur_overdeleted = 0;
      cur_rederived = 0;
      cur_restored = 0;
      cur_recounted = 0;
      cur_recomputed = 0;
    }
  in
  let info = plan.Physical.info in
  List.iter
    (fun pred ->
      let counts = Tup_tbl.create 64 in
      (match Catalog.find catalog pred with
      | Some rel -> Relation.iter (fun tup -> Tup_tbl.replace counts tup 1) rel
      | None -> ());
      Hashtbl.replace mt.preds pred (new_ps pred (arity_of info pred) (Pplain counts));
      Hashtbl.replace mt.edb pred ())
    info.Analysis.edb;
  mt.strata <-
    List.map
      (fun (st : Analysis.stratum) ->
        let rules = st.Analysis.base_rules @ st.Analysis.recursive_rules in
        let has_neg =
          List.exists
            (fun (r : Ast.rule) ->
              List.exists
                (function
                  | Ast.Neg_lit _ -> true
                  | Ast.Pos _ | Ast.Cmp _ -> false)
                r.Ast.body)
            rules
        in
        let agg_preds =
          List.filter (fun p -> List.mem_assoc p info.Analysis.aggregated) st.Analysis.preds
        in
        let mode =
          if has_neg then M_subrun
          else if st.Analysis.kind = Analysis.Nonrecursive then M_counting
          else if agg_preds <> [] then M_aggrec
          else M_dred
        in
        let insert_ok =
          List.for_all
            (fun p ->
              match List.assoc p info.Analysis.aggregated with
              | _, (Ast.Min | Ast.Max) -> true
              | _, (Ast.Count | Ast.Sum) -> false)
            agg_preds
        in
        let body_preds =
          List.sort_uniq compare
            (List.concat_map
               (fun (r : Ast.rule) ->
                 List.filter_map
                   (function
                     | Ast.Pos a | Ast.Neg_lit a ->
                       if List.mem a.Ast.pred st.Analysis.preds then None else Some a.Ast.pred
                     | Ast.Cmp _ -> None)
                   r.Ast.body)
               rules)
        in
        List.iter
          (fun p ->
            let body =
              match List.assoc_opt p info.Analysis.aggregated with
              | Some (pos, kind) ->
                Pagg
                  {
                    a_pos = pos;
                    a_kind = kind;
                    a_best = Tup_tbl.create 64;
                    a_support = (if mode = M_counting then Some (Tup_tbl.create 64) else None);
                  }
              | None -> Pplain (Tup_tbl.create 64)
            in
            Hashtbl.replace mt.preds p (new_ps p (arity_of info p) body))
          st.Analysis.preds;
        let cs =
          {
            cs_stratum = st;
            cs_mode = mode;
            cs_insert_ok = insert_ok;
            cs_body_preds = body_preds;
            cs_rules = Array.of_list (List.map compile_rule rules);
            cs_sub = None;
          }
        in
        (match mode with
        | M_counting ->
          (* rebuild the support from scratch (one +1 round per rule
             over a unit scan: the bodies are all lower-stratum), then
             verify the visible set reproduces the engine's
             materialization exactly *)
          let arena = scratch_arena mt ~arity:0 in
          ignore (Arena.push arena [||]);
          Array.iter (fun cr -> count_round mt cr (full_kernel mt cs cr) ~arena ~sign:1) cs.cs_rules;
          List.iter
            (fun p ->
              let ps = get_pred mt p in
              let rel = Catalog.find catalog p in
              let rel_len = match rel with Some r -> Relation.length r | None -> 0 in
              let vis_len = visible_count_ps ps in
              let ok =
                rel_len = vis_len
                &&
                match rel with
                | None -> true
                | Some r ->
                  let good = ref true in
                  Relation.iter (fun tup -> if not (mem_cur ps tup) then good := false) r;
                  !good
              in
              if not ok then
                invalid_arg
                  (Printf.sprintf
                     "Maintain: support build diverged from the engine on %s (engine %d \
                      tuples, maintained %d)"
                     p rel_len vis_len))
            st.Analysis.preds
        | M_dred | M_aggrec | M_subrun ->
          (* adopt the engine's fixpoint as the maintained state *)
          List.iter
            (fun p ->
              let ps = get_pred mt p in
              match Catalog.find catalog p with
              | None -> ()
              | Some rel -> (
                match ps.ps_body with
                | Pplain counts -> Relation.iter (fun tup -> Tup_tbl.replace counts tup 1) rel
                | Pagg a ->
                  Relation.iter
                    (fun tup -> Tup_tbl.replace a.a_best (group_of a tup) tup.(a.a_pos))
                    rel))
            st.Analysis.preds;
          if mode = M_dred then build_ranks mt cs);
        cs)
      info.Analysis.strata;
  (* the unit-scan support rounds buffered whole relations inline;
     batches start again from a small buffer *)
  mt.m_bufs.(0) <- Vec.create ();
  mt.recording <- true;
  mt

(* --- batch application --- *)

(* Validates (and defensively copies) a whole batch before any
   mutation: user errors must not tear the resident state. *)
let validate_norm mt updates =
  List.map
      (fun u ->
        let name, tup, ins =
          match u with
          | Insert (n, t) -> (n, t, true)
          | Delete (n, t) -> (n, t, false)
        in
        let ps =
          match Hashtbl.find_opt mt.preds name with
          | Some ps -> ps
          | None -> invalid_arg (Printf.sprintf "Maintain: unknown relation %s" name)
        in
        if not (Hashtbl.mem mt.edb name) then
          invalid_arg (Printf.sprintf "Maintain: %s is derived, not a base relation" name);
        if Array.length tup <> ps.ps_arity then
          invalid_arg
            (Printf.sprintf "Maintain: arity mismatch for %s (expected %d, got %d)" name
               ps.ps_arity (Array.length tup));
        (ps, Array.copy tup, ins))
    updates

let validate mt updates = ignore (validate_norm mt updates)

let apply mt updates =
  let norm = validate_norm mt updates in
  mt.cur_overdeleted <- 0;
  mt.cur_rederived <- 0;
  mt.cur_restored <- 0;
  mt.cur_recounted <- 0;
  mt.cur_recomputed <- 0;
  Array.fill mt.m_wjoin 0 mt.m_workers 0.;
  Array.fill mt.m_wmorsels 0 mt.m_workers 0;
  Array.fill mt.m_wsteals 0 mt.m_workers 0;
  Array.fill mt.m_wstolen 0 mt.m_workers 0;
  Array.iter Vec.clear mt.m_bufs;
  List.iter
    (fun (ps, tup, ins) ->
      let counts =
        match ps.ps_body with
        | Pplain c -> c
        | Pagg _ -> assert false
      in
      if ins then begin
        if not (Tup_tbl.mem counts tup) then begin
          Tup_tbl.replace counts tup 1;
          visible_insert mt ps tup
        end
      end
      else if Tup_tbl.mem counts tup then begin
        Tup_tbl.remove counts tup;
        visible_remove mt ps tup
      end)
    norm;
  List.iter
    (fun cs ->
      let changed =
        List.exists
          (fun p ->
            let d = (get_pred mt p).ps_delta in
            Tup_tbl.length d.d_ins > 0 || Tup_tbl.length d.d_del > 0)
          cs.cs_body_preds
      in
      if changed then
        match cs.cs_mode with
        | M_counting -> counting_pass mt cs
        | M_dred -> dred_pass mt cs
        | M_subrun -> recompute mt cs
        | M_aggrec ->
          let has_del =
            List.exists
              (fun p -> Tup_tbl.length (get_pred mt p).ps_delta.d_del > 0)
              cs.cs_body_preds
          in
          if cs.cs_insert_ok && not has_del then aggrec_insert_pass mt cs else recompute mt cs)
    mt.strata;
  let changed = ref [] in
  let deltas = ref [] in
  let base_i = ref 0
  and base_d = ref 0
  and der_i = ref 0
  and der_d = ref 0 in
  Hashtbl.iter
    (fun name ps ->
      let d = ps.ps_delta in
      let i = Tup_tbl.length d.d_ins and r = Tup_tbl.length d.d_del in
      if i > 0 || r > 0 then begin
        changed := (name, i, r) :: !changed;
        (* the tuple arrays outlive the delta reset below; nothing in
           this module mutates a tuple once stored *)
        deltas :=
          ( name,
            Tup_tbl.fold (fun t () acc -> t :: acc) d.d_ins [],
            Tup_tbl.fold (fun t () acc -> t :: acc) d.d_del [] )
          :: !deltas;
        if Hashtbl.mem mt.edb name then begin
          base_i := !base_i + i;
          base_d := !base_d + r
        end
        else begin
          der_i := !der_i + i;
          der_d := !der_d + r
        end
      end)
    mt.preds;
  let report =
    {
      br_base_inserted = !base_i;
      br_base_deleted = !base_d;
      br_derived_inserted = !der_i;
      br_derived_deleted = !der_d;
      br_overdeleted = mt.cur_overdeleted;
      br_rederived = mt.cur_rederived;
      br_restored = mt.cur_restored;
      br_recounted = mt.cur_recounted;
      br_recomputed_strata = mt.cur_recomputed;
      br_changed = List.sort compare !changed;
      br_deltas = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !deltas;
      br_workers =
        List.init mt.m_workers (fun w ->
            (mt.m_wjoin.(w), mt.m_wmorsels.(w), mt.m_wsteals.(w), mt.m_wstolen.(w)));
    }
  in
  Hashtbl.iter
    (fun _ ps ->
      let d = ps.ps_delta in
      Tup_tbl.reset d.d_ins;
      Tup_tbl.reset d.d_del;
      d.d_overlays <- [])
    mt.preds;
  report

(* --- invariant check --- *)

(* Counts every rank-decreasing derivation of every visible DRed tuple
   through the head-bound probe kernels, inline on instance 0. *)
let check_invariants mt =
  let exception Broken of string in
  let broken fmt = Printf.ksprintf (fun s -> raise (Broken s)) fmt in
  let check cs p =
    let ps = get_pred mt p in
    let counts =
      match ps.ps_body with
      | Pplain c -> c
      | Pagg _ -> broken "aggregate %s in a DRed stratum" p
    in
    let stray what tbl =
      Tup_tbl.iter
        (fun tup _ ->
          if not (Tup_tbl.mem counts tup) then
            broken "%s%s has a %s but is not visible" p (Tuple.to_string tup) what)
        tbl
    in
    stray "rank" ps.ps_ranks;
    stray "support" ps.ps_supports;
    let derivations = Tup_tbl.create (Tup_tbl.length counts) in
    let limit = ref 0 and n = ref 0 in
    Array.iter
      (fun cr ->
        if cr.cr_head = p then begin
          let mi = (get_kernel mt cs cr krederive).mk_insts.(0) in
          Maintain_kernel.set_emit mi.mi_pipe (fun () ->
              if ranks_below mi.mi_atoms ~skip:(-1) ~limit:!limit then incr n);
          Tup_tbl.iter
            (fun tup _ ->
              match Tup_tbl.find_opt ps.ps_ranks tup with
              | None -> broken "%s%s is visible without a rank" p (Tuple.to_string tup)
              | Some r ->
                limit := r;
                n := 0;
                ignore (Maintain_kernel.run_row mi.mi_pipe tup 0);
                let d = Option.value ~default:0 (Tup_tbl.find_opt derivations tup) in
                Tup_tbl.replace derivations tup (d + !n))
            counts;
          Maintain_kernel.set_emit mi.mi_pipe ignore
        end)
      cs.cs_rules;
    Tup_tbl.iter
      (fun tup _ ->
        let d = Option.value ~default:0 (Tup_tbl.find_opt derivations tup) in
        let s = Option.value ~default:0 (Tup_tbl.find_opt ps.ps_supports tup) in
        if d = 0 then broken "%s%s has no rank-decreasing derivation" p (Tuple.to_string tup)
        else if s > d then
          broken "%s%s has support %d but only %d rank-decreasing derivations" p
            (Tuple.to_string tup) s d)
      counts
  in
  match
    List.iter
      (fun cs -> if cs.cs_mode = M_dred then List.iter (check cs) cs.cs_stratum.Analysis.preds)
      mt.strata
  with
  | () -> Ok ()
  | exception Broken msg -> Error ("Maintain: " ^ msg)

(* --- read access for the session layer --- *)

let visible mt name f = iter_vis_cur (get_pred mt name) f

let visible_count mt name = visible_count_ps (get_pred mt name)

let arity mt name = (get_pred mt name).ps_arity

let predicates mt = List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) mt.preds [])

let is_base mt name = Hashtbl.mem mt.edb name
