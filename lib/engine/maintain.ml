(* Incremental maintenance of a materialized fixpoint under batched
   base-relation updates.

   The maintenance state mirrors the engine's catalog on flat
   {!Tuple_table}s, processed stratum by stratum in the same bottom-up
   order the engine evaluated them:

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
     domain pool), then diff against the previous state.

   Each predicate keeps every visible tuple in one slot of its table,
   whose extra columns carry the derivation count (counting strata) or
   the DRed rank and support (DRed strata).  Keyed indexes are
   {!Slot_index} chains of those slots; aggregate supports are slots of
   their own, chained per group.  The per-batch delta sets, their
   delete overlays, the DRed dead sets and the insert worklists are
   flat tables too, so every kernel round scans its rows in place.

   Every rule body, at [create] as well as in [apply], is ordered and
   compiled by the planner for the scan at hand
   ({!Physical.compile_scan}) and evaluated as an {!Eval} pipeline
   whose context resolves each body atom to its Old- or Cur-visibility
   access; a round runs inline on the coordinator or as a morsel round
   on the pool ([run_round]), and buffers its emissions as flat rows.

   The old (pre-batch) state of a finished lower stratum is
   reconstructed per predicate as [(current \ d_ins) ∪ d_del] from the
   per-batch delta tables, with lazily built overlay chains over the
   delete table for keyed lookups. *)

open Dcd_planner
module Ast = Dcd_datalog.Ast
module Analysis = Dcd_datalog.Analysis
module Tuple = Dcd_storage.Tuple
module Tuple_table = Dcd_storage.Tuple_table
module Slot_index = Dcd_storage.Slot_index
module Relation = Dcd_storage.Relation
module Vec = Dcd_util.Vec
module Clock = Dcd_util.Clock
module Fault = Dcd_concurrent.Fault
module Domain_pool = Dcd_concurrent.Domain_pool

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

(* Extra columns of a predicate's visible table: the derivation count
   in counting strata, the DRed rank and support in DRed strata (other
   tables hold sets: a visible tuple has count 1). *)
let c_count = 0
let c_rank = 0

(* A lower bound on the number of current rank-decreasing derivations
   of each visible tuple — those whose same-stratum atoms all rank
   below it.  Exact after [build_ranks] and for every tuple a DRed pass
   rederives (it is recounted at the end of the pass); deletions
   decrement, fresh insertions start at 1, and a derivation that gets
   back all its atoms by rederivation gives its surviving head one
   count back.  A positive count proves the tuple derivable in the new
   fixpoint, so only zero-count tuples join the overdeletion frontier.
   Lower-bound discipline keeps this sound: decrements may over-fire
   and increments under-fire — a premature zero only costs a
   rederivation check, never a wrong fixpoint.  The rank is a
   well-founded derivation rank grounding these counts; -1 marks a
   tuple [build_ranks] has not reached yet. *)
let c_support = 1

(* extra columns of a DRed dead table: the rank the tuple died with,
   and how phase 3 matched it (0 none, [tag_fresh], [tag_keep]) *)
let c_old_rank = 0
let c_match = 1

(* extra column of an insert worklist: the rank a rederived tuple came
   back at, -1 for everything else *)
let c_tag = 0

(* extra column of an aggregate support slot: its derivation count *)
let c_derivs = 0

(* Counting support for an aggregated head in a non-recursive stratum:
   one slot per group ++ contributor (count), group ++ contributor ++
   value (sum) or group ++ value (min, max), chained per group —
   enough to recompute the group's visible value after any mix of
   derivation gains and losses.  Count groups need only their chain
   lengths, so their chains stay unlinked. *)
type support = {
  su_tbl : Tuple_table.t; (* extra column: derivation count *)
  su_groups : Slot_index.t; (* per group, over su_tbl *)
  su_width : int; (* contributor ints in a count/sum key *)
  su_tagged : bool; (* rules disagree on the width: keys carry it *)
  su_key : int array; (* key scratch *)
}

type agg = {
  a_pos : int;
  a_kind : Ast.agg_kind;
  a_group : Slot_index.t; (* the visible tuple of each group, one of ps_indexes *)
  a_gkey : int array; (* group scratch *)
  a_row : int array; (* assembled-tuple scratch *)
  a_support : support option; (* counting strata only *)
}

(* Per-batch net changes live in [ps_ins]/[ps_del].  Invariants after
   cancellation: del ∩ visible = ∅ and ins ⊆ visible, so the old state
   is exactly (visible \ ins) ∪ del. *)
type pred_state = {
  ps_name : string;
  ps_arity : int;
  ps_tbl : Tuple_table.t; (* visible tuples *)
  ps_agg : agg option;
  mutable ps_indexes : Slot_index.t list; (* over ps_tbl slots *)
  ps_ins : Tuple_table.t;
  ps_del : Tuple_table.t;
  mutable ps_overlays : Slot_index.t list;
      (* lazy keyed chains over ps_del, for Old-visibility lookups *)
  ps_dead : Tuple_table.t; (* DRed: the running pass's dead set *)
  ps_prop : Tuple_table.t; (* the running pass's insert worklist *)
}

(* --- compiled delta kernels --- *)

(* One worker's private half of a compiled maintenance kernel: its
   {!Eval.prepared} pipeline, the emit continuation the running round
   installed, and a filler per same-stratum body atom, tagged with its
   body position, so the DRed emit closures can look up that atom's
   derivation rank without a boxed environment. *)
type mk_inst = {
  mi_pipe : Eval.prepared;
  mi_emit : Eval.emit ref;
  mi_atoms : (int * pred_state * int array * (unit -> unit)) array;
}

type mkernel = {
  mk_insts : mk_inst array; (* one per maintenance worker *)
  mk_rank_reg : int; (* cascade kernels: register of the scan rank column, -1 if none *)
  mk_stride : int; (* width of a buffered emission: head ++ contributors ++ tag *)
  mk_prewarm : (unit -> unit) list;
      (* forces lazily built per-batch structures (delete overlays)
         on the coordinator before a parallel round reads them *)
}

type crule = {
  cr_rule : Ast.rule;
  cr_head : string;
  cr_agg : (int * Ast.agg_kind) option;
  cr_atoms : (int * Ast.atom) array; (* the positive atoms, with their body positions *)
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
}

(* A worker's emission buffer: flat rows of head ++ contributors ++ one
   int tag (probe rounds buffer (slot, value) pairs instead), drained
   by the coordinator after the round's barrier. *)
type ebuf = {
  mutable e_data : int array;
  mutable e_len : int; (* ints used *)
}

type t = {
  plan : Physical.t;
  config : Parallel.config;
  pool : Domain_pool.t; (* the resident pool the initial run used *)
  preds : (string, pred_state) Hashtbl.t;
  edb : (string, unit) Hashtbl.t;
  m_workers : int;
      (* effective maintenance parallelism: config.maintain_workers
         clamped to [1, workers], 0 meaning "same as workers" *)
  m_steal : Steal.t option; (* morsel board for parallel rounds (m_workers > 1) *)
  m_fault : Fault.t option; (* injection schedule for the Maintain site *)
  m_bufs : ebuf array;
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

let cols_equal a b = Array.length a = Array.length b && Array.for_all2 ( = ) a b

(* The group columns of an aggregated predicate: every column but the
   aggregate's. *)
let group_cols arity pos = Array.of_list (List.filter (( <> ) pos) (List.init arity Fun.id))

(* [a_row] := the group in [a_gkey] with [v] at the aggregate position *)
let assemble a v =
  let gi = ref 0 in
  for c = 0 to Array.length a.a_row - 1 do
    if c = a.a_pos then a.a_row.(c) <- v
    else begin
      a.a_row.(c) <- a.a_gkey.(!gi);
      incr gi
    end
  done

(* a table sized for [n] tuples plus headroom for a session's churn *)
let presized n = n + (n / 8) + 16

(* --- visibility --- *)

let visible_count_ps ps = Tuple_table.length ps.ps_tbl

let mem_cur ps data off = Tuple_table.find_slice ps.ps_tbl data off >= 0

let mem_vis ps visk data off =
  match visk with
  | Cur -> mem_cur ps data off
  | Old ->
    (mem_cur ps data off && not (Tuple_table.mem_slice ps.ps_ins data off))
    || Tuple_table.mem_slice ps.ps_del data off

let iter_vis ps visk f =
  match visk with
  | Cur -> Tuple_table.iter_slices ps.ps_tbl f
  | Old ->
    Tuple_table.iter_slices ps.ps_tbl (fun data off ->
        if not (Tuple_table.mem_slice ps.ps_ins data off) then f data off);
    Tuple_table.iter_slices ps.ps_del f

(* the rank of a visible tuple, -1 if invisible or not ranked yet *)
let rank_of ps data off =
  let s = Tuple_table.find_slice ps.ps_tbl data off in
  if s < 0 then -1 else Tuple_table.get ps.ps_tbl s c_rank

(* --- indexes and delta recording --- *)

let ensure_index ps cols =
  match List.find_opt (fun ix -> cols_equal (Slot_index.cols ix) cols) ps.ps_indexes with
  | Some ix -> ix
  | None ->
    let ix = Slot_index.create ps.ps_tbl ~cols in
    ps.ps_indexes <- ix :: ps.ps_indexes;
    ix

let overlay ps cols =
  match List.find_opt (fun ov -> cols_equal (Slot_index.cols ov) cols) ps.ps_overlays with
  | Some ov -> ov
  | None ->
    let ov = Slot_index.create ps.ps_del ~cols in
    ps.ps_overlays <- ov :: ps.ps_overlays;
    ov

let record_ins ps data off =
  if Tuple_table.remove_slice ps.ps_del data off >= 0 then ps.ps_overlays <- []
  else ignore (Tuple_table.add_slice ps.ps_ins data off)

let record_del ps data off =
  if Tuple_table.remove_slice ps.ps_ins data off < 0 then begin
    ignore (Tuple_table.add_slice ps.ps_del data off);
    ps.ps_overlays <- []
  end

(* The single entry points for a visibility flip: maintain every index
   and (once serving) the per-batch delta tables.  [visible_add] copies
   the tuple at [src.(off ..)] into a fresh slot whose extra columns
   the caller then fills; [visible_remove] frees the slot. *)
let visible_add mt ps src off =
  let tbl = ps.ps_tbl in
  let s = Tuple_table.add_slice tbl src off in
  List.iter (fun ix -> Slot_index.add ix s) ps.ps_indexes;
  if mt.recording then record_ins ps (Tuple_table.data tbl) (Tuple_table.offset tbl s);
  s

let visible_remove mt ps s =
  let tbl = ps.ps_tbl in
  List.iter (fun ix -> Slot_index.remove ix s) ps.ps_indexes;
  if mt.recording then record_del ps (Tuple_table.data tbl) (Tuple_table.offset tbl s);
  Tuple_table.remove_slot tbl s

(* --- support updates --- *)

let plain_add mt ps data off sign =
  let tbl = ps.ps_tbl in
  let s = Tuple_table.find_slice tbl data off in
  let cur = if s < 0 then 0 else Tuple_table.get tbl s c_count in
  let nv = cur + sign in
  if nv < 0 then
    invalid_arg
      (Printf.sprintf "Maintain: negative support for %s %s" ps.ps_name
         (Tuple.to_string (Array.sub data off ps.ps_arity)));
  if s < 0 then begin
    if nv > 0 then Tuple_table.set tbl (visible_add mt ps data off) c_count nv
  end
  else if nv = 0 then visible_remove mt ps s
  else Tuple_table.set tbl s c_count nv

(* Makes [group ++ v] the visible tuple of the group in [a_gkey]
   ([has]), or leaves the group with none. *)
let set_group_value mt ps a ~has v =
  let cur = Slot_index.head a.a_group a.a_gkey in
  let tbl = ps.ps_tbl in
  let same = cur >= 0 && has && (Tuple_table.data tbl).(Tuple_table.offset tbl cur + a.a_pos) = v in
  if not same then begin
    if cur >= 0 then visible_remove mt ps cur;
    if has then begin
      assemble a v;
      ignore (visible_add mt ps a.a_row 0)
    end
  end

let group_of a (data : int array) off =
  let gi = ref 0 in
  for c = 0 to Array.length a.a_row - 1 do
    if c <> a.a_pos then begin
      a.a_gkey.(!gi) <- data.(off + c);
      incr gi
    end
  done

(* Σ over the contributors of the group whose chain starts at [head]
   of each one's largest value; the chain is sorted by contributor,
   largest value first. *)
let sum_group su head =
  let t = su.su_tbl in
  let g = Array.length (Slot_index.cols su.su_groups) in
  let cw = Tuple_table.arity t - g - 1 in
  let slots = Vec.create () in
  let s = ref head in
  while !s >= 0 do
    Vec.push slots !s;
    s := Slot_index.next su.su_groups !s
  done;
  let data = Tuple_table.data t and stride = Tuple_table.stride t in
  let cmp_contrib a b =
    let rec go i =
      if i = cw then 0
      else
        let c = compare data.((a * stride) + g + i) data.((b * stride) + g + i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  Vec.sort
    (fun a b ->
      let c = cmp_contrib a b in
      if c <> 0 then c else compare data.((b * stride) + g + cw) data.((a * stride) + g + cw))
    slots;
  let sum = ref 0 in
  Vec.iteri
    (fun i s ->
      if i = 0 || cmp_contrib (Vec.get slots (i - 1)) s <> 0 then
        sum := !sum + data.((s * stride) + g + cw))
    slots;
  !sum

(* Recomputes the visible value of the group in [a_gkey] from its
   support after an update.  Sum groups fold each contributor's largest
   pending value — a contributor carrying several distinct values at
   once has no engine-defined order, and the initial-build verification
   rejects programs where this matters. *)
let refresh_group mt ps a su =
  let n = Slot_index.count su.su_groups a.a_gkey in
  let v =
    if n = 0 then 0
    else
      match a.a_kind with
      | Ast.Count -> n
      | Ast.Sum -> sum_group su (Slot_index.head su.su_groups a.a_gkey)
      | Ast.Min | Ast.Max ->
        let t = su.su_tbl in
        let g = Array.length a.a_gkey in
        let data = Tuple_table.data t and stride = Tuple_table.stride t in
        let s = ref (Slot_index.head su.su_groups a.a_gkey) in
        let best = ref data.((!s * stride) + g) in
        while !s >= 0 do
          let x = data.((!s * stride) + g) in
          if (a.a_kind = Ast.Min && x < !best) || (a.a_kind = Ast.Max && x > !best) then best := x;
          s := Slot_index.next su.su_groups !s
        done;
        !best
  in
  set_group_value mt ps a ~has:(n > 0) v

(* One derivation of the head at [data.(off ..)] with its [cw]
   contributors at [data.(coff ..)] gained ([sign] = 1) or lost. *)
let agg_support_add mt ps a data off coff cw sign =
  let su =
    match a.a_support with
    | Some su -> su
    | None -> invalid_arg "Maintain: aggregate support missing"
  in
  group_of a data off;
  let k = su.su_key in
  let g = Array.length a.a_gkey in
  Array.blit a.a_gkey 0 k 0 g;
  (match a.a_kind with
  | Ast.Min | Ast.Max -> k.(g) <- data.(off + a.a_pos)
  | Ast.Count | Ast.Sum ->
    let at = if su.su_tagged then (k.(g) <- cw; g + 1) else g in
    for i = 0 to su.su_width - 1 do
      k.(at + i) <- (if i < cw then data.(coff + i) else 0)
    done;
    if a.a_kind = Ast.Sum then k.(at + su.su_width) <- data.(off + a.a_pos));
  let t = su.su_tbl in
  let s = Tuple_table.find_slice t k 0 in
  let cur = if s < 0 then 0 else Tuple_table.get t s c_derivs in
  let nv = cur + sign in
  if nv < 0 then invalid_arg "Maintain: negative aggregate support";
  if s < 0 then begin
    if nv > 0 then begin
      let s = Tuple_table.add_slice t k 0 in
      Tuple_table.set t s c_derivs nv;
      Slot_index.add su.su_groups s
    end
  end
  else if nv = 0 then begin
    Slot_index.remove su.su_groups s;
    Tuple_table.remove_slot t s
  end
  else Tuple_table.set t s c_derivs nv;
  refresh_group mt ps a su

(* --- kernel compilation --- *)

let crule_of (r : Ast.rule) =
  {
    cr_rule = r;
    cr_head = r.Ast.head_pred;
    cr_agg = Ast.agg_of_rule r;
    cr_atoms =
      Array.of_list
        (List.concat
           (List.mapi
              (fun pos lit -> match lit with Ast.Pos a -> [ (pos, a) ] | _ -> [])
              r.Ast.body));
    cr_kernels = [];
  }

(* Phase keys for the per-rule kernel cache.  For the delta/scan atom
   at body position [i]: counting uses [4i] (positions < i New, > i
   Old), DRed seeding [4i+1] (same-stratum Cur, lower Old), the DRed
   cascade and the insert-propagation worklist [4i+2] (all Cur, the
   scan row's first extra column in a register: the dying tuple's rank,
   the worklist entry's tag), and lower-stratum insert seeds and rank
   labelling [4i+3] (all Cur); [-2] is the head-bound probe
   (rederivation, support recount). *)
let kcount i = 4 * i
let kseed i = (4 * i) + 1
let kcasc i = (4 * i) + 2
let kprop i = (4 * i) + 3
let krederive = -2

(* Raised by an existence probe's emit to stop its scan row. *)
exception Stop

let no_emit : Eval.emit = fun ~tuple:_ ~contributor:_ -> ()

(* The register or constant feeding each column of the atom at body
   position [pos] of [c]: its key, bind and check columns cover it (a
   scan may also bind a column past the atom, its row's rank). *)
let atom_srcs (c : Physical.compiled_rule) ~scan pos arity =
  let srcs = Array.make arity (Physical.Const 0) in
  let cover key_cols key_src binds checks =
    Array.iteri (fun k col -> srcs.(col) <- key_src.(k)) key_cols;
    Array.iter (fun (col, r) -> if col < arity then srcs.(col) <- Physical.Reg r) binds;
    Array.iter (fun (col, src) -> srcs.(col) <- src) checks
  in
  (match c.scan with
  | Physical.S_base { binds; checks; _ } when scan = Logical.At_atom pos ->
    cover [||] [||] binds checks
  | _ ->
    Array.iter
      (function
        | Physical.Lookup l when l.pos = pos -> cover l.key_cols l.key_src l.binds l.checks
        | Physical.Lookup _ | Physical.Filter _ | Physical.Compute _ -> ())
      c.steps);
  srcs

(* Compiles [cr] for one scan with the planner, score ties going to the
   smaller visible relation (which keeps head-bound probes walking a
   narrow EDB bucket instead of a wide recursive one), and prepares it
   once per maintenance worker as an {!Eval} pipeline.  The context resolves each body atom,
   by its position, to a membership probe (fully bound), a walk of a
   persistent [ensure_index] chain (partially bound, with the per-batch
   delete overlay layered on for Old visibility) or a full visible
   scan, every candidate read in place from its table; it rejects
   negated atoms, since strata with negation only recompute.  These
   accesses read the maintenance tables but never write them — a
   parallel round keeps every mutation in the per-worker emission
   buffers.  [scan] is what a run feeds in: a body atom's rows, head
   tuples (rederivation probes) or the empty row (full evaluations);
   [with_rank] binds the scan row's first extra column to one more
   register. *)
let build_mkernel mt cs cr ~scan ~vis_of ~with_rank =
  let sizes p = visible_count_ps (get_pred mt p) in
  let c =
    match
      Physical.compile_scan ~bind_extra:with_rank mt.plan cs.cs_stratum cr.cr_rule scan ~sizes
    with
    | Ok c -> c
    | Error e -> invalid_arg ("Maintain: " ^ e)
  in
  let datoms =
    Array.of_list
      (List.filter_map
         (fun (pos, (a : Ast.atom)) ->
           if List.mem a.pred cs.cs_stratum.Analysis.preds then begin
             let ps = get_pred mt a.pred in
             Some (pos, ps, atom_srcs c ~scan pos ps.ps_arity)
           end
           else None)
         (Array.to_list cr.cr_atoms))
  in
  let rank_reg = if with_rank then c.nregs - 1 else -1 in
  let prewarm = ref [] in
  let access (l : Physical.lookup) =
    if l.negated then invalid_arg "Maintain: negated atom in a maintenance kernel";
    let pred = match l.rel with Physical.R_base p | Physical.R_rec { pred = p; _ } -> p in
    let ps = get_pred mt pred in
    let vis = vis_of l.pos ps.ps_name in
    let cols = l.key_cols in
    if Array.length cols = ps.ps_arity then Eval.Mem (fun key -> mem_vis ps vis key 0)
    else if Array.length cols = 0 then Eval.Iter (fun _key f -> iter_vis ps vis f)
    else begin
      (* built (from the current visible set) at compile time, then
         maintained forever by visible_add/remove — capturing it here
         stays correct across batches *)
      let ix = ensure_index ps cols in
      match vis with
      | Cur -> Eval.Index ix
      | Old ->
        prewarm := (fun () -> ignore (overlay ps cols)) :: !prewarm;
        let ins = ps.ps_ins in
        Eval.Iter
          (fun key f ->
            Slot_index.iter ix key (fun data off ->
                if not (Tuple_table.mem_slice ins data off) then f data off);
            Slot_index.iter (overlay ps cols) key f)
    end
  in
  (* resolved once, shared read-only by every worker's pipeline *)
  let accesses = Hashtbl.create 4 in
  let lookup (l : Physical.lookup) =
    match Hashtbl.find_opt accesses l.pos with
    | Some a -> a
    | None ->
      let a = access l in
      Hashtbl.add accesses l.pos a;
      a
  in
  let ctx =
    { Eval.lookup; base_sorted = (fun _ _ -> invalid_arg "Maintain: generic join in a kernel") }
  in
  let insts =
    Array.init mt.m_workers (fun _ ->
        let emit = ref no_emit in
        let pipe =
          Eval.prepare c ctx ~emit:(fun ~tuple ~contributor -> !emit ~tuple ~contributor)
        in
        let regs = Eval.regs pipe in
        let atoms =
          Array.map
            (fun (j, ps, srcs) ->
              let buf = Array.make (Array.length srcs) 0 in
              (j, ps, buf, Kernel.filler srcs ~regs ~buf))
            datoms
        in
        { mi_pipe = pipe; mi_emit = emit; mi_atoms = atoms })
  in
  let contribs = match c.head.agg with Some (_, _, srcs) -> Array.length srcs | None -> 0 in
  {
    mk_insts = insts;
    mk_rank_reg = rank_reg;
    mk_stride = Array.length c.head.args + contribs + 1;
    mk_prewarm = !prewarm;
  }

let get_kernel mt cs cr key =
  match List.assoc_opt key cr.cr_kernels with
  | Some mk -> mk
  | None ->
    let in_stratum p = List.mem p cs.cs_stratum.Analysis.preds in
    let scan, vis_of, with_rank =
      if key = krederive then (Logical.At_head, (fun _ _ -> Cur), false)
      else begin
        let i = key / 4 in
        match key mod 4 with
        | 0 -> (Logical.At_atom i, (fun j _ -> if j < i then Cur else Old), false)
        | 1 -> (Logical.At_atom i, (fun _ p -> if in_stratum p then Cur else Old), false)
        | 2 -> (Logical.At_atom i, (fun _ _ -> Cur), true)
        | _ -> (Logical.At_atom i, (fun _ _ -> Cur), false)
      end
    in
    let mk = build_mkernel mt cs cr ~scan ~vis_of ~with_rank in
    cr.cr_kernels <- (key, mk) :: cr.cr_kernels;
    mk

(* The full evaluation of [cr] (all Cur) over a one-row unit scan.  It
   runs once per rule, at [create], so the kernel is not cached and
   dies with it. *)
let full_kernel mt cs cr =
  build_mkernel mt cs cr ~scan:Logical.At_nothing ~vis_of:(fun _ _ -> Cur) ~with_rank:false

(* --- round execution --- *)

(* Rounds smaller than this run inline on the coordinator: a morsel
   round costs a pool submit and a barrier, which only pays for itself
   on scans of a few hundred tuples and up. *)
let par_threshold = 256

(* Runs the live slots of a contiguous table slot range (one morsel)
   through the pipeline, each read in place. *)
let default_morsel mi _w tbl ~first ~len =
  let stride = Tuple_table.stride tbl in
  for s = first to first + len - 1 do
    if Tuple_table.live tbl s then Eval.run_row mi.mi_pipe (Tuple_table.data tbl) (s * stride)
  done

let set_emits mk make = Array.iteri (fun w mi -> mi.mi_emit := make w mi) mk.mk_insts

let ebuf_room b n =
  if b.e_len + n > Array.length b.e_data then begin
    let d = Array.make (max (b.e_len + n) (2 * Array.length b.e_data)) 0 in
    Array.blit b.e_data 0 d 0 b.e_len;
    b.e_data <- d
  end

(* buffers one row: [h] ++ [c] ++ [tag] *)
let push_row b (h : int array) (c : int array) tag =
  let hl = Array.length h and cl = Array.length c in
  ebuf_room b (hl + cl + 1);
  let d = b.e_data and at = b.e_len in
  Array.blit h 0 d at hl;
  Array.blit c 0 d (at + hl) cl;
  d.(at + hl + cl) <- tag;
  b.e_len <- at + hl + cl + 1

let push_pair b x v =
  ebuf_room b 2;
  b.e_data.(b.e_len) <- x;
  b.e_data.(b.e_len + 1) <- v;
  b.e_len <- b.e_len + 2

(* The standard emit: buffer the head and its aggregate contributors. *)
let push_emit mt w _mi =
  let buf = mt.m_bufs.(w) in
  fun ~tuple ~contributor -> push_row buf tuple contributor 0

(* Executes one buffered maintenance round over the rows [first,
   first + len) of [src], skipping its freed slots.  Below the
   threshold (or with one effective worker) the coordinator runs
   instance 0 inline; above it each pool worker publishes its stripe of
   the range as morsels on the steal board, drains its own deque LIFO,
   then claims from loaded peers, executing every morsel through its
   private kernel instance with all emissions buffered.  The
   maintenance state is strictly read-only between the prewarm and the
   barrier, so the concurrent table reads are safe; [apply_buffered]
   then applies the buffers sequentially.  Every pass only uses rounds
   whose applications commute within the round (signed counting updates
   of one sign, support decrements, idempotent inserts, monotone
   merges), so the fixpoint does not depend on which worker ran which
   morsel; only the order in which fresh ranks are handed out does. *)
let execute_round mt mk ~src ~first ~len ~morsel =
  if len > 0 then begin
    let mw = mt.m_workers in
    (* a whole table may hold freed slots, a worklist segment never *)
    let rows = if first = 0 && len = Tuple_table.slots src then Tuple_table.length src else len in
    match mt.m_steal with
    | Some steal when rows >= par_threshold ->
      List.iter (fun f -> f ()) mk.mk_prewarm;
      Steal.reset steal;
      let arena = Tuple_table.arena src in
      let body me =
        if me < mw then begin
          let t0 = Clock.now () in
          let lo = first + (len * me / mw) and hi = first + (len * (me + 1) / mw) in
          if hi > lo then
            Steal.publish_range steal ~me ~kind:Steal.Delta ~gid:0 ~arena ~first:lo ~len:(hi - lo);
          let mi = mk.mk_insts.(me) in
          let exec stolen (m : Steal.morsel) =
            (match mt.m_fault with
            | Some fa -> Fault.hit fa Fault.Maintain ~worker:me
            | None -> ());
            morsel mi me src ~first:m.Steal.m_first ~len:m.Steal.m_len;
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
      (match Domain_pool.submit mt.pool body with
      | Ok () -> ()
      | Error failures -> raise (Engine_error.Error (Engine_error.worker_crashed failures)))
    | _ -> morsel mk.mk_insts.(0) 0 src ~first ~len
  end

let buffered_rows mt ~stride = Array.fold_left (fun acc b -> acc + (b.e_len / stride)) 0 mt.m_bufs

(* Feeds every buffered row, worker by worker, to [apply data off]. *)
let apply_buffered mt ~stride ~apply =
  Array.iter
    (fun b ->
      let d = b.e_data in
      let off = ref 0 in
      while !off < b.e_len do
        apply d !off;
        off := !off + stride
      done;
      b.e_len <- 0)
    mt.m_bufs

let run_round mt mk ~src ~first ~len ~morsel ~stride ~apply =
  execute_round mt mk ~src ~first ~len ~morsel;
  apply_buffered mt ~stride ~apply

(* --- counting strata --- *)

(* The apply of a counting round of rule [cr]: each buffered head
   adjusts its derivation count (or aggregate support) by [sign]. *)
let count_apply mt cr mk ~sign =
  let hps = get_pred mt cr.cr_head in
  match (hps.ps_agg, cr.cr_agg) with
  | None, None -> fun data off -> plain_add mt hps data off sign
  | Some a, Some _ ->
    let h = hps.ps_arity in
    let cw = mk.mk_stride - h - 1 in
    fun data off -> agg_support_add mt hps a data off (off + h) cw sign
  | _ -> invalid_arg "Maintain: aggregate/plain mismatch"

(* One buffered round per (rule, delta atom, sign), scanning the delta
   table in place.  Within a round every application carries the same
   sign, and same-sign support updates commute (deletions run first, so
   counts never cross the zero boundary out of order), so the morsel
   execution order cannot change the resulting state. *)
let counting_pass mt cs =
  Array.iter
    (fun cr ->
      Array.iter
        (fun (i, (a : Ast.atom)) ->
          let dps = get_pred mt a.pred in
          let run tbl sign =
            if Tuple_table.length tbl > 0 then begin
              let mk = get_kernel mt cs cr (kcount i) in
              set_emits mk (push_emit mt);
              run_round mt mk ~src:tbl ~first:0 ~len:(Tuple_table.slots tbl)
                ~morsel:default_morsel ~stride:mk.mk_stride ~apply:(count_apply mt cr mk ~sign)
            end
          in
          run dps.ps_del (-1);
          run dps.ps_ins 1)
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
   let r = rank_of ps buf 0 in
   r >= 0 && r < limit))
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
    let tbl = head_ps.ps_tbl in
    let atoms = mi.mi_atoms in
    fun ~tuple:h ~contributor:_ ->
      let ok = ref true and r = ref 0 and best = ref (-1) and best_r = ref (-1) in
      Array.iter
        (fun (j, ps, buf, fill) ->
          if !ok then begin
            fill ();
            let x = rank_of ps buf 0 in
            if x < 0 then ok := false
            else begin
              if x >= !r then r := x + 1;
              if x > !best_r || (x = !best_r && j > !best) then begin
                best_r := x;
                best := j
              end
            end
          end)
        atoms;
      let hs = Tuple_table.find_slice tbl h 0 in
      if !ok && hs >= 0 then begin
        if Tuple_table.get tbl hs c_rank < 0 then begin
          Tuple_table.set tbl hs c_rank !r;
          Vec.push frontier (head_ps, hs)
        end;
        if !best = i && Tuple_table.get tbl hs c_rank = !r && not (dup_atoms atoms) then
          Tuple_table.set tbl hs c_support (Tuple_table.get tbl hs c_support + 1)
      end
  in
  let insts = ref [] in
  let pipe cr mk i =
    let mi = mk.mk_insts.(0) in
    mi.mi_emit := rank_emit cr i mi;
    insts := mi :: !insts;
    mi.mi_pipe
  in
  Array.iter
    (fun cr ->
      if Array.for_all (fun (_, (a : Ast.atom)) -> not (in_stratum a.pred)) cr.cr_atoms then
        Eval.run_row (pipe cr (full_kernel mt cs cr) (-1)) [||] 0)
    cs.cs_rules;
  (* the pipelines a frontier tuple of each predicate feeds, in rule
     then body-position order *)
  let feeds =
    List.map
      (fun p ->
        let acc = ref [] in
        Array.iter
          (fun cr ->
            Array.iter
              (fun (i, (a : Ast.atom)) ->
                if a.pred = p then acc := pipe cr (get_kernel mt cs cr (kprop i)) i :: !acc)
              cr.cr_atoms)
          cs.cs_rules;
        (p, List.rev !acc))
      stratum.Analysis.preds
  in
  let cursor = ref 0 in
  while !cursor < Vec.length frontier do
    let ps, s = Vec.get frontier !cursor in
    incr cursor;
    let data = Tuple_table.data ps.ps_tbl and off = Tuple_table.offset ps.ps_tbl s in
    List.iter (fun pipe -> Eval.run_row pipe data off) (List.assoc ps.ps_name feeds)
  done;
  (* the cached kernels must not keep the frontier alive *)
  List.iter (fun mi -> mi.mi_emit := no_emit) !insts;
  List.iter
    (fun p ->
      let tbl = (get_pred mt p).ps_tbl in
      Tuple_table.iter tbl (fun s ->
          mt.rank_counter <- max mt.rank_counter (Tuple_table.get tbl s c_rank + 1)))
    stratum.Analysis.preds

(* Phase 2 of DRed: physically remove the dead set from the tables and
   indexes. *)
let dred_remove_dead mt pss =
  List.iter
    (fun ps ->
      let dead = ps.ps_dead in
      Tuple_table.iter_slices dead (fun data off ->
          let s = Tuple_table.find_slice ps.ps_tbl data off in
          if s >= 0 then visible_remove mt ps s);
      mt.cur_overdeleted <- mt.cur_overdeleted + Tuple_table.length dead)
    pss

(* Drains per-predicate worklist tables in segments: each pass hands
   [segment ps ~first ~len] the rows every table gained since the
   previous pass, predicates in stratum order, until a pass finds
   nothing new.  The tables only grow while this runs. *)
let drain_segments pss table segment =
  let pss = Array.of_list pss in
  let cur = Array.make (Array.length pss) 0 in
  let grown () = Array.exists2 (fun ps c -> Tuple_table.slots (table ps) > c) pss cur in
  while grown () do
    let upto = Array.map (fun ps -> Tuple_table.slots (table ps)) pss in
    Array.iteri
      (fun k ps ->
        let first = cur.(k) in
        if upto.(k) > first then begin
          cur.(k) <- upto.(k);
          segment ps ~first ~len:(upto.(k) - first)
        end)
      pss
  done

(* Semi-naive insert propagation, shared by the DRed and monotone
   aggregate passes: seed rounds over the lower-stratum insertions
   ([kprop] kernels, scanning the delta tables in place), then the
   per-predicate worklists [ps_prop] drained in segments, one round per
   (rule, body atom of that predicate).  A worklist row carries an int
   tag after the tuple, which the [kcasc] kernels scan into their rank
   register.  [emit mk cr i] makes each worker's emit for a round of
   [cr] scanning body atom [i]; [apply cr] applies one buffered
   emission and adds to the worklists whatever became visible. *)
let propagate_inserts mt cs ~emit ~apply =
  let stratum = cs.cs_stratum in
  let in_stratum p = List.mem p stratum.Analysis.preds in
  let round key cr i src ~first ~len =
    let mk = get_kernel mt cs cr key in
    set_emits mk (emit mk cr i);
    run_round mt mk ~src ~first ~len ~morsel:default_morsel ~stride:mk.mk_stride
      ~apply:(apply cr)
  in
  Array.iter
    (fun cr ->
      Array.iter
        (fun (i, (a : Ast.atom)) ->
          if not (in_stratum a.pred) then begin
            let ins = (get_pred mt a.pred).ps_ins in
            if Tuple_table.length ins > 0 then
              round (kprop i) cr i ins ~first:0 ~len:(Tuple_table.slots ins)
          end)
        cr.cr_atoms)
    cs.cs_rules;
  drain_segments
    (List.map (get_pred mt) stratum.Analysis.preds)
    (fun ps -> ps.ps_prop)
    (fun ps ~first ~len ->
      Array.iter
        (fun cr ->
          Array.iter
            (fun (i, (a : Ast.atom)) ->
              if a.pred = ps.ps_name then round (kcasc i) cr i ps.ps_prop ~first ~len)
            cr.cr_atoms)
        cs.cs_rules)

(* Adds a tuple that just became visible to its predicate's worklist. *)
let push_prop ps (data : int array) off tag =
  let p = ps.ps_prop in
  Tuple_table.set p (Tuple_table.add_slice p data off) c_tag tag

(* The tag of DRed's rederivation and propagation emissions (the head
   rides in front of it). *)
let tag_fresh = 1 (* make visible; a dead head takes a fresh rank *)

let tag_keep = 2 (* make visible; a dead head keeps its old rank *)
let tag_restore = 3 (* give a surviving head one support back *)

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
     sound.  The cascade drains the dead tables in segments, scanning
     their rows — the tuple, then the rank it died with — in place;
     lower relations read their new fixpoint (derivations through
     same-batch lower insertions were never counted, so decrementing
     or skipping them is equally sound);
   - phase 2 physically removes the dead set;
   - phase 3, rederivation: a zero count is only a candidate death,
     so one head-bound probe round per (predicate, rule) over the
     dead table restores any tuple that survives via some current
     derivation, with insertions flushed per predicate in first-match
     order — conservative counts cost time, never correctness.  A
     candidate with a derivation whose same-stratum atoms all rank
     below its old rank keeps that rank, otherwise it takes a fresh
     one, so no rank ever drops;
   - phase 4, insert propagation, seeds from the lower-stratum
     insertions and drains the worklists in per-predicate segments.
     Tuples are made visible before they enter the worklist, so any
     derivation needing two same-segment tuples is found from either
     scan side; inserts are idempotent, which makes the round order
     immaterial.  A dead head derived here keeps its old rank when the
     deriving instantiation ranks below it.  Scanning a tuple that came
     back at its old rank (the worklist tag; -1 for everything else,
     which no surviving head outranks) gives one support back to the
     head of each instantiation that is rank-decreasing, binds no tuple
     twice and has the scanned atom as its greatest (rank, body
     position) rederived atom — once per instantiation, and only to
     heads neither dead nor fresh this batch.  After phase 1 a
     surviving head's count covers at most its derivations that lost
     no atom, and their ranks are unchanged; every restored
     instantiation holds a dead atom, so it is none of those, and the
     count stays a lower bound;
   - phase 5 recounts every rederived tuple's support exactly, one
     head-bound probe round per (predicate, rule). *)
let dred_pass mt cs =
  let stratum = cs.cs_stratum in
  let in_stratum p = List.mem p stratum.Analysis.preds in
  let pss = List.map (get_pred mt) stratum.Analysis.preds in
  List.iter
    (fun ps ->
      Tuple_table.clear ps.ps_dead;
      Tuple_table.clear ps.ps_prop)
    pss;
  let apply_decrement cr =
    let ps = get_pred mt cr.cr_head in
    let tbl = ps.ps_tbl and dead = ps.ps_dead in
    fun data off ->
      if not (Tuple_table.mem_slice dead data off) then begin
        let s = Tuple_table.find_slice tbl data off in
        let sup = Tuple_table.get tbl s c_support in
        if sup <= 1 then
          Tuple_table.set dead (Tuple_table.add_slice dead data off) c_old_rank
            (Tuple_table.get tbl s c_rank)
        else Tuple_table.set tbl s c_support (sup - 1)
      end
  in
  (* the emit of rule [cr] scanning body atom [i]: the head's support
     could have counted this instantiation only if it is rank-decreasing
     — the scan atom's rank comes from its row (cascade) or is
     unconstrained (a lower-stratum seed), every other same-stratum
     atom's from its table *)
  let decrement_emit mk cr i w mi =
    let head_ps = get_pred mt cr.cr_head in
    let buf = mt.m_bufs.(w) in
    let regs = Eval.regs mi.mi_pipe in
    let rank_reg = mk.mk_rank_reg in
    fun ~tuple:h ~contributor:_ ->
      let hr = rank_of head_ps h 0 in
      if
        hr >= 0
        && (rank_reg < 0 || regs.(rank_reg) < hr)
        && ranks_below mi.mi_atoms ~skip:i ~limit:hr
      then push_row buf h [||] 0
  in
  let decrement_round key cr i src ~first ~len =
    let mk = get_kernel mt cs cr key in
    set_emits mk (decrement_emit mk cr i);
    run_round mt mk ~src ~first ~len ~morsel:default_morsel ~stride:mk.mk_stride
      ~apply:(apply_decrement cr)
  in
  (* phase 1a: derivations lost to lower-stratum deletions *)
  Array.iter
    (fun cr ->
      Array.iter
        (fun (i, (a : Ast.atom)) ->
          if not (in_stratum a.pred) then begin
            let del = (get_pred mt a.pred).ps_del in
            if Tuple_table.length del > 0 then
              decrement_round (kseed i) cr i del ~first:0 ~len:(Tuple_table.slots del)
          end)
        cr.cr_atoms)
    cs.cs_rules;
  (* phase 1b: the cascade, in dead-table segments *)
  drain_segments pss
    (fun ps -> ps.ps_dead)
    (fun ps ~first ~len ->
      Array.iter
        (fun cr ->
          Array.iter
            (fun (i, (a : Ast.atom)) ->
              if a.pred = ps.ps_name then decrement_round (kcasc i) cr i ps.ps_dead ~first ~len)
            cr.cr_atoms)
        cs.cs_rules);
  (* phase 2: physically remove the dead set *)
  dred_remove_dead mt pss;
  (* phases 3 to 5: rederive, worklist insert propagation, recount *)
  let insert ps (data : int array) off ~keep =
    let tbl = ps.ps_tbl in
    if Tuple_table.find_slice tbl data off < 0 then begin
      let ds = Tuple_table.find_slice ps.ps_dead data off in
      let s = visible_add mt ps data off in
      let tag =
        if ds >= 0 && keep then begin
          let r = Tuple_table.get ps.ps_dead ds c_old_rank in
          Tuple_table.set tbl s c_rank r;
          r
        end
        else begin
          (* the monotone counter orders same-batch inserts by
             derivation, above every rank a surviving tuple holds *)
          Tuple_table.set tbl s c_rank mt.rank_counter;
          mt.rank_counter <- mt.rank_counter + 1;
          -1
        end
      in
      (* one support is a lower bound for a fresh insert; a rederived
         tuple is recounted in phase 5 *)
      Tuple_table.set tbl s c_support 1;
      if ds >= 0 then mt.cur_rederived <- mt.cur_rederived + 1;
      push_prop ps data off tag
    end
  in
  (* Head-bound probe rounds over a dead table's rows, one per rule
     deriving it: per row, [start w data off s] publishes the rank limit
     in [limit.(w)] and the slot the result is for in [target.(w)], or
     returns [false] to skip the row; [result ~stopped hits] is the
     value to buffer with that slot, 0 for none. *)
  let limit = Array.make mt.m_workers 0
  and hits = Array.make mt.m_workers 0
  and target = Array.make mt.m_workers 0 in
  let probe_rounds ps ~start ~emit ~result ~apply =
    let dead = ps.ps_dead in
    let morsel mi w tbl ~first ~len =
      let buf = mt.m_bufs.(w) in
      let stride = Tuple_table.stride tbl in
      for s = first to first + len - 1 do
        let data = Tuple_table.data tbl and off = s * stride in
        if Tuple_table.live tbl s && start w data off s then begin
          hits.(w) <- 0;
          let stopped =
            match Eval.run_row mi.mi_pipe data off with
            | () -> false
            | exception Stop -> true
          in
          let v = result ~stopped hits.(w) in
          if v <> 0 then push_pair buf target.(w) v
        end
      done
    in
    Array.iter
      (fun cr ->
        if cr.cr_head = ps.ps_name then begin
          let mk = get_kernel mt cs cr krederive in
          set_emits mk emit;
          run_round mt mk ~src:dead ~first:0 ~len:(Tuple_table.slots dead) ~morsel ~stride:2
            ~apply:(fun d off -> apply d.(off) d.(off + 1))
        end)
      cs.cs_rules
  in
  (* phase 3: the probe stops at the first derivation ranked below the
     old rank, after counting every other one it passed *)
  List.iter
    (fun ps ->
      let dead = ps.ps_dead in
      if Tuple_table.length dead > 0 then begin
        let matched = Vec.create () in
        probe_rounds ps
          ~start:(fun w data off s ->
            limit.(w) <- data.(off + ps.ps_arity + c_old_rank);
            target.(w) <- s;
            true)
          ~emit:(fun w mi ~tuple:_ ~contributor:_ ->
            hits.(w) <- hits.(w) + 1;
            if ranks_below mi.mi_atoms ~skip:(-1) ~limit:limit.(w) then raise Stop)
          ~result:(fun ~stopped n -> if stopped then tag_keep else if n > 0 then tag_fresh else 0)
          ~apply:(fun ds tag ->
            match Tuple_table.get dead ds c_match with
            | 0 ->
              Tuple_table.set dead ds c_match tag;
              Vec.push matched ds
            | m ->
              if tag = tag_keep && m = tag_fresh then Tuple_table.set dead ds c_match tag_keep);
        Vec.iter
          (fun ds ->
            insert ps (Tuple_table.data dead) (Tuple_table.offset dead ds)
              ~keep:(Tuple_table.get dead ds c_match = tag_keep))
          matched
      end)
    pss;
  (* phase 4: a visible head can only take a restore, an invisible one
     is an insert whose tag says whether a dead head keeps its rank *)
  let prop_emit mk cr i w mi =
    let head_ps = get_pred mt cr.cr_head in
    let hdead = head_ps.ps_dead in
    let buf = mt.m_bufs.(w) in
    let regs = Eval.regs mi.mi_pipe in
    let rank_reg = mk.mk_rank_reg in
    let atoms = mi.mi_atoms in
    (* every other rederived atom is below the scanned one, ranked [sr],
       in (rank, body position) order; the atoms are filled and ranked *)
    let rec greatest sr k =
      k >= Array.length atoms
      ||
      let j, ps, buf, _ = atoms.(k) in
      (j = i
      || (not (Tuple_table.mem_slice ps.ps_dead buf 0))
      ||
      let r = rank_of ps buf 0 in
      r < sr || (r = sr && j < i))
      && greatest sr (k + 1)
    in
    fun ~tuple:h ~contributor:_ ->
      let sr = if rank_reg < 0 then -1 else regs.(rank_reg) in
      let hr = rank_of head_ps h 0 in
      if hr >= 0 then begin
        if
          sr >= 0
          && (not (Tuple_table.mem_slice hdead h 0))
          && (not (Tuple_table.mem_slice head_ps.ps_ins h 0))
          && sr < hr
          && ranks_below atoms ~skip:i ~limit:hr
          && (not (dup_atoms atoms))
          && greatest sr 0
        then push_row buf h [||] tag_restore
      end
      else
        let keep =
          let ds = Tuple_table.find_slice hdead h 0 in
          ds >= 0
          &&
          let old = Tuple_table.get hdead ds c_old_rank in
          (rank_reg < 0 || (sr >= 0 && sr < old)) && ranks_below atoms ~skip:i ~limit:old
        in
        push_row buf h [||] (if keep then tag_keep else tag_fresh)
  in
  propagate_inserts mt cs ~emit:prop_emit ~apply:(fun cr ->
      let ps = get_pred mt cr.cr_head in
      let tbl = ps.ps_tbl in
      let tag_at = ps.ps_arity in
      fun data off ->
        let tag = data.(off + tag_at) in
        if tag = tag_restore then begin
          let s = Tuple_table.find_slice tbl data off in
          Tuple_table.set tbl s c_support (Tuple_table.get tbl s c_support + 1);
          mt.cur_restored <- mt.cur_restored + 1
        end
        else insert ps data off ~keep:(tag = tag_keep));
  (* phase 5: exact support recount of the rederived tuples, at their
     final ranks *)
  List.iter
    (fun ps ->
      let tbl = ps.ps_tbl in
      let back = ref 0 in
      Tuple_table.iter_slices ps.ps_dead (fun data off ->
          let s = Tuple_table.find_slice tbl data off in
          if s >= 0 then begin
            Tuple_table.set tbl s c_support 0;
            incr back
          end);
      if !back > 0 then begin
        mt.cur_recounted <- mt.cur_recounted + !back;
        probe_rounds ps
          ~start:(fun w data off _ ->
            let s = Tuple_table.find_slice tbl data off in
            s >= 0
            && begin
                 limit.(w) <- Tuple_table.get tbl s c_rank;
                 target.(w) <- s;
                 true
               end)
          ~emit:(fun w mi ~tuple:_ ~contributor:_ ->
            if ranks_below mi.mi_atoms ~skip:(-1) ~limit:limit.(w) && not (dup_atoms mi.mi_atoms)
            then hits.(w) <- hits.(w) + 1)
          ~result:(fun ~stopped:_ n -> n)
          ~apply:(fun s n -> Tuple_table.set tbl s c_support (Tuple_table.get tbl s c_support + n))
      end)
    pss

(* --- recursive min/max aggregate strata: monotone insert propagation --- *)

(* Monotone insert propagation with [merge] as the apply.  Merging
   keeps the best value per group and any improvement re-enters the
   worklist, so the segment rounds reach the same monotone fixpoint in
   any order. *)
let aggrec_insert_pass mt cs =
  List.iter (fun p -> Tuple_table.clear (get_pred mt p).ps_prop) cs.cs_stratum.Analysis.preds;
  let merge ps (data : int array) off =
    match ps.ps_agg with
    | None ->
      if Tuple_table.find_slice ps.ps_tbl data off < 0 then begin
        ignore (visible_add mt ps data off);
        push_prop ps data off (-1)
      end
    | Some a ->
      group_of a data off;
      let v = data.(off + a.a_pos) in
      let cur = Slot_index.head a.a_group a.a_gkey in
      let improves =
        cur < 0
        ||
        let cv = (Tuple_table.data ps.ps_tbl).(Tuple_table.offset ps.ps_tbl cur + a.a_pos) in
        match a.a_kind with
        | Ast.Min -> v < cv
        | Ast.Max -> v > cv
        | Ast.Count | Ast.Sum -> invalid_arg "Maintain: non-monotone aggregate insert"
      in
      if improves then begin
        set_group_value mt ps a ~has:true v;
        push_prop ps data off (-1)
      end
  in
  propagate_inserts mt cs
    ~emit:(fun _mk _cr _i -> push_emit mt)
    ~apply:(fun cr ->
      let ps = get_pred mt cr.cr_head in
      merge ps)

(* --- stratum recompute through the parallel engine --- *)

(* The session plan narrowed to the stratum's own compiled plan, its
   lower predicates standing in as the EDB: {!Parallel.run} reads only a
   plan's arities, EDB list and strata, and the symbols stay the
   session's. *)
let sub_plan mt cs =
  let plan = mt.plan in
  {
    plan with
    Physical.info = { plan.Physical.info with Analysis.edb = cs.cs_body_preds };
    strata = List.filter (fun (sp : Physical.stratum_plan) -> sp.stratum == cs.cs_stratum) plan.strata;
  }

let visible_vec_of mt p =
  let ps = get_pred mt p in
  let v = Vec.create ~capacity:(visible_count_ps ps) () in
  Tuple_table.iter_slices ps.ps_tbl (fun data off -> Vec.push v (Array.sub data off ps.ps_arity));
  v

(* Diffs the sub-run's relations against the visible tables: stale
   tuples leave first, so an aggregated group never shows two values. *)
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
  let result = Parallel.run ~pool:mt.pool sub ~edb ~config in
  List.iter
    (fun p ->
      let ps = get_pred mt p in
      let tbl = ps.ps_tbl in
      let fresh = Catalog.ensure result.Parallel.catalog ~name:p ~arity:ps.ps_arity in
      let stale = Vec.create () in
      Tuple_table.iter tbl (fun s ->
          let data = Tuple_table.data tbl and off = Tuple_table.offset tbl s in
          if not (Relation.mem_slice fresh data off) then Vec.push stale s);
      Vec.iter (visible_remove mt ps) stale;
      Relation.iter_slices fresh (fun data off ->
          if Tuple_table.find_slice tbl data off < 0 then ignore (visible_add mt ps data off)))
    cs.cs_stratum.Analysis.preds

(* --- construction --- *)

let new_ps name arity ~extra ~capacity ~agg =
  let small () = Tuple_table.create ~arity () in
  let tbl = Tuple_table.create ~capacity:(presized capacity) ~extra ~arity () in
  let ps =
    {
      ps_name = name;
      ps_arity = arity;
      ps_tbl = tbl;
      ps_agg = None;
      ps_indexes = [];
      ps_ins = small ();
      ps_del = small ();
      ps_overlays = [];
      ps_dead = Tuple_table.create ~extra:2 ~arity ();
      ps_prop = Tuple_table.create ~extra:1 ~arity ();
    }
  in
  match agg with
  | None -> ps
  | Some (pos, kind, support) ->
    let a_group = ensure_index ps (group_cols arity pos) in
    {
      ps with
      ps_agg =
        Some
          {
            a_pos = pos;
            a_kind = kind;
            a_group;
            a_gkey = Array.make (arity - 1) 0;
            a_row = Array.make arity 0;
            a_support = support;
          };
    }

(* The support tables of aggregated predicate [p] in a counting
   stratum: contributor ints are the widest any rule emits, and keys
   carry the width when the rules disagree on it. *)
let new_support rules p arity kind =
  let widths =
    List.filter_map
      (fun (r : Ast.rule) ->
        if r.Ast.head_pred <> p then None
        else
          List.find_map
            (fun (ha : Ast.head_arg) ->
              match ha with
              | Ast.Agg (Ast.Count, ts) -> Some (List.length ts)
              | Ast.Agg (Ast.Sum, ts) -> Some (List.length ts - 1)
              | Ast.Agg ((Ast.Min | Ast.Max), _) | Ast.Plain _ -> None)
            r.Ast.head_args)
      rules
  in
  let width = List.fold_left max 0 widths in
  let tagged = List.exists (( <> ) width) widths in
  let g = arity - 1 in
  let karity =
    match kind with
    | Ast.Min | Ast.Max -> g + 1
    | Ast.Count -> g + Bool.to_int tagged + width
    | Ast.Sum -> g + Bool.to_int tagged + width + 1
  in
  let su_tbl = Tuple_table.create ~extra:1 ~arity:karity () in
  {
    su_tbl;
    su_groups = Slot_index.create ~linked:(kind <> Ast.Count) su_tbl ~cols:(Array.init g Fun.id);
    su_width = width;
    su_tagged = tagged;
    su_key = Array.make karity 0;
  }

let arity_of info p =
  match List.assoc_opt p info.Analysis.arities with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Maintain: unknown arity for %s" p)

let create ~plan ~config ~pool ~catalog =
  if config.Parallel.max_iterations > 0 then
    invalid_arg "Maintain: bounded-iteration programs cannot be incrementally maintained";
  if Domain_pool.size pool <> config.Parallel.workers then
    invalid_arg "Maintain: pool/config worker mismatch";
  if config.Parallel.maintain_workers < 0 then
    invalid_arg "Maintain: maintain_workers must be >= 0";
  let m_workers =
    let req =
      if config.Parallel.maintain_workers = 0 then config.Parallel.workers
      else config.Parallel.maintain_workers
    in
    max 1 (min req config.Parallel.workers)
  in
  let new_ebuf () = { e_data = Array.make 64 0; e_len = 0 } in
  let mt =
    {
      plan;
      config;
      pool;
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
      m_bufs = Array.init m_workers (fun _ -> new_ebuf ());
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
  let rel_length p = match Catalog.find catalog p with Some r -> Relation.length r | None -> 0 in
  (* adopts the engine's relation as the visible set, every slot's
     extra columns set to [cols] *)
  let adopt ps cols =
    match Catalog.find catalog ps.ps_name with
    | None -> ()
    | Some rel ->
      Relation.iter_slices rel (fun data off ->
          let s = visible_add mt ps data off in
          Array.iteri (fun c v -> Tuple_table.set ps.ps_tbl s c v) cols)
  in
  List.iter
    (fun pred ->
      let ps = new_ps pred (arity_of info pred) ~extra:0 ~capacity:(rel_length pred) ~agg:None in
      adopt ps [||];
      Hashtbl.replace mt.preds pred ps;
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
            let arity = arity_of info p in
            let agg, extra =
              match List.assoc_opt p info.Analysis.aggregated with
              | Some (pos, kind) ->
                let support =
                  if mode = M_counting then Some (new_support rules p arity kind) else None
                in
                (Some (pos, kind, support), 0)
              | None -> (
                ( None,
                  match mode with
                  | M_counting -> 1
                  | M_dred -> 2
                  | M_aggrec | M_subrun -> 0 ))
            in
            Hashtbl.replace mt.preds p (new_ps p arity ~extra ~capacity:(rel_length p) ~agg))
          st.Analysis.preds;
        let cs =
          {
            cs_stratum = st;
            cs_mode = mode;
            cs_insert_ok = insert_ok;
            cs_body_preds = body_preds;
            cs_rules = Array.of_list (List.map crule_of rules);
          }
        in
        (match mode with
        | M_counting ->
          (* rebuild the support from scratch (one +1 round per rule
             over a unit scan: the bodies are all lower-stratum), then
             verify the visible set reproduces the engine's
             materialization exactly *)
          let unit = Tuple_table.create ~arity:0 () in
          ignore (Tuple_table.add unit [||]);
          Array.iter
            (fun cr ->
              let mk = full_kernel mt cs cr in
              set_emits mk (push_emit mt);
              execute_round mt mk ~src:unit ~first:0 ~len:1 ~morsel:default_morsel;
              let stride = mk.mk_stride in
              (* an aggregate's support holds at most one slot per
                 emission: size it once *)
              (match (get_pred mt cr.cr_head).ps_agg with
              | Some { a_support = Some su; _ } ->
                let n = Tuple_table.length su.su_tbl + buffered_rows mt ~stride in
                Tuple_table.reserve su.su_tbl (presized n)
              | _ -> ());
              apply_buffered mt ~stride ~apply:(count_apply mt cr mk ~sign:1))
            cs.cs_rules;
          List.iter
            (fun p ->
              let ps = get_pred mt p in
              let rel = Catalog.find catalog p in
              let rel_len = rel_length p in
              let vis_len = visible_count_ps ps in
              let ok =
                rel_len = vis_len
                &&
                match rel with
                | None -> true
                | Some r ->
                  let good = ref true in
                  Relation.iter_slices r (fun data off ->
                      if not (mem_cur ps data off) then good := false);
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
          (* adopt the engine's fixpoint as the maintained state; DRed
             tuples start unranked *)
          List.iter
            (fun p ->
              let ps = get_pred mt p in
              adopt ps (if mode = M_dred then [| -1; 0 |] else [||]))
            st.Analysis.preds;
          if mode = M_dred then build_ranks mt cs);
        cs)
      info.Analysis.strata;
  (* the unit-scan support rounds buffered whole relations inline;
     batches start again from a small buffer *)
  mt.m_bufs.(0) <- new_ebuf ();
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

let keys_of tbl =
  let acc = ref [] in
  Tuple_table.iter tbl (fun s -> acc := Tuple_table.key tbl s :: !acc);
  !acc

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
  Array.iter (fun b -> b.e_len <- 0) mt.m_bufs;
  List.iter
    (fun (ps, tup, ins) ->
      let s = Tuple_table.find ps.ps_tbl tup in
      if ins then begin
        if s < 0 then ignore (visible_add mt ps tup 0)
      end
      else if s >= 0 then visible_remove mt ps s)
    norm;
  List.iter
    (fun cs ->
      let changed =
        List.exists
          (fun p ->
            let ps = get_pred mt p in
            Tuple_table.length ps.ps_ins > 0 || Tuple_table.length ps.ps_del > 0)
          cs.cs_body_preds
      in
      if changed then
        match cs.cs_mode with
        | M_counting -> counting_pass mt cs
        | M_dred -> dred_pass mt cs
        | M_subrun -> recompute mt cs
        | M_aggrec ->
          let has_del =
            List.exists (fun p -> Tuple_table.length (get_pred mt p).ps_del > 0) cs.cs_body_preds
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
      let i = Tuple_table.length ps.ps_ins and r = Tuple_table.length ps.ps_del in
      if i > 0 || r > 0 then begin
        changed := (name, i, r) :: !changed;
        deltas := (name, keys_of ps.ps_ins, keys_of ps.ps_del) :: !deltas;
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
      Tuple_table.clear ps.ps_ins;
      Tuple_table.clear ps.ps_del;
      ps.ps_overlays <- [])
    mt.preds;
  report

(* --- invariant check --- *)

(* The table-shape invariants of every predicate, then the DRed support
   invariant, counting every rank-decreasing derivation of every
   visible DRed tuple through the head-bound probe kernels, inline on
   instance 0. *)
let check_invariants mt =
  let exception Broken of string in
  let fail s = raise (Broken s) in
  let broken fmt = Printf.ksprintf fail fmt in
  let check_index what ix =
    match Slot_index.check ix with
    | Ok () -> ()
    | Error msg -> broken "%s: %s" what msg
  in
  let check_shape name ps =
    let tbl = ps.ps_tbl in
    let live = ref 0 in
    Tuple_table.iter tbl (fun _ -> incr live);
    if !live <> Tuple_table.length tbl then
      broken "%s counts %d visible tuples in %d live slots" name (Tuple_table.length tbl) !live;
    List.iter
      (fun ix ->
        check_index
          (Printf.sprintf "%s index on [%s]" name
             (String.concat "," (List.map string_of_int (Array.to_list (Slot_index.cols ix)))))
          ix)
      ps.ps_indexes;
    match ps.ps_agg with
    | None -> ()
    | Some a -> (
      Tuple_table.iter_slices tbl (fun data off ->
          group_of a data off;
          if Slot_index.count a.a_group a.a_gkey <> 1 then
            broken "%s: a group shows several values" name);
      match a.a_support with
      | Some su -> check_index (name ^ " support") su.su_groups
      | None -> ())
  in
  let check cs p =
    let ps = get_pred mt p in
    let tbl = ps.ps_tbl in
    let derivations = Array.make (Tuple_table.slots tbl) 0 in
    let limit = ref 0 and n = ref 0 in
    Tuple_table.iter tbl (fun s ->
        if Tuple_table.get tbl s c_rank < 0 then
          broken "%s%s is visible without a rank" p (Tuple.to_string (Tuple_table.key tbl s)));
    Array.iter
      (fun cr ->
        if cr.cr_head = p then begin
          let mi = (get_kernel mt cs cr krederive).mk_insts.(0) in
          (mi.mi_emit :=
             fun ~tuple:_ ~contributor:_ ->
               if ranks_below mi.mi_atoms ~skip:(-1) ~limit:!limit then incr n);
          Tuple_table.iter tbl (fun s ->
              limit := Tuple_table.get tbl s c_rank;
              n := 0;
              let data = Tuple_table.data tbl and off = Tuple_table.offset tbl s in
              Eval.run_row mi.mi_pipe data off;
              derivations.(s) <- derivations.(s) + !n);
          mi.mi_emit := no_emit
        end)
      cs.cs_rules;
    Tuple_table.iter tbl (fun s ->
        let d = derivations.(s) in
        let sup = Tuple_table.get tbl s c_support in
        let tup () = Tuple.to_string (Tuple_table.key tbl s) in
        if d = 0 then broken "%s%s has no rank-decreasing derivation" p (tup ())
        else if sup > d then
          broken "%s%s has support %d but only %d rank-decreasing derivations" p (tup ()) sup d)
  in
  match
    Hashtbl.iter check_shape mt.preds;
    List.iter
      (fun cs -> if cs.cs_mode = M_dred then List.iter (check cs) cs.cs_stratum.Analysis.preds)
      mt.strata
  with
  | () -> Ok ()
  | exception Broken msg -> Error ("Maintain: " ^ msg)

(* --- read access for the session layer --- *)

let visible mt name f = Tuple_table.iter_slices (get_pred mt name).ps_tbl f

let visible_count mt name = visible_count_ps (get_pred mt name)

let resident_tuples mt = Hashtbl.fold (fun _ ps acc -> acc + visible_count_ps ps) mt.preds 0

let words mt =
  let tables ps =
    List.fold_left
      (fun acc t -> acc + Tuple_table.words t)
      0
      [ ps.ps_tbl; ps.ps_ins; ps.ps_del; ps.ps_dead; ps.ps_prop ]
  in
  let chains l = List.fold_left (fun acc ix -> acc + Slot_index.words ix) 0 l in
  let support ps =
    match ps.ps_agg with
    | Some { a_support = Some su; _ } -> Tuple_table.words su.su_tbl + Slot_index.words su.su_groups
    | _ -> 0
  in
  Hashtbl.fold
    (fun _ ps acc -> acc + tables ps + chains ps.ps_indexes + chains ps.ps_overlays + support ps)
    mt.preds
    (Array.fold_left (fun acc b -> acc + Array.length b.e_data) 0 mt.m_bufs)

let arity mt name = (get_pred mt name).ps_arity

let predicates mt = List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) mt.preds [])

let is_base mt name = Hashtbl.mem mt.edb name
