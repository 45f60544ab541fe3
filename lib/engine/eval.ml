open Dcd_planner
module Tuple = Dcd_storage.Tuple
module Arena = Dcd_storage.Arena
module Slot_index = Dcd_storage.Slot_index
module Sorted_index = Dcd_storage.Sorted_index
module Vec = Dcd_util.Vec

type access =
  | Index of Slot_index.t
  | Iter of (int array -> (int array -> int -> unit) -> unit)
  | Mem of (int array -> bool)

type context = {
  lookup : Physical.lookup -> access;
  base_sorted : string -> int array -> Sorted_index.t;
}

type emit = tuple:Tuple.t -> contributor:Tuple.t -> unit

exception Found

(* Tuples flow through the pipeline as (data, off) cursors into flat
   storage — an arena, a relation's tuple table, a packed frame — never
   as boxed arrays.  A boxed tuple is just the cursor (tup, 0).  The per-field
   work (binds, checks, key/head fills) runs through the monomorphic
   closures of {!Kernel}, specialized once at prepare time. *)

type prepared = {
  cr : Physical.compiled_rule;
  regs : int array;
  entry : unit -> unit; (* pipeline from the first step *)
  scan_bind : int array -> int -> unit;
  scan_check : int array -> int -> bool;
}

(* Compiles a step array into a closure chain ending in [cont]. *)
let build_steps ctx regs (steps : Physical.step array) cont =
  let nsteps = Array.length steps in
  let rec build k =
    if k = nsteps then cont
    else begin
      let next = build (k + 1) in
      match steps.(k) with
      | Physical.Filter { op; lhs; rhs } ->
        fun () ->
          (match (Physical.eval_code lhs regs, Physical.eval_code rhs regs) with
          | x, y -> if Physical.eval_cmp op x y then next ()
          | exception Division_by_zero -> ())
      | Physical.Compute { reg; code } ->
        fun () ->
          (match Physical.eval_code code regs with
          | v ->
            regs.(reg) <- v;
            next ()
          | exception Division_by_zero -> ())
      | Physical.Lookup ({ key_src; binds; checks; negated; _ } as l) -> (
        (* binds first: a residual check may compare against a register
           bound by this very tuple (within-atom variable repeats) *)
        let bind = Kernel.binder binds ~regs in
        let check = Kernel.checker checks ~regs in
        let on_match data off =
          bind data off;
          if check data off then if negated then raise Found else next ()
        in
        let key = Array.make (Array.length key_src) 0 in
        let fill_key = Kernel.filler key_src ~regs ~buf:key in
        (* a membership probe's key is the whole tuple: it is its own
           match *)
        let iterate =
          match ctx.lookup l with
          | Index idx ->
            fun () ->
              fill_key ();
              Slot_index.iter idx key on_match
          | Iter iter ->
            fun () ->
              fill_key ();
              iter key on_match
          | Mem mem ->
            fun () ->
              fill_key ();
              if mem key then on_match key 0
        in
        if negated then
          fun () ->
            (match iterate () with
            | () -> next () (* no match found: anti-join succeeds *)
            | exception Found -> ())
        else iterate)
    end
  in
  build 0

(* --- generic (worst-case-optimal) join ---

   One closure per elimination level.  Each participating atom holds a
   position in its sorted index plus a full-length working key buffer:
   the scan fills the bound-prefix slots once per scanned tuple, and
   each level writes its resolved value into the slot the variable
   occupies in that atom's trie order.  Within one scanned tuple every
   position only moves forward (leapfrog), so seeks gallop over a short
   distance; the backward seek at the next scanned tuple binary
   searches. *)
let build_gj ctx (g : Physical.gj) ~regs ~emit_stage =
  let atoms = g.gj_atoms in
  let na = Array.length atoms in
  let indexes =
    Array.map (fun (ga : Physical.gj_atom) -> ctx.base_sorted ga.ga_pred ga.ga_cols) atoms
  in
  let positions = Array.make na 0 in
  let keybufs =
    Array.map (fun (ga : Physical.gj_atom) -> Array.make (Array.length ga.ga_cols) 0) atoms
  in
  let prefix_fills =
    Array.mapi
      (fun i (ga : Physical.gj_atom) -> Kernel.filler ga.ga_prefix ~regs ~buf:keybufs.(i))
      atoms
  in
  let nlevels = Array.length g.gj_levels in
  let rec build_level li =
    if li = nlevels then emit_stage
    else begin
      let lv = g.gj_levels.(li) in
      let after = build_steps ctx regs lv.gv_steps (build_level (li + 1)) in
      let np = Array.length lv.gv_atoms in
      let ais = Array.map fst lv.gv_atoms in
      let depths = Array.map snd lv.gv_atoms in
      let cand_bufs = Array.map (fun d -> Array.make d 0) depths in
      let cands = Array.make np 0 in
      let reg = lv.gv_reg in
      (* Seeks participant [j] to its first tuple not below [key]'s
         first [n] ints, then reads the candidate: the tuple's value at
         this level, if it still carries the current prefix. *)
      let seek j key n =
        let ai = ais.(j) in
        let d = depths.(j) in
        let si = indexes.(ai) in
        let p = Sorted_index.seek_geq si ~from:positions.(ai) key n in
        positions.(ai) <- p;
        Sorted_index.prefix_eq si p keybufs.(ai) (d - 1)
        &&
        (cands.(j) <- Sorted_index.value si p (d - 1);
         true)
      in
      (* First value >= [v] of participant [j] under the current
         prefix; false when the subtrie is exhausted. *)
      let probe j v =
        let d = depths.(j) in
        let cb = cand_bufs.(j) in
        Array.blit keybufs.(ais.(j)) 0 cb 0 (d - 1);
        cb.(d - 1) <- v;
        seek j cb d
      in
      (* First value of participant [j] under the current prefix. *)
      let enter j = seek j keybufs.(ais.(j)) (depths.(j) - 1) in
      let bind_match v =
        Array.unsafe_set regs reg v;
        for j = 0 to np - 1 do
          keybufs.(ais.(j)).(depths.(j) - 1) <- v
        done;
        after ()
      in
      (* Leapfrog: raise every candidate to the common frontier [v];
         when all [np] agree, bind and descend, then resume past [v].
         All recursive calls are tail calls. *)
      let rec settle v j =
        if j = np then begin
          bind_match v;
          if v < max_int && probe 0 (v + 1) then settle cands.(0) 0
        end
        else if cands.(j) = v then settle v (j + 1)
        else if cands.(j) > v then settle cands.(j) 0
        else if probe j v then
          if cands.(j) = v then settle v (j + 1) else settle cands.(j) 0
      in
      let rec init j vmax =
        if j = np then settle vmax 0
        else if enter j then init (j + 1) (if cands.(j) > vmax then cands.(j) else vmax)
      in
      fun () -> init 0 min_int
    end
  in
  let levels_entry = build_level 0 in
  build_steps ctx regs g.gj_prelude (fun () ->
      for i = 0 to na - 1 do
        (Array.unsafe_get prefix_fills i) ()
      done;
      levels_entry ())

let prepare (cr : Physical.compiled_rule) ctx ~emit =
  let regs = Array.make (max 1 cr.nregs) 0 in
  let head = cr.head in
  (* The emitted tuple and contributor are filled into scratch buffers
     reused across emissions: [emit] sees them transiently and must
     copy on retention (the flat sinks blit them into frames/arenas). *)
  let head_buf = Array.make (Array.length head.args) 0 in
  let contrib_src =
    match head.agg with
    | Some (_, _, contrib) when Array.length contrib > 0 -> Some contrib
    | _ -> None
  in
  let contrib_buf =
    match contrib_src with Some c -> Array.make (Array.length c) 0 | None -> [||]
  in
  let head_fill = Kernel.filler head.args ~regs ~buf:head_buf in
  let contrib_fill =
    Kernel.filler
      (match contrib_src with Some c -> c | None -> [||])
      ~regs ~buf:contrib_buf
  in
  let emit_stage () =
    head_fill ();
    contrib_fill ();
    emit ~tuple:head_buf ~contributor:contrib_buf
  in
  let entry =
    match cr.gj with
    | Some g -> build_gj ctx g ~regs ~emit_stage
    | None -> build_steps ctx regs cr.steps emit_stage
  in
  let scan_binds, scan_checks =
    match cr.scan with
    | Physical.S_base { binds; checks; _ } -> (binds, checks)
    | Physical.S_delta { binds; checks; _ } -> (binds, checks)
    | Physical.S_unit -> ([||], [||])
  in
  {
    cr;
    regs;
    entry;
    scan_bind = Kernel.binder scan_binds ~regs;
    scan_check = Kernel.checker scan_checks ~regs;
  }

let check_scan_kind p ~unit_input =
  match (p.cr.scan, unit_input) with
  | Physical.S_unit, true | (Physical.S_base _ | Physical.S_delta _), false -> ()
  | Physical.S_unit, false -> invalid_arg "Eval.run: tuple input for a unit-scan rule"
  | (Physical.S_base _ | Physical.S_delta _), true ->
    invalid_arg "Eval.run: `Unit scan input for a rule that scans a relation"

let run_prepared p ~scan =
  match scan with
  | `Unit ->
    check_scan_kind p ~unit_input:true;
    p.entry ();
    1
  | `Tuples batch ->
    check_scan_kind p ~unit_input:false;
    let bind = p.scan_bind and check = p.scan_check in
    Vec.iter
      (fun tup ->
        bind tup 0;
        if check tup 0 then p.entry ())
      batch;
    Vec.length batch
  | `Flat arena ->
    check_scan_kind p ~unit_input:false;
    let bind = p.scan_bind and check = p.scan_check in
    (* Read count/data once: rules must not grow the scanned arena
       (deltas are only mutated between iterations). *)
    let n = Arena.length arena and k = Arena.arity arena in
    let data = Arena.data arena in
    let off = ref 0 in
    for _ = 1 to n do
      bind data !off;
      if check data !off then p.entry ();
      off := !off + k
    done;
    n
  | `Flat_range (arena, first, len) ->
    check_scan_kind p ~unit_input:false;
    let bind = p.scan_bind and check = p.scan_check in
    let k = Arena.arity arena in
    let data = Arena.data arena in
    let off = ref (first * k) in
    for _ = 1 to len do
      bind data !off;
      if check data !off then p.entry ();
      off := !off + k
    done;
    len

let run_row p data off =
  p.scan_bind data off;
  if p.scan_check data off then p.entry ()

let regs p = p.regs

let run cr ctx ~scan ~emit = run_prepared (prepare cr ctx ~emit) ~scan
