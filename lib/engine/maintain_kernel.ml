open Dcd_planner
module Tuple_table = Dcd_storage.Tuple_table

exception Stop

type iter = int array -> (int array -> int -> unit) -> unit

type step =
  | S_atom of {
      sa_key_src : Physical.src array;
      sa_binds : (int * int) array;
      sa_checks : (int * Physical.src) array;
      sa_iter : iter;
    }
  | S_mem of {
      sm_key_src : Physical.src array;
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
  sp_contrib : Physical.src array;
}

type instance = {
  in_regs : int array;
  in_head : int array;
  in_contrib : int array;
  in_emit : (unit -> unit) ref;
  in_entry : unit -> unit;
  in_scan_bind : int array -> int -> unit;
  in_scan_check : int array -> int -> bool;
}

let instantiate (sp : spec) =
  let regs = Array.make (max 1 sp.sp_nregs) 0 in
  let head_buf = Array.make (Array.length sp.sp_head) 0 in
  let contrib_buf = Array.make (Array.length sp.sp_contrib) 0 in
  let fill_head = Kernel.filler sp.sp_head ~regs ~buf:head_buf in
  let fill_contrib = Kernel.filler sp.sp_contrib ~regs ~buf:contrib_buf in
  let emit = ref (fun () -> ()) in
  let tail () =
    fill_head ();
    fill_contrib ();
    !emit ()
  in
  (* The step chain is compiled back to front, each step capturing its
     continuation — the same closure-chain shape as {!Eval}, with
     {!Kernel} primitives doing the per-tuple work. *)
  let rec build = function
    | [] -> tail
    | S_atom a :: rest ->
      let next = build rest in
      let key = Array.make (Array.length a.sa_key_src) 0 in
      let fill_key = Kernel.filler a.sa_key_src ~regs ~buf:key in
      let bind = Kernel.binder a.sa_binds ~regs in
      let check = Kernel.checker a.sa_checks ~regs in
      let iterate = a.sa_iter in
      fun () ->
        fill_key ();
        iterate key (fun data off ->
            bind data off;
            if check data off then next ())
    | S_mem m :: rest ->
      let next = build rest in
      let key = Array.make (Array.length m.sm_key_src) 0 in
      let fill_key = Kernel.filler m.sm_key_src ~regs ~buf:key in
      let mem = m.sm_mem in
      if m.sm_negated then (fun () ->
        fill_key ();
        if not (mem key) then next ())
      else fun () ->
        fill_key ();
        if mem key then next ()
    | S_filter (op, lhs, rhs) :: rest ->
      let next = build rest in
      fun () -> (
        match (Physical.eval_code lhs regs, Physical.eval_code rhs regs) with
        | x, y -> if Physical.eval_cmp op x y then next ()
        | exception Division_by_zero -> ())
    | S_compute (reg, code) :: rest ->
      let next = build rest in
      fun () -> (
        match Physical.eval_code code regs with
        | v ->
          regs.(reg) <- v;
          next ()
        | exception Division_by_zero -> ())
  in
  {
    in_regs = regs;
    in_head = head_buf;
    in_contrib = contrib_buf;
    in_emit = emit;
    in_entry = build sp.sp_steps;
    in_scan_bind = Kernel.binder sp.sp_scan_binds ~regs;
    in_scan_check = Kernel.checker sp.sp_scan_checks ~regs;
  }

let regs inst = inst.in_regs

let head inst = inst.in_head

let contrib inst = inst.in_contrib

let set_emit inst f = inst.in_emit := f

let run_row inst data off =
  inst.in_scan_bind data off;
  inst.in_scan_check data off
  &&
  match inst.in_entry () with
  | () -> false
  | exception Stop -> true

let run_range inst tbl ~first ~len =
  let stride = Tuple_table.stride tbl in
  for s = first to first + len - 1 do
    if Tuple_table.live tbl s then ignore (run_row inst (Tuple_table.data tbl) (s * stride))
  done
