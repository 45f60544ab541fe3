open Dcd_planner
module Ast = Dcd_datalog.Ast
module Frame = Dcd_concurrent.Frame
module Chunk_queue = Dcd_concurrent.Chunk_queue
module Locked_queue = Dcd_concurrent.Locked_queue
module Termination = Dcd_concurrent.Termination

type kind =
  | Spsc_exchange
  | Locked_exchange

(* --- copy table --- *)

type copy_info = {
  ci_pred : string;
  ci_route : int array;
  ci_arity : int;
  ci_agg : (int * Ast.agg_kind) option;
  ci_probed : bool;
  ci_local : bool;
}

let build_copies (sp : Physical.stratum_plan) =
  let probed = ref [] in
  List.iter
    (fun cr ->
      Physical.iter_lookups cr (function
        | { rel = Physical.R_rec { pred; route }; _ } -> probed := (pred, route) :: !probed
        | { rel = Physical.R_base _; _ } -> ()))
    (sp.init_rules @ sp.delta_rules);
  let copies = ref [] in
  List.iter
    (fun (pp : Physical.pred_plan) ->
      List.iter
        (fun route ->
          let ci_probed = List.mem (pp.pred, route) !probed in
          copies :=
            {
              ci_pred = pp.pred;
              ci_route = route;
              ci_arity = pp.arity;
              ci_agg = pp.agg;
              ci_probed;
              (* no thief reads an unprobed set copy during the
                 stratum, so its owner may fold into it while morsels
                 are out (see Distribute.emitter) *)
              ci_local = pp.agg = None && not ci_probed;
            }
            :: !copies)
        pp.routes)
    sp.pred_plans;
  Array.of_list (List.rev !copies)

(* Linear scan over the copy table.  Only ever called at setup/prepare
   time: the per-tuple path dispatches on the integer ids this resolves
   to (Eval precomputes them per compiled rule), never on strings. *)
let copy_id copies pred route =
  let n = Array.length copies in
  let rec loop i =
    if i = n then
      invalid_arg (Printf.sprintf "no copy for %s under the requested route" pred)
    else if String.equal copies.(i).ci_pred pred && copies.(i).ci_route = route then i
    else loop (i + 1)
  in
  loop 0

let copies_of_pred copies pred =
  let out = ref [] in
  Array.iteri (fun i ci -> if String.equal ci.ci_pred pred then out := i :: !out) copies;
  List.rev !out

(* --- the fabric --- *)

(* One exchange message: every delta tuple a worker produced for one
   (copy, destination) in one flush, packed flat into a single frame.
   The producer gives up ownership on push; the consumer folds the
   records in without unpacking them into boxed tuples. *)
type batch = {
  bcopy : int;
  bsrc : int;
  bframe : Frame.t;
}

(* Either the paper's SPSC matrix (M_i^j, §6.1) or the lock-based
   alternative it argues against (one mutex-protected multi-producer
   queue per destination) — kept for the ablation.  Queue elements are
   whole batches, so queue traffic and termination accounting are per
   flush, not per tuple. *)
type fabric =
  | Spsc of batch Chunk_queue.t array array (* queues.(dest).(src) *)
  | Locked of batch Locked_queue.t array

type t = {
  workers : int;
  copies : copy_info array;
  contrib : bool array;
      (* count/sum copies ship a contributor key with every tuple; the
         other copies travel at fixed stride *)
  fabric : fabric;
  (* Tuple-denominated buffer occupancy |M_i^j| for the queueing model
     (the queues themselves count batches).  Producers add before the
     push, consumers subtract after the drain, so a read never
     under-reports in-flight work. *)
  occupancy : int Atomic.t array array; (* occupancy.(dest).(src) *)
  term : Termination.t;
}

let create ~workers ~kind ~copies =
  let fabric =
    match kind with
    | Spsc_exchange ->
      Spsc (Array.init workers (fun _ -> Array.init workers (fun _ -> Chunk_queue.create ~chunk:64 ())))
    | Locked_exchange -> Locked (Array.init workers (fun _ -> Locked_queue.create ()))
  in
  {
    workers;
    copies;
    contrib = Array.map (fun ci -> ci.ci_agg <> None) copies;
    fabric;
    occupancy = Array.init workers (fun _ -> Array.init workers (fun _ -> Atomic.make 0));
    term = Termination.create ~workers;
  }

let workers t = t.workers

let copies t = t.copies

let contrib t cid = t.contrib.(cid)

let term t = t.term

let push_batch t ~dest b =
  match t.fabric with
  | Spsc q -> Chunk_queue.push q.(dest).(b.bsrc) b
  | Locked q -> Locked_queue.push q.(dest) b

(* Ships one packed frame: one queue push and one amortized termination
   update per flush, instead of one of each per tuple. *)
let send t ~ws ~src ~dest ~copy frame =
  let len = Frame.count frame in
  Termination.sent t.term len;
  ignore (Atomic.fetch_and_add t.occupancy.(dest).(src) len);
  ws.Run_stats.tuples_sent <- ws.Run_stats.tuples_sent + len;
  ws.Run_stats.batches_sent <- ws.Run_stats.batches_sent + 1;
  ws.Run_stats.words_sent <- ws.Run_stats.words_sent + Frame.words frame;
  push_batch t ~dest { bcopy = copy; bsrc = src; bframe = frame }

let drain t ~me ~drained_from consume =
  Array.fill drained_from 0 t.workers 0;
  let on_batch b =
    consume b;
    drained_from.(b.bsrc) <- drained_from.(b.bsrc) + Frame.count b.bframe
  in
  (match t.fabric with
  | Spsc q ->
    for j = 0 to t.workers - 1 do
      ignore (Chunk_queue.drain q.(me).(j) on_batch)
    done
  | Locked q -> ignore (Locked_queue.drain q.(me) on_batch));
  let total = ref 0 in
  for j = 0 to t.workers - 1 do
    let cnt = drained_from.(j) in
    if cnt > 0 then begin
      ignore (Atomic.fetch_and_add t.occupancy.(me).(j) (-cnt));
      total := !total + cnt
    end
  done;
  !total

(* Recovery reset: discard every in-flight batch, zero the occupancy
   matrix, and reset the termination counters — back to the state a
   fresh exchange starts a stratum in.  In-flight batches are safe to
   drop because rollback restores every worker to the same committed
   epoch: the senders re-run from the cut and regenerate them (and
   re-merges are idempotent under set semantics / restored contributor
   state).  Between rounds only — no worker may be running. *)
let reset t =
  let discard (_ : batch) = () in
  (match t.fabric with
  | Spsc q ->
    Array.iter (fun row -> Array.iter (fun sq -> ignore (Chunk_queue.drain sq discard)) row) q
  | Locked q -> Array.iter (fun lq -> ignore (Locked_queue.drain lq discard)) q);
  Array.iter (fun row -> Array.iter (fun c -> Atomic.set c 0) row) t.occupancy;
  Termination.reset t.term

let inbox_sizes t ~dest = Array.init t.workers (fun j -> Atomic.get t.occupancy.(dest).(j))

let inbox_tuples t ~dest =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.occupancy.(dest)

let inbox_batches t ~dest =
  match t.fabric with
  | Spsc q -> Array.fold_left (fun acc s -> acc + Chunk_queue.size s) 0 q.(dest)
  | Locked q -> Locked_queue.size q.(dest)
