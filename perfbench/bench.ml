(* What both kinds of workload share: the run context, timing, answer
   checks, and the engine-layer counters read from a [Run_stats]. *)

module D = Dcdatalog
module R = Dcdatalog.Run_stats
open Perfbench

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  config : D.config;
  out_dir : string;
  spans : Spans.t;
  record : Record.t;
  mutable attempted : int;
  mutable failed : int;
}

(* wall seconds of [f ()] on the monotonic clock *)
let time f =
  let t0 = Nclock.now () in
  let r = f () in
  (r, Nclock.s_of_ns (Nclock.now () - t0))

(* one checked operation; the first few failures are explained on stderr *)
let check ctx ok what =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then begin
    ctx.failed <- ctx.failed + 1;
    if ctx.failed <= 20 then
      prerr_endline ("perfbench: failed: " ^ String.sub what 0 (min 240 (String.length what)))
  end

let fail ctx what = check ctx false what

let ok_or_fail = function Ok v -> v | Error e -> failwith e

(* [continue ctx ~start ~per_item]: after items averaging [per_item]
   seconds since [start], start another while it is expected to end
   closer to the budget than stopping now would *)
let continue ctx ~start ~per_item =
  Nclock.s_of_ns (Nclock.now () - start) +. (per_item /. 2.) <= ctx.seconds

let sum_workers (st : R.t) f =
  List.fold_left
    (fun acc (s : R.stratum) -> Array.fold_left (fun a w -> a +. f w) acc s.R.workers)
    0. st.R.strata

(* Engine-layer counters of one evaluation, and its stratum phases as
   measured children of span [parent] (the run, or the session's initial
   fixpoint).  [output] is the size of the query's answer relation. *)
let engine_layers ctx ~parent (st : R.t) ~output =
  let add = Record.add ctx.record in
  let phase f = List.fold_left (fun acc (s : R.stratum) -> acc +. f s) 0. st.R.strata in
  let wall = phase (fun s -> s.R.wall) in
  let setup = phase (fun s -> s.R.setup) in
  let evaluate = phase (fun s -> s.R.evaluate) in
  let materialize = phase (fun s -> s.R.materialize) in
  let ingest = st.R.total_wall -. wall in
  List.iter
    (fun (name, v) -> ignore (Spans.measured ctx.spans ~parent name v))
    [
      ("engine.ingest", ingest);
      ("engine.stratum_setup", setup);
      ("engine.evaluate", evaluate);
      ("engine.materialize", materialize);
    ];
  add "engine.ingest_s" ingest;
  add "engine.stratum_setup_s" setup;
  add "engine.evaluate_s" evaluate;
  add "engine.materialize_s" materialize;
  let busy = sum_workers st (fun w -> w.R.busy_time) in
  let merge = R.total_merge_time st and wait = R.total_wait st in
  add "worker.busy_s" busy;
  add "worker.merge_s" merge;
  add "strategy.wait_s" wait;
  add "worker.unattributed_frac"
    (1. -. Record.ratio (busy +. merge +. wait) (evaluate *. float_of_int ctx.config.D.workers));
  let sent = R.total_sent st in
  add "engine.derivations_per_output" (Record.ratio (float_of_int sent) (float_of_int output));
  add "engine.iterations" (float_of_int (R.total_iterations st));
  add "engine.busy_imbalance" (R.busy_imbalance st);
  add "exchange.tuples_sent" (float_of_int sent);
  add "exchange.batches_sent" (float_of_int (R.total_batches st));
  add "exchange.words_per_tuple"
    (Record.ratio (float_of_int (R.total_words st)) (float_of_int sent));
  let in_flight = sent - R.total_drained st in
  add "exchange.in_flight" (float_of_int in_flight);
  check ctx (in_flight = 0) (Printf.sprintf "exchange.in_flight = %d after a run" in_flight);
  let merged = R.total_merged st and dups = R.total_dup_dropped st in
  add "rec_store.merged" (float_of_int merged);
  add "rec_store.dup_frac" (Record.ratio (float_of_int dups) (float_of_int (merged + dups)));
  let hits = R.total_cache_hits st and misses = R.total_cache_misses st in
  add "exist_cache.hit_frac" (Record.ratio (float_of_int hits) (float_of_int (hits + misses)));
  add "steal.steals" (float_of_int (R.total_steals st));
  add "steal.stolen_frac"
    (Record.ratio
       (float_of_int (R.total_stolen_tuples st))
       (sum_workers st (fun w -> float_of_int w.R.tuples_processed)))
