type worker = {
  mutable iterations : int;
  mutable tuples_processed : int;
  mutable tuples_sent : int;
  mutable tuples_local : int;
  mutable batches_sent : int;
  mutable words_sent : int;
  mutable tuples_drained : int;
  mutable merge_time : float;
  mutable merged_tuples : int;
  mutable dup_dropped : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable steals : int;
  mutable morsels_executed : int;
  mutable stolen_tuples : int;
  mutable wait_time : float;
  mutable busy_time : float;
  mutable checkpoint_time : float;
}

type recovery = {
  mutable recoveries : int;
  mutable epochs_cut : int;
  mutable rolled_back_tuples : int;
  mutable rerun_iterations : int;
}

type stratum = {
  preds : string list;
  kind : string;
  wall : float;
  setup : float;
  evaluate : float;
  materialize : float;
  workers : worker array;
}

type maintain_worker = {
  mutable mw_join_s : float;
  mutable mw_morsels : int;
  mutable mw_steals : int;
  mutable mw_stolen : int;
}

type maintenance = {
  mutable batches : int;
  mutable base_inserted : int;
  mutable base_deleted : int;
  mutable inserted : int;
  mutable deleted : int;
  mutable overdeleted : int;
  mutable rederived : int;
  mutable restored : int;
  mutable recounted : int;
  mutable recomputed_strata : int;
  mutable maintain_s : float;
  mutable words : int;
  mutable resident_tuples : int;
  mutable coalesced : int;
  mutable mworkers : maintain_worker array;
}

let fresh_maintain_worker () = { mw_join_s = 0.; mw_morsels = 0; mw_steals = 0; mw_stolen = 0 }

(* Grows the per-maintenance-worker array on demand: the session layer
   folds whatever width {!Maintain.batch_report.br_workers} reports. *)
let maintain_worker m i =
  let n = Array.length m.mworkers in
  if i >= n then
    m.mworkers <-
      Array.init (i + 1) (fun j -> if j < n then m.mworkers.(j) else fresh_maintain_worker ());
  m.mworkers.(i)

type t = {
  mutable strata : stratum list;
  mutable total_wall : float;
  recovery : recovery;
  maintenance : maintenance;
}

let create () =
  {
    strata = [];
    total_wall = 0.;
    recovery = { recoveries = 0; epochs_cut = 0; rolled_back_tuples = 0; rerun_iterations = 0 };
    maintenance =
      {
        batches = 0;
        base_inserted = 0;
        base_deleted = 0;
        inserted = 0;
        deleted = 0;
        overdeleted = 0;
        rederived = 0;
        restored = 0;
        recounted = 0;
        recomputed_strata = 0;
        maintain_s = 0.;
        words = 0;
        resident_tuples = 0;
        coalesced = 0;
        mworkers = [||];
      };
  }

let fresh_worker () =
  {
    iterations = 0;
    tuples_processed = 0;
    tuples_sent = 0;
    tuples_local = 0;
    batches_sent = 0;
    words_sent = 0;
    tuples_drained = 0;
    merge_time = 0.;
    merged_tuples = 0;
    dup_dropped = 0;
    cache_hits = 0;
    cache_misses = 0;
    steals = 0;
    morsels_executed = 0;
    stolen_tuples = 0;
    wait_time = 0.;
    busy_time = 0.;
    checkpoint_time = 0.;
  }

let add_stratum t s = t.strata <- t.strata @ [ s ]

let sum_strata t f =
  List.fold_left
    (fun acc s -> acc + Array.fold_left (fun a w -> a + f w) 0 s.workers)
    0 t.strata

let total_iterations t =
  List.fold_left
    (fun acc s -> acc + Array.fold_left (fun m w -> max m w.iterations) 0 s.workers)
    0 t.strata

let total_wait t =
  List.fold_left
    (fun acc s -> acc +. Array.fold_left (fun a w -> a +. w.wait_time) 0. s.workers)
    0. t.strata

let total_sent t = sum_strata t (fun w -> w.tuples_sent)

let total_local t = sum_strata t (fun w -> w.tuples_local)

let total_words t = sum_strata t (fun w -> w.words_sent)

let total_batches t = sum_strata t (fun w -> w.batches_sent)

let total_drained t = sum_strata t (fun w -> w.tuples_drained)

let total_merged t = sum_strata t (fun w -> w.merged_tuples)

let total_dup_dropped t = sum_strata t (fun w -> w.dup_dropped)

let total_cache_hits t = sum_strata t (fun w -> w.cache_hits)

let total_cache_misses t = sum_strata t (fun w -> w.cache_misses)

let total_merge_time t =
  List.fold_left
    (fun acc s -> acc +. Array.fold_left (fun a w -> a +. w.merge_time) 0. s.workers)
    0. t.strata

let total_steals t = sum_strata t (fun w -> w.steals)

let total_checkpoint_time t =
  List.fold_left
    (fun acc s -> acc +. Array.fold_left (fun a w -> a +. w.checkpoint_time) 0. s.workers)
    0. t.strata

let total_stolen_tuples t = sum_strata t (fun w -> w.stolen_tuples)

(* max/mean of per-worker busy time summed across strata: 1.0 is a
   perfectly balanced run, the paper's skew pathology shows up as one
   worker's busy time dwarfing the mean.  Stolen morsels are accounted
   to the thief's busy time, so effective stealing pulls this toward 1. *)
let busy_imbalance t =
  match t.strata with
  | [] -> 1.
  | first :: _ ->
    let n = Array.length first.workers in
    if n = 0 then 1.
    else begin
      let busy = Array.make n 0. in
      List.iter
        (fun s ->
          Array.iteri (fun i w -> if i < n then busy.(i) <- busy.(i) +. w.busy_time) s.workers)
        t.strata;
      let max_b = Array.fold_left Float.max 0. busy in
      let mean_b = Array.fold_left ( +. ) 0. busy /. float_of_int n in
      if mean_b <= 0. then 1. else max_b /. mean_b
    end

let stratum_imbalance s =
  let n = Array.length s.workers in
  if n = 0 then 1.
  else begin
    let max_b = Array.fold_left (fun a w -> Float.max a w.busy_time) 0. s.workers in
    let mean_b =
      Array.fold_left (fun a w -> a +. w.busy_time) 0. s.workers /. float_of_int n
    in
    if mean_b <= 0. then 1. else max_b /. mean_b
  end

let pp fmt t =
  Format.fprintf fmt
    "total wall %.3fs, %d global iterations, %.3fs idle, %d tuples sent, %d delivered locally, \
     %d steals (%d tuples), busy imbalance %.2f@."
    t.total_wall (total_iterations t) (total_wait t) (total_sent t) (total_local t)
    (total_steals t) (total_stolen_tuples t) (busy_imbalance t);
  let r = t.recovery in
  if r.recoveries > 0 || r.epochs_cut > 0 then
    Format.fprintf fmt
      "  recovery: %d recoveries, %d epochs cut (%.3fs checkpointing), %d tuples rolled back, %d \
       iterations re-run@."
      r.recoveries r.epochs_cut (total_checkpoint_time t) r.rolled_back_tuples r.rerun_iterations;
  let m = t.maintenance in
  if m.batches > 0 then begin
    Format.fprintf fmt
      "  maintenance: %d batches in %.3fs, base +%d/-%d, derived +%d/-%d, %d overdeleted, %d \
       rederived, %d restored, %d recounted, %d strata recomputed, %d state words (%.1f per \
       resident tuple)@."
      m.batches m.maintain_s m.base_inserted m.base_deleted m.inserted m.deleted m.overdeleted
      m.rederived m.restored m.recounted m.recomputed_strata m.words
      (float_of_int m.words /. float_of_int (max 1 m.resident_tuples));
    if m.coalesced > 0 then
      Format.fprintf fmt "    coalesced: %d caller batches merged into shared rounds@."
        m.coalesced;
    Array.iteri
      (fun i w ->
        if w.mw_morsels > 0 || w.mw_join_s > 0. then
          Format.fprintf fmt "    mw%d: %d morsels (%d stolen, %d tuples), join %.3fs@." i
            w.mw_morsels w.mw_steals w.mw_stolen w.mw_join_s)
      m.mworkers
  end;
  List.iter
    (fun s ->
      Format.fprintf fmt
        "  stratum {%s} (%s): %.3fs (setup %.3fs, evaluate %.3fs, materialize %.3fs), imbalance %.2f@."
        (String.concat "," s.preds) s.kind s.wall s.setup s.evaluate s.materialize
        (stratum_imbalance s);
      Array.iteri
        (fun i w ->
          Format.fprintf fmt
            "    w%d: %d iters, %d in, %d out (%d batches, %d words), %d local, %d morsels (%d \
             stolen, %d tuples), busy %.3fs, idle %.3fs@."
            i w.iterations w.tuples_processed w.tuples_sent w.batches_sent w.words_sent
            w.tuples_local
            w.morsels_executed w.steals w.stolen_tuples w.busy_time w.wait_time;
          Format.fprintf fmt
            "        merge %.3fs: %d merged, %d dups dropped, cache %d hit / %d miss@."
            w.merge_time w.merged_tuples w.dup_dropped w.cache_hits w.cache_misses)
        s.workers)
    t.strata
