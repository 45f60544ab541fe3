(* The benchmark's entry point: runs one workload for a time budget and prints
   every metric by name with its unit, then, as the last line, the JSON
   result.  Usage:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the metrics are the end-to-end ones; with --trace 1
   the layer ones, from a run whose ops alternate traced and untraced.
   The spans of a traced run and a copy of the report land in
   .bench_build/perfbench.  README.md documents each metric. *)

module D = Dcdatalog
open Perfbench

let workloads = [ "tc-rmat600"; "sssp-arabic"; "serve-churn" ]

(* (name, unit) — the end-to-end metrics every workload reports.  The
   fixpoint is [Dcdatalog.run] per rep on one-shot workloads, and on
   serve-churn the update request, each step at its fastest replay (see
   {!Serving}).  The fixpoint and scan tails are layer metrics instead:
   a one-shot run has too few reps for a fixpoint tail, and on a 2-vCPU
   host with CPU steal both tails spread beyond any bound the benchmark
   may set. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("fixpoint_p50_ms", "ms");
    ("lookup_p50_us", "us");
    ("lookup_p99_us", "us");
    ("scan_p50_us", "us");
    ("resident_mb", "MB");
  ]

(* (name, unit) — the layer metrics; a layer a workload does not use
   reports 0 *)
let per_layer =
  [
    ("loader.load_s", "s");
    ("queries.edb_s", "s");
    ("datalog.parse_s", "s");
    ("datalog.analyze_s", "s");
    ("planner.compile_s", "s");
    ("engine.ingest_s", "s");
    ("engine.stratum_setup_s", "s");
    ("engine.evaluate_s", "s");
    ("engine.materialize_s", "s");
    ("engine.outside_s", "s");
    ("worker.busy_s", "s");
    ("worker.merge_s", "s");
    ("strategy.wait_s", "s");
    ("worker.unattributed_frac", "ratio");
    ("engine.derivations_per_output", "ratio");
    ("engine.iterations", "count");
    ("engine.busy_imbalance", "ratio");
    ("exchange.tuples_sent", "count");
    ("exchange.batches_sent", "count");
    ("exchange.words_per_tuple", "ratio");
    ("exchange.in_flight", "count");
    ("rec_store.merged", "count");
    ("rec_store.dup_frac", "ratio");
    ("exist_cache.hit_frac", "ratio");
    ("steal.steals", "count");
    ("steal.stolen_frac", "ratio");
    ("session.open_s", "s");
    ("session.initial_fixpoint_s", "s");
    ("maintain.create_s", "s");
    ("maintain.apply_ms_p50", "ms");
    ("maintain.join_s", "s");
    ("maintain.morsels", "count");
    ("maintain.steals", "count");
    ("maintain.overdeleted_per_batch", "count");
    ("maintain.rederived_per_batch", "count");
    ("maintain.derived_changed_per_batch", "count");
    ("maintain.rederive_frac", "ratio");
    ("maintain.age_growth", "ratio");
    ("maintain.recomputed_strata", "count");
    ("session.update_overhead_ms_p50", "ms");
    ("session.coalesced", "count");
    ("scan.tuples_p50", "count");
    ("scan.ns_per_tuple", "ns");
    ("session.resident_growth_mb", "MB");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("gc.peak_rss_mb", "MB");
    ("host.steal_frac", "ratio");
    ("host.cpu_s", "s");
    ("trace.overhead_frac", "ratio");
    ("tail.fixpoint_p90_ms", "ms");
    ("tail.scan_p90_us", "us");
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: tc-rmat600 sssp-arabic serve-churn";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when List.mem !workload workloads && seconds > 0. ->
    (!workload, seed, seconds, trace)
  | _ -> usage ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* the layer metrics, from the record and the spans of the traced ops *)
let layer_values (ctx : Bench.ctx) ~ops ~(mark : Host.mark) ~(finish : Host.mark) =
  let r = ctx.Bench.record in
  let self name = Sample.sorted (Spans.self_s ctx.Bench.spans name) in
  let self_median name =
    let a = self name in
    if Array.length a = 0 then 0. else Sample.median a
  in
  let med = Record.median r and mean = Record.mean r and sum = Record.sum r in
  let per_op v = Record.ratio v (float_of_int ops) in
  [
    ("loader.load_s", self_median "loader.edges_of_file");
    ("queries.edb_s", self_median "queries.edb");
    ("datalog.parse_s", self_median "parser.parse_program");
    ("datalog.analyze_s", self_median "analysis.analyze");
    ("planner.compile_s", self_median "physical.compile");
    ("engine.outside_s", self_median "dcdatalog.run");
    ("maintain.create_s", self_median "dcdatalog.open_session");
    ("session.update_overhead_ms_p50", self_median "serve.update" *. 1e3);
    ("maintain.apply_ms_p50", med "maintain.apply_ms");
    ("maintain.join_s", mean "maintain.join_s");
    ("maintain.morsels", mean "maintain.morsels");
    ("maintain.steals", mean "maintain.steals");
    ("maintain.overdeleted_per_batch", mean "maintain.overdeleted");
    ("maintain.rederived_per_batch", mean "maintain.rederived");
    ("maintain.derived_changed_per_batch", mean "maintain.derived_changed");
    ("maintain.rederive_frac", Record.ratio (sum "maintain.rederived") (sum "maintain.overdeleted"));
    ("maintain.age_growth", Record.ratio (mean "age.last_quarter") (mean "age.first_quarter"));
    ("maintain.recomputed_strata", mean "maintain.recomputed_strata");
    ("session.coalesced", sum "session.coalesced");
    ("scan.tuples_p50", med "scan.tuples");
    ("scan.ns_per_tuple", Record.ratio (sum "scan_us" *. 1e3) (sum "scan.tuples"));
    ("gc.minor_mwords", per_op ((finish.Host.minor_words -. mark.Host.minor_words) /. 1e6));
    ("gc.major_collections", per_op (float_of_int (finish.Host.major - mark.Host.major)));
    ("gc.peak_rss_mb", Host.status_mb "VmHWM");
    ("host.steal_frac", Host.steal_frac mark finish);
    ("host.cpu_s", per_op (finish.Host.cpu_s -. mark.Host.cpu_s));
    ("tail.fixpoint_p90_ms", Record.percentile r "fixpoint_ms" 90.);
    ("tail.scan_p90_us", Record.percentile r "scan_us" 90.);
    ( "trace.overhead_frac",
      let traced = med "traced.lookup_us" and untraced = med "untraced.lookup_us" in
      if traced = 0. || untraced = 0. then 0. else (traced /. untraced) -. 1. );
  ]
  @ List.filter_map
      (fun (name, _) ->
        (* counters recorded once per evaluation: the median evaluation *)
        if Array.length (Record.samples r name) > 0 then Some (name, med name) else None)
      per_layer

let () =
  let workload, seed, seconds, trace = parse_args () in
  let out_dir = Filename.concat ".bench_build" "perfbench" in
  mkdir_p out_dir;
  let workers = min 2 (Domain.recommended_domain_count ()) in
  let ctx =
    {
      Bench.seed;
      seconds;
      trace;
      config = { D.default_config with D.workers };
      out_dir;
      spans = Spans.create ();
      record = Record.create ();
      attempted = 0;
      failed = 0;
    }
  in
  let ops, mark =
    match workload with
    | "tc-rmat600" -> Oneshot.run ctx Oneshot.tc_rmat600
    | "sssp-arabic" -> Oneshot.run ctx Oneshot.sssp_arabic
    | _ -> Serving.run ctx
  in
  let finish = Host.mark () in
  let r = ctx.Bench.record in
  let e2e_values =
    [
      ("setup_s", Record.median r "setup_s");
      ("fixpoint_p50_ms", Record.median r "fixpoint_ms");
      ("lookup_p50_us", Record.median r "lookup_us");
      ("lookup_p99_us", Record.percentile r "lookup_us" 99.);
      ("scan_p50_us", Record.median r "scan_us");
      ("resident_mb", Record.median r "resident_mb");
    ]
  in
  let catalog, values =
    if trace then (per_layer, layer_values ctx ~ops ~mark ~finish) else (end_to_end, e2e_values)
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        (name, unit, match List.assoc_opt name values with Some v -> v | None -> 0.))
      catalog
  in
  let sample_count name = Array.length (Record.samples r name) in
  let report = ref [] in
  let say fmt = Printf.ksprintf (fun l -> report := l :: !report) fmt in
  say "workload %s  seed %d  seconds %g  trace %d  workers %d  nproc %d" workload seed seconds
    (Bool.to_int trace) workers (Domain.recommended_domain_count ());
  say "samples: fixpoint %d, lookup %d, scan %d, setup %d" (sample_count "fixpoint_ms")
    (sample_count "lookup_us") (sample_count "scan_us") (sample_count "setup_s");
  List.iter
    (fun (name, p, unit) ->
      let n = sample_count name in
      if n > 0 then
        say "tail: %s p%g = %.6g %s (%d samples, %d beyond it%s)" name p
          (Record.percentile r name p) unit n (Sample.beyond ~n p)
          (if Sample.supported ~n p then "" else "; fewer than ten: noise"))
    [
      ("fixpoint_ms", 90., "ms");
      ("update_ms", 90., "ms");
      ("lookup_us", 99., "us");
      ("scan_us", 90., "us");
    ];
  say "host: steal %.4f  cpu %.2f s  peak rss %.0f MB" (Host.steal_frac mark finish)
    (finish.Host.cpu_s -. mark.Host.cpu_s) (Host.status_mb "VmHWM");
  List.iter (fun (name, unit, v) -> say "  %-36s %14.6g %s" name v unit) metrics;
  say "%s"
    (Record.result_line ~correct:(ctx.Bench.failed = 0) ~attempted:ctx.Bench.attempted
       ~failed:ctx.Bench.failed metrics);
  let stem = Printf.sprintf "%s-seed%d-trace%d" workload seed (Bool.to_int trace) in
  if trace then Spans.write_json ctx.Bench.spans (Filename.concat out_dir (stem ^ ".spans.json"));
  let oc = open_out (Filename.concat out_dir (stem ^ ".txt")) in
  List.iter
    (fun l ->
      print_endline l;
      output_string oc (l ^ "\n"))
    (List.rev !report);
  close_out oc
