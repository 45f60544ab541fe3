(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (SS7) at container scale.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- tab2 fig8    -- run selected experiments
     dune exec bench/main.exe -- --scale 0.2 tab2   -- shrink datasets

   Absolute numbers are not comparable to the paper's 32-core testbed
   (see DESIGN.md SS3); each experiment prints the paper's qualitative
   expectation next to the measured numbers, and EXPERIMENTS.md records
   the comparison. *)

module D = Dcdatalog
module Sim = Dcd_sim.Simulator
module Report = Dcd_util.Report
module Clock = Dcd_util.Clock

let bench_workers = ref 4
let sim_workers = 32

(* ------------------------------------------------------------------ *)
(* measurement plumbing                                                 *)

(* repetition count for best-of measurements; BENCH_REPS overrides the
   per-experiment default (lower for quick local runs, higher for more
   stable CI numbers) *)
let bench_reps ~default =
  match Sys.getenv_opt "BENCH_REPS" with
  | Some s -> ( try max 1 (int_of_string s) with Failure _ -> default)
  | None -> default

(* (best, mean, stddev) of a sample; the minimum is the least noisy
   throughput estimator on a shared vCPU, the spread qualifies it *)
let sample_stats = function
  | [] -> (0., 0., 0.)
  | xs ->
    let n = float_of_int (List.length xs) in
    let best = List.fold_left min infinity xs in
    let mean = List.fold_left ( +. ) 0. xs /. n in
    let var = List.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. xs /. n in
    (best, mean, sqrt var)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

(* [reps] interleaved pairs of [a] and [b], alternating which runs
   first: a pair shares whatever load the box carries while it runs,
   so a gate reads the median of the per-pair ratios, which also
   ignores one slow rep.  A ratio of two best-of-reps minima flips on
   noise near its bar. *)
let interleaved_pairs ~reps a b =
  List.init reps (fun i ->
      if i mod 2 = 0 then
        let x = a () in
        (x, b ())
      else
        let y = b () in
        (a (), y))

(* Machine-readable result blocks, accumulated across whichever
   experiments ran and written once at exit: this run's blocks as a
   timestamped history file under bench/results/, and merged into
   latest.json, which keeps the newest block of every experiment ever
   run, each with its own timestamp and core count. *)
let json_blocks : (string * string) list ref = ref []
let add_json_block name block = json_blocks := (name, block) :: !json_blocks

(* Speed-bar failures are collected, not fatal: a failing bar keeps its
   own result block, the remaining selected experiments still run, and
   the harness exits 1 once the results are written.  A wrong fixpoint
   still exits at once, recording nothing: its timings mean nothing. *)
let gate_failures : string list ref = ref []

let fail_gate fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      gate_failures := msg :: !gate_failures)
    fmt

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Minimal JSON reader for the self-generated result files — just enough
   to flatten numeric leaves into ["perf.workloads.tc.wall_mean_s"]-style
   paths so two runs can be diffed.  Array elements carrying a "name"
   member are keyed by it rather than by position, keeping paths stable
   when an experiment adds or reorders entries. *)
module Json = struct
  type t =
    | Obj of (string * t) list
    | Arr of t list
    | Num of float
    | Str of string
    | Lit of string (* true/false/null — never compared *)

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos >= n then raise (Bad "unexpected end of input") else s.[!pos] in
    let rec skip_ws () =
      if !pos < n then
        match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> incr pos; skip_ws () | _ -> ()
    in
    let expect c =
      skip_ws ();
      if peek () <> c then raise (Bad (Printf.sprintf "expected '%c' at offset %d" c !pos));
      incr pos
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        let c = peek () in
        incr pos;
        if c = '"' then Buffer.contents b
        else if c = '\\' then begin
          let e = peek () in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
            pos := !pos + 4;
            Buffer.add_char b '?'
          | e -> Buffer.add_char b e);
          go ()
        end
        else begin
          Buffer.add_char b c;
          go ()
        end
      in
      go ()
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then (incr pos; Obj [])
        else begin
          let rec members acc =
            let k = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; skip_ws (); members ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Bad "malformed object")
          in
          members []
        end
      | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then (incr pos; Arr [])
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; elems (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> raise (Bad "malformed array")
          in
          elems []
        end
      | '"' -> Str (parse_string ())
      | ('t' | 'n') as c -> pos := !pos + 4; Lit (if c = 't' then "true" else "null")
      | 'f' -> pos := !pos + 5; Lit "false"
      | _ ->
        let start = !pos in
        let is_num c =
          (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
        in
        while !pos < n && is_num s.[!pos] do
          incr pos
        done;
        (try Num (float_of_string (String.sub s start (!pos - start)))
         with Failure _ -> raise (Bad (Printf.sprintf "bad number at offset %d" start)))
    in
    parse_value ()

  let leaves t =
    let out = ref [] in
    let rec go path = function
      | Num f -> out := (path, f) :: !out
      | Str _ | Lit _ -> ()
      | Obj kvs ->
        List.iter (fun (k, v) -> go (if path = "" then k else path ^ "." ^ k) v) kvs
      | Arr vs ->
        List.iteri
          (fun i v ->
            let key =
              match v with
              | Obj kvs -> (
                match List.assoc_opt "name" kvs with
                | Some (Str s) -> s
                | _ -> string_of_int i)
              | _ -> string_of_int i
            in
            go (path ^ "." ^ key) v)
          vs
    in
    go "" t;
    List.rev !out

  (* Objects, and arrays holding objects, print one member per line
     down to [depth] levels of nesting; deeper values print on one
     line. *)
  let rec print ?(indent = 0) ~depth v =
    let pad = String.make indent ' ' in
    let nested f items =
      String.concat ",\n" (List.map (fun x -> pad ^ "  " ^ f x) items) ^ "\n" ^ pad
    in
    let sub = print ~indent:(indent + 2) ~depth:(depth - 1) in
    match v with
    | Obj (_ :: _ as kvs) when depth > 0 ->
      "{\n" ^ nested (fun (k, x) -> Printf.sprintf "%S: %s" k (sub x)) kvs ^ "}"
    | Arr vs when depth > 0 && List.exists (function Obj _ -> true | _ -> false) vs ->
      "[\n" ^ nested sub vs ^ "]"
    | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, x) -> Printf.sprintf "%S: %s" k (print ~depth:0 x)) kvs)
      ^ "}"
    | Arr vs -> "[" ^ String.concat ", " (List.map (print ~depth:0) vs) ^ "]"
    | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
      else Printf.sprintf "%.12g" f
    | Str x -> Printf.sprintf "%S" x
    | Lit l -> l
end

(* A result block carries its run's metadata (timestamp, core count)
   first; its own members of the same names give way. *)
let with_meta meta members =
  Json.Obj (meta @ List.filter (fun (k, _) -> not (List.mem_assoc k meta)) members)

(* The experiment blocks of a results file: a plain object of blocks,
   each carrying its own metadata. *)
let blocks_of_results = function
  | Json.Obj kvs ->
    List.filter_map (function name, (Json.Obj _ as b) -> Some (name, b) | _ -> None) kvs
  | _ -> []

let block_meta block key =
  match block with Json.Obj kvs -> List.assoc_opt key kvs | _ -> None

let block_cores block =
  match block_meta block "cores" with Some (Json.Num c) -> Some (int_of_float c) | _ -> None

let block_stamp block =
  match block_meta block "timestamp" with Some (Json.Str s) -> s | _ -> "unknown time"

(* The blocks of the previous latest.json, read at startup so this
   run's own [write_results] cannot clobber the baseline first. *)
let previous_blocks =
  let path = "bench/results/latest.json" in
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.parse s with
    | j -> blocks_of_results j
    | exception Json.Bad msg ->
      Printf.printf "%s is unreadable (%s): nothing to compare against or merge into\n" path msg;
      []
  end

(* Regression threshold (percent slowdown) past which the compare step
   exits non-zero; BENCH_REGRESSION_PCT overrides. *)
let regression_threshold_pct =
  match Sys.getenv_opt "BENCH_REGRESSION_PCT" with
  | Some s -> ( try float_of_string s with Failure _ -> 25.)
  | None -> 25.

(* Per-experiment deltas vs the previous latest.json.  A block is
   compared only with the previous block of the same experiment on the
   same core count; otherwise the harness says why it skipped.  Every
   shared timing leaf ([*_s]) is compared; stable best-of means — the
   perf workloads' wall_mean_s and the merge microbench's *_mean_s —
   are the gated subset: a slowdown beyond max(threshold, 2σ noise
   allowance) fails the run.  Single-shot metrics (skew/gj best-of-3,
   sweep grid cells) are reported but never gate: on a shared vCPU
   their spread owns the margin.  The gate itself arms only on
   multi-core runners, same convention as the skew/gj bars. *)
let compare_with_previous blocks =
  let gated path =
    String.ends_with ~suffix:"_mean_s" path
    && (String.starts_with ~prefix:"perf." path || String.starts_with ~prefix:"merge." path)
  in
  let stddev_for leaves path =
    (* wall_mean_s -> wall_stddev_s sibling, when recorded *)
    if String.ends_with ~suffix:"_mean_s" path then
      let stem = String.sub path 0 (String.length path - String.length "_mean_s") in
      List.assoc_opt (stem ^ "_stddev_s") leaves
    else None
  in
  let compared = ref 0 in
  let failures = ref [] in
  let t =
    Report.create ~title:"Regression compare vs previous latest.json"
      ~header:[ "metric"; "prev (s)"; "now (s)"; "delta"; "±σ"; "gate" ]
  in
  let compare_block name old_b new_b =
    let old_leaves = Json.leaves (Json.Obj [ (name, old_b) ]) in
    let new_leaves = Json.leaves (Json.Obj [ (name, new_b) ]) in
    List.iter
      (fun (path, now) ->
        match List.assoc_opt path old_leaves with
        | Some prev when String.ends_with ~suffix:"_s" path && prev > 1e-9 ->
          incr compared;
          let delta_pct = (now -. prev) /. prev *. 100. in
          let sigma =
            match (stddev_for old_leaves path, stddev_for new_leaves path) with
            | Some a, Some b -> Some (a +. b)
            | _ -> None
          in
          let allow =
            max regression_threshold_pct
              (match sigma with Some s -> 2. *. s /. prev *. 100. | None -> 0.)
          in
          let is_gated = gated path in
          let failed = is_gated && delta_pct > allow in
          if failed then failures := (path, delta_pct) :: !failures;
          (* keep the table readable: gated metrics always shown, the
             rest only when they moved past the threshold *)
          if is_gated || Float.abs delta_pct >= regression_threshold_pct then
            Report.add_row t
              [ path; Printf.sprintf "%.4f" prev; Printf.sprintf "%.4f" now;
                Printf.sprintf "%+.1f%%" delta_pct;
                (match sigma with Some s -> Printf.sprintf "%.4f" s | None -> "-");
                (if not is_gated then "info" else if failed then "FAIL" else "ok") ]
        | Some _ | None -> ())
      new_leaves
  in
  List.iter
    (fun (name, block) ->
      match List.assoc_opt name previous_blocks with
      | None -> Printf.printf "%s: no previous block — this run is its baseline\n" name
      | Some old_b ->
        let show = function Some c -> string_of_int c | None -> "an unknown number of" in
        if block_cores old_b <> block_cores block then
          Printf.printf
            "%s: not compared — the previous block (%s) ran on %s cores, this run on %s\n" name
            (block_stamp old_b) (show (block_cores old_b)) (show (block_cores block))
        else compare_block name old_b block)
    blocks;
  if !compared > 0 then begin
    Report.print t;
    Printf.printf "%d shared timing metrics compared (threshold %.0f%%)\n" !compared
      regression_threshold_pct
  end;
  if !failures <> [] then begin
    let cores = Domain.recommended_domain_count () in
    if cores >= 2 then
      List.iter
        (fun (path, pct) ->
          fail_gate "bench-regression: %s slowed down %.1f%% vs previous run" path pct)
        (List.rev !failures)
    else
      Printf.printf
        "(1 hardware thread: the regression gate is informational only on this machine)\n"
  end

let write_results () =
  if !json_blocks <> [] then begin
    let dir = "bench/results" in
    mkdir_p dir;
    let tm = Unix.localtime (Unix.time ()) in
    let stamp =
      Printf.sprintf "%04d%02d%02d-%02d%02d%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
        tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    in
    let file = Filename.concat dir (stamp ^ ".json") in
    let meta =
      [ ("timestamp", Json.Str stamp); ("file", Json.Str file);
        ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ("bench_workers", Json.Num (float_of_int !bench_workers)) ]
    in
    let blocks =
      List.filter_map
        (fun (name, text) ->
          match Json.parse text with
          | Json.Obj members -> Some (name, with_meta meta members)
          | _ | (exception Json.Bad _) ->
            Printf.printf "result block %s is not a JSON object; not recorded\n" name;
            None)
        (List.rev !json_blocks)
    in
    let merged =
      List.map
        (fun (name, b) -> (name, Option.value (List.assoc_opt name blocks) ~default:b))
        previous_blocks
      @ List.filter (fun (name, _) -> not (List.mem_assoc name previous_blocks)) blocks
    in
    let write path blocks =
      let oc = open_out path in
      output_string oc (Json.print ~depth:3 (Json.Obj blocks) ^ "\n");
      close_out oc
    in
    write file blocks;
    write (Filename.concat dir "latest.json") merged;
    Printf.printf "\nresults recorded in %s (and merged into %s/latest.json)\n" file dir;
    compare_with_previous blocks
  end

(* ------------------------------------------------------------------ *)
(* engine helpers                                                      *)

let config ?(max_iterations = 0) ?(optimized = true) ?(workers = !bench_workers) strategy =
  { D.default_config with workers; strategy; max_iterations; optimized_stores = optimized }

let time_run prepared edb cfg =
  let result, elapsed = Clock.time (fun () -> D.run prepared ~edb ~config:cfg ()) in
  (result, elapsed)

let prepare_spec ?(extra_params = []) (spec : D.Queries.spec) =
  match D.prepare ~params:(extra_params @ spec.default_params) spec.source with
  | Ok p -> p
  | Error e -> failwith (spec.name ^ ": " ^ e)

(* evaluates [spec] over [edb] under [cfg]; returns seconds and the
   output cardinality (to confirm all configurations agree) *)
let run_query ?extra_params (spec : D.Queries.spec) edb cfg =
  let prepared = prepare_spec ?extra_params spec in
  let cfg = { cfg with D.max_iterations = spec.max_iterations } in
  let result, elapsed = time_run prepared edb cfg in
  (elapsed, D.relation_count result spec.output)

let strategies =
  [ ("Seq", `Seq); ("Global", `Global); ("SSP(5)", `Ssp); ("DWS", `Dws) ]

let cfg_of = function
  | `Seq -> config ~workers:1 D.Coord.Dws
  | `Global -> config D.Coord.Global
  | `Ssp -> config (D.Coord.Ssp 5)
  | `Dws -> config D.Coord.Dws

(* ------------------------------------------------------------------ *)
(* dataset assembly                                                    *)

let graph_of name =
  match D.Datasets.find name with
  | Some e -> Lazy.force e.graph
  | None -> failwith ("unknown dataset " ^ name)

let cc_edb name = D.Queries.arc_sym_edb (graph_of name)
let warc_edb name = D.Queries.warc_edb (graph_of name)

let pagerank_input name =
  let g = graph_of name in
  (D.Queries.matrix_edb g, [ ("vnum", D.Graph.max_vertex g + 1) ])

(* ------------------------------------------------------------------ *)
(* Figure 1: SSSP on LiveJournal, engines compared                     *)

let fig1 () =
  let t = Report.create ~title:"Figure 1 — SSSP query performance on LiveJournal(-sim)"
      ~header:[ "engine"; "time (s)"; "vs DWS"; "tuples" ]
  in
  let edb = warc_edb "livejournal-sim" in
  let results =
    List.map (fun (name, s) -> (name, run_query D.Queries.sssp edb (cfg_of s))) strategies
  in
  let dws_time = fst (List.assoc "DWS" results) in
  List.iter
    (fun (name, (secs, n)) ->
      Report.add_row t
        [ name; Report.cell_time secs; Report.cell_speedup (secs /. dws_time); string_of_int n ])
    results;
  Report.print t;
  (* the physically-parallel regime, simulated at 32 workers *)
  let g = graph_of "livejournal-sim" in
  let spec = Sim.sssp ~graph:g ~source:1 ~workers:sim_workers in
  let t2 = Report.create ~title:"Figure 1 (simulator, 32 idealized cores) — virtual time units"
      ~header:[ "strategy"; "makespan"; "vs DWS" ]
  in
  let sims =
    List.map
      (fun (name, strat) -> (name, (Sim.run spec ~strategy:strat ~params:Sim.default_params).makespan))
      [ ("Global", D.Coord.Global); ("SSP(5)", D.Coord.Ssp 5); ("DWS", D.Coord.Dws) ]
  in
  let dws = List.assoc "DWS" sims in
  List.iter
    (fun (name, m) ->
      Report.add_row t2 [ name; Report.cell_float ~decimals:0 m; Report.cell_speedup (m /. dws) ])
    sims;
  Report.print t2;
  print_endline
    "paper shape: DCDatalog(DWS) well below all baselines; Global (DeALS-MC-style) worst."

(* ------------------------------------------------------------------ *)
(* Table 2: end-to-end query time                                      *)

let tab2 () =
  let t = Report.create
      ~title:"Table 2 — end-to-end query time (seconds); systems = this engine's modes"
      ~header:[ "query"; "dataset"; "Seq"; "Global"; "SSP(5)"; "DWS"; "tuples" ]
  in
  let row query dataset edb ?extra_params (spec : D.Queries.spec) =
    let cells, tuples =
      List.fold_left
        (fun (acc, _) (_, s) ->
          let secs, n = run_query ?extra_params spec edb (cfg_of s) in
          (acc @ [ Report.cell_time secs ], n))
        ([], 0) strategies
    in
    Report.add_row t ((query :: dataset :: cells) @ [ string_of_int tuples ])
  in
  (* SG on the synthetic family *)
  row "SG" "tree-11" (D.Queries.arc_edb (graph_of "tree-11")) D.Queries.sg;
  row "SG" "g-10k" (D.Queries.arc_edb (graph_of "g-10k")) D.Queries.sg;
  row "SG" "rmat-250" (D.Queries.arc_edb (D.Datasets.rmat 250)) D.Queries.sg;
  (* Delivery on the N-trees *)
  List.iter
    (fun n ->
      let tree, basics = D.Datasets.bom n in
      row "Delivery" (Printf.sprintf "N-%dk" (n / 1000)) (D.Queries.delivery_edb tree basics)
        D.Queries.delivery)
    [ 40_000; 80_000 ];
  (* graph queries on the real-world stand-ins *)
  List.iter
    (fun ds ->
      row "CC" ds (cc_edb ds) D.Queries.cc;
      row "SSSP" ds (warc_edb ds) D.Queries.sssp)
    [ "livejournal-sim"; "orkut-sim" ];
  List.iter
    (fun ds ->
      let edb, params = pagerank_input ds in
      row "PageRank" ds edb ~extra_params:params D.Queries.pagerank)
    [ "livejournal-sim"; "orkut-sim" ];
  Report.print t;
  print_endline
    "paper shape: DWS fastest across the board, 1-2 orders over single-threaded systems.";
  print_endline
    "NOTE: this container has 1 physical core, so Seq necessarily wins here (no parallel\n\
     speedup is possible and coordination is pure overhead); the parallel-regime shape is\n\
     reproduced by the 32-core simulator tables (fig1/fig8).";
  print_endline
    "paper note: Souffle cannot express aggregates-in-recursion (OOM on CC/SSSP/PageRank);\n\
     the stratified rewrite it would need is measured in the tab4 ablation footnote."

(* ------------------------------------------------------------------ *)
(* Table 3: APSP (non-linear recursion)                                *)

let tab3 () =
  let t = Report.create ~title:"Table 3 — APSP (non-linear recursion), RMAT-n family"
      ~header:[ "dataset"; "Seq"; "Global"; "DWS"; "pairs" ]
  in
  List.iter
    (fun n ->
      let g = D.Datasets.rmat n in
      let edb = D.Queries.warc_edb g in
      let cells, pairs =
        List.fold_left
          (fun (acc, _) s ->
            let secs, p = run_query D.Queries.apsp edb (cfg_of s) in
            (acc @ [ Report.cell_time secs ], p))
          ([], 0)
          [ `Seq; `Global; `Dws ]
      in
      Report.add_row t ((Printf.sprintf "RMAT-%d" n :: cells) @ [ string_of_int pairs ]))
    [ 64; 128 ];
  Report.print t;
  print_endline
    "paper shape: DCDatalog routes each path tuple to exactly 2 partitions; systems that\n\
     broadcast (SociaLite/DDlog) blow up and OOM beyond RMAT-512."

(* ------------------------------------------------------------------ *)
(* Table 4: effect of the SS6.2 optimizations                           *)

let tab4 () =
  let t = Report.create
      ~title:"Table 4 — ablation of SS6.2 (aggregate index + existence cache), DWS"
      ~header:[ "query"; "dataset"; "w/o (s)"; "w/ (s)"; "gain" ]
  in
  List.iter
    (fun (qname, spec, edb_of) ->
      List.iter
        (fun ds ->
          let edb = edb_of ds in
          let unopt, n1 = run_query spec edb (config ~optimized:false D.Coord.Dws) in
          let opt, n2 = run_query spec edb (config D.Coord.Dws) in
          assert (n1 = n2);
          Report.add_row t
            [ qname; ds; Report.cell_time unopt; Report.cell_time opt;
              Report.cell_speedup (unopt /. opt) ])
        [ "livejournal-sim"; "orkut-sim" ])
    [ ("CC", D.Queries.cc, cc_edb); ("SSSP", D.Queries.sssp, warc_edb) ];
  Report.print t;
  print_endline "paper shape: 1.86x-2.91x gain from the two optimizations."

(* ------------------------------------------------------------------ *)
(* Figure 3: the worked coordination example                           *)

let fig3 () =
  (* A hand-crafted skewed instance in the spirit of Figure 3(a): worker 0
     owns a light path containing the global minimum label, workers 1-2
     own heavy clusters.  Global must wait for the heavy workers every
     round; DWS lets the light worker flood the min label ahead. *)
  let g = D.Graph.create ~n:36 in
  let edge a b = D.Graph.add_edge g a b in
  (* light path on worker 0's vertices 0..11 (owner = v mod 3 = 0) *)
  List.iter (fun (a, b) -> edge a b) [ (0, 3); (3, 6); (6, 9) ];
  (* heavy near-cliques on workers 1 and 2 *)
  let clique vs = List.iter (fun a -> List.iter (fun b -> if a <> b then edge a b) vs) vs in
  clique [ 1; 4; 7; 10; 13; 16; 19; 22 ];
  clique [ 2; 5; 8; 11; 14; 17; 20; 23 ];
  (* chains connecting the light path into both clusters *)
  List.iter (fun (a, b) -> edge a b) [ (9, 1); (9, 2); (22, 25); (23, 26) ];
  let spec = Sim.cc ~graph:g ~workers:3 in
  let spec = Sim.custom_owner spec ~owner:(fun v -> v mod 3) in
  let t = Report.create
      ~title:"Figure 3 — worked example (3 workers, skewed), virtual time units"
      ~header:[ "strategy"; "time units"; "vs Global"; "max local iters" ]
  in
  let results =
    List.map
      (fun (name, strat) ->
        let o = Sim.run spec ~strategy:strat ~params:Sim.default_params in
        (name, o))
      [ ("Global", D.Coord.Global); ("SSP(1)", D.Coord.Ssp 1); ("DWS", D.Coord.Dws) ]
  in
  let global = (snd (List.hd results)).makespan in
  List.iter
    (fun (name, (o : Sim.outcome)) ->
      Report.add_row t
        [ name; Report.cell_float ~decimals:1 o.makespan;
          Report.cell_float ~decimals:2 (o.makespan /. global);
          string_of_int (Array.fold_left max 0 o.iterations) ])
    results;
  Report.print t;
  print_endline "paper: Global 128, SSP 88 (0.69x), DWS 67 (0.52x) time units on its example."

(* ------------------------------------------------------------------ *)
(* Figure 8: coordination strategy comparison                          *)

let fig8 () =
  let t = Report.create
      ~title:"Figure 8 — coordination strategies, real engine (seconds; idle = time \
              workers spent waiting, the quantity DWS attacks)"
      ~header:[ "query"; "dataset"; "Global"; "idle"; "SSP(5)"; "idle"; "DWS"; "idle" ]
  in
  List.iter
    (fun (qname, spec, edb_of) ->
      List.iter
        (fun ds ->
          let edb = edb_of ds in
          let cells =
            List.concat_map
              (fun s ->
                let prepared = prepare_spec spec in
                let result, secs = time_run prepared edb (cfg_of s) in
                ignore (D.relation_count result spec.output);
                [ Report.cell_time secs;
                  Report.cell_time (D.Run_stats.total_wait result.stats) ])
              [ `Global; `Ssp; `Dws ]
          in
          Report.add_row t (qname :: ds :: cells))
        [ "livejournal-sim"; "orkut-sim" ])
    [ ("CC", D.Queries.cc, cc_edb); ("SSSP", D.Queries.sssp, warc_edb) ];
  Report.print t;
  let t2 = Report.create
      ~title:"Figure 8 (simulator, 32 idealized cores) — virtual time units"
      ~header:[ "query"; "Global"; "SSP(5)"; "DWS"; "Global/DWS" ]
  in
  let g = graph_of "livejournal-sim" in
  List.iter
    (fun (qname, spec) ->
      let m strat = (Sim.run spec ~strategy:strat ~params:Sim.default_params).makespan in
      let global = m D.Coord.Global and ssp = m (D.Coord.Ssp 5) and dws = m D.Coord.Dws in
      Report.add_row t2
        [ qname; Report.cell_float ~decimals:0 global; Report.cell_float ~decimals:0 ssp;
          Report.cell_float ~decimals:0 dws; Report.cell_speedup (global /. dws) ])
    [ ("CC", Sim.cc ~graph:g ~workers:sim_workers);
      ("SSSP", Sim.sssp ~graph:g ~source:1 ~workers:sim_workers) ];
  Report.print t2;
  print_endline "paper shape: DWS < SSP < Global everywhere (3-11x Global/DWS on SSSP)."

(* ------------------------------------------------------------------ *)
(* Figure 9a: speedup vs workers                                       *)

let fig9a () =
  let g = graph_of "livejournal-sim" in
  let t = Report.create
      ~title:"Figure 9(a) — simulated DWS speedup vs workers (LiveJournal-sim)"
      ~header:[ "workers"; "CC"; "SSSP"; "BFS" ]
  in
  let workers = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let curve make =
    Sim.speedup_curve make ~strategy:D.Coord.Dws ~params:Sim.default_params ~workers
  in
  let cc = curve (fun ~workers -> Sim.cc ~graph:g ~workers) in
  let sssp = curve (fun ~workers -> Sim.sssp ~graph:g ~source:1 ~workers) in
  let bfs = curve (fun ~workers -> Sim.bfs ~graph:g ~source:1 ~workers) in
  List.iter
    (fun w ->
      Report.add_row t
        [ string_of_int w;
          Report.cell_speedup (List.assoc w cc);
          Report.cell_speedup (List.assoc w sssp);
          Report.cell_speedup (List.assoc w bfs) ])
    workers;
  Report.print t;
  (* real-engine sanity points: the container has 1 core, so real domains
     cannot speed up; we verify correctness and overhead only *)
  let t2 = Report.create
      ~title:"Figure 9(a) — real engine on this 1-core container (no speedup possible)"
      ~header:[ "workers"; "CC time (s)" ]
  in
  let edb = cc_edb "livejournal-sim" in
  List.iter
    (fun w ->
      let secs, _ = run_query D.Queries.cc edb (config ~workers:w D.Coord.Dws) in
      Report.add_row t2 [ string_of_int w; Report.cell_time secs ])
    [ 1; 2; 4 ];
  Report.print t2;
  print_endline
    "paper shape: near-linear speedup to 32 threads, flattening beyond the physical cores;\n\
     SSSP scales worse than CC (thin frontier)."

(* ------------------------------------------------------------------ *)
(* Figure 9b: scaling the data                                         *)

let fig9b () =
  let t = Report.create
      ~title:"Figure 9(b) — DWS time vs data size (RMAT-n, n vertices / 10n edges)"
      ~header:[ "query"; "n=10k"; "n=20k"; "n=40k"; "n=80k"; "growth 10k->80k" ]
  in
  let sizes = [ 10_000; 20_000; 40_000; 80_000 ] in
  let row qname spec edb_of =
    let times =
      List.map
        (fun n ->
          let secs, _ = run_query spec (edb_of n) (cfg_of `Dws) in
          secs)
        sizes
    in
    let first = List.hd times and last = List.nth times (List.length times - 1) in
    Report.add_row t
      (qname
       :: List.map Report.cell_time times
      @ [ Report.cell_speedup (last /. first) ])
  in
  row "CC" D.Queries.cc (fun n ->
      let g = D.Datasets.rmat n in
      D.Queries.arc_sym_edb g);
  row "SSSP" D.Queries.sssp (fun n -> D.Queries.warc_edb (D.Datasets.rmat n));
  row "Delivery" D.Queries.delivery (fun n ->
      let tree, basics = D.Datasets.bom (n * 3) in
      D.Queries.delivery_edb tree basics);
  Report.print t;
  print_endline
    "paper shape: time grows proportionally with data (8x data -> ~8-13x time)."

(* ------------------------------------------------------------------ *)
(* join-path allocation: minor-heap words per derived tuple through    *)
(* the evaluation pipeline, flat cursors vs the boxed representation   *)
(* the engine used before the arena refactor.  Same compiled rule,     *)
(* same index, same matches — only the tuple representation differs.   *)

let join_alloc () =
  let module Relation = Dcd_storage.Relation in
  let module Arena = Dcd_storage.Arena in
  let module Frame = Dcd_concurrent.Frame in
  let module Eval = Dcd_engine.Eval in
  let module Ph = Dcd_planner.Physical in
  let module Vec = Dcd_util.Vec in
  let cr =
    let src = "p(X, Z) <- d(X, Y), arc(Y, Z)." in
    let info =
      match Dcd_datalog.Analysis.analyze (Dcd_datalog.Parser.parse_program src) with
      | Ok i -> i
      | Error e -> failwith e
    in
    let plan = match Ph.compile info with Ok p -> p | Error e -> failwith e in
    let sp = List.hd plan.Ph.strata in
    List.hd (sp.Ph.init_rules @ sp.Ph.delta_rules)
  in
  let m = 100_000 and n = 200_000 in
  let arc = Relation.create ~name:"arc" ~arity:2 ~size_hint:m () in
  for y = 0 to m - 1 do
    ignore (Relation.add arc [| y; y + 1 |])
  done;
  let ctx =
    {
      Eval.lookup =
        (fun (l : Ph.lookup) ->
          if Array.length l.key_cols = 0 then Eval.Iter (fun _ f -> Relation.iter_slices arc f)
          else
            Eval.Index
              (Option.get (Relation.slot_index (Relation.ensure_index arc ~key_cols:l.key_cols))));
      base_sorted = (fun _ cols -> Relation.ensure_sorted_index arc ~cols);
    }
  in
  (* force the index build outside the measured window *)
  ignore (Relation.ensure_index arc ~key_cols:[| 0 |]);
  let measure scan sink =
    let emits = ref 0 in
    let w0 = Gc.minor_words () in
    ignore
      (Eval.run cr ctx ~scan ~emit:(fun ~tuple ~contributor:_ ->
           incr emits;
           sink tuple));
    ((Gc.minor_words () -. w0) /. float_of_int !emits, !emits)
  in
  (* flat: delta tuples live in an arena, derived tuples are packed
     into a pre-sized frame — the parallel engine's hot path *)
  let arena = Arena.create ~capacity:n ~arity:2 () in
  for i = 0 to n - 1 do
    ignore (Arena.push arena [| i; i mod m |])
  done;
  let frame = Frame.create ~capacity:n ~arity:2 ~contrib:false () in
  let flat_w, flat_n = measure (`Flat arena) (fun tup -> Frame.push frame tup [||]) in
  (* boxed reference: delta tuples are individual arrays, every derived
     tuple is copied into a fresh array (the pre-refactor sink) *)
  let batch = Vec.create ~capacity:n () in
  for i = 0 to n - 1 do
    Vec.push batch [| i; i mod m |]
  done;
  let out = Vec.create ~capacity:n () in
  let boxed_w, boxed_n = measure (`Tuples batch) (fun tup -> Vec.push out (Array.copy tup)) in
  assert (flat_n = boxed_n);
  let t =
    Report.create
      ~title:(Printf.sprintf "Join-path allocation (%d derived tuples)" flat_n)
      ~header:[ "representation"; "minor words/derived tuple" ]
  in
  Report.add_row t [ "flat arena -> packed frame"; Printf.sprintf "%.2f" flat_w ];
  Report.add_row t
    [ "boxed tuple -> boxed batch"; Printf.sprintf "%.2f (%.1fx)" boxed_w (boxed_w /. max flat_w 0.01) ];
  Report.print t;
  print_endline
    "paper shape: the packed representation should allocate several times less\n\
     per derived tuple than per-tuple heap objects (SS6.1's framing argument)."

(* ------------------------------------------------------------------ *)
(* micro: bechamel microbenchmarks for the design-choice ablations     *)

let micro () =
  let open Bechamel in
  let module Bptree = Dcd_btree.Bptree in
  let module Chunk = Dcd_concurrent.Chunk_queue in
  let module Locked = Dcd_concurrent.Locked_queue in
  let keys = Array.init 10_000 (fun i -> [| (i * 7919) mod 10_000; i |]) in
  let prefilled = lazy (
    let t = Bptree.create () in
    Array.iter (fun k -> Bptree.insert t k 1) keys;
    t)
  in
  let tests =
    [
      Test.make ~name:"btree-insert-10k" (Staged.stage (fun () ->
          let t = Bptree.create () in
          Array.iter (fun k -> Bptree.insert t k 1) keys));
      Test.make ~name:"btree-probe-10k" (Staged.stage (fun () ->
          let t = Lazy.force prefilled in
          Array.iter (fun k -> ignore (Bptree.find_opt t k)) keys));
      Test.make ~name:"chunk-queue-xfer-10k" (Staged.stage (fun () ->
          let q = Chunk.create ~chunk:64 () in
          for i = 1 to 10_000 do
            Chunk.push q i
          done;
          ignore (Chunk.drain q (fun _ -> ()))));
      Test.make ~name:"locked-queue-xfer-10k" (Staged.stage (fun () ->
          let q = Locked.create () in
          for i = 1 to 10_000 do
            Locked.push q i
          done;
          ignore (Locked.drain q (fun _ -> ()))));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 200) () in
    let raw = Benchmark.all cfg [ instance ] test in
    let results = Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instance raw in
    results
  in
  let t = Report.create ~title:"Microbenchmarks (design-choice ablations)"
      ~header:[ "benchmark"; "time/op" ]
  in
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name ols ->
          let estimate =
            match Bechamel.Analyze.OLS.estimates ols with
            | Some [ e ] -> Printf.sprintf "%.0f ns" e
            | _ -> "n/a"
          in
          Report.add_row t [ name; estimate ])
        results)
    tests;
  Report.print t;
  print_endline
    "ablation notes: the SPSC chunk queue (the exchange's buffers) vs the\n\
     lock-based queue is the SS6.1 claim;\n\
     the B-tree probe cost motivates the SS6.2.2 existence cache.";
  join_alloc ()

(* ------------------------------------------------------------------ *)
(* perf: machine-readable perf trajectory (bench/results/*.json)       *)

(* stratum-dispatch cost, shared between the perf JSON and the `pool`
   experiment: the same trivial fork-join round, paid once by spawning
   fresh domains (the per-stratum regime) and once by submitting to one
   persistent pool *)

module Pool = Dcd_concurrent.Domain_pool

let pool_workers = 8
let pool_rounds = 60

let pool_dispatch_times () =
  let job _ = () in
  let spawn_secs =
    snd
      (Clock.time (fun () ->
           for _ = 1 to pool_rounds do
             match Pool.run_collect ~workers:pool_workers job with
             | Ok _ -> ()
             | Error _ -> failwith "pool bench: spawn round failed"
           done))
  in
  let persist_secs =
    let p = Pool.create ~workers:pool_workers in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown p)
      (fun () ->
        snd
          (Clock.time (fun () ->
               for _ = 1 to pool_rounds do
                 match Pool.submit p job with
                 | Ok () -> ()
                 | Error _ -> failwith "pool bench: submit round failed"
               done)))
  in
  (spawn_secs, persist_secs)

(* One row per tracked workload, 4 workers, DWS — the configuration the
   perf trajectory is measured in from PR 1 onward.  Each workload runs
   [bench_reps] times; the fastest run is reported, with mean and stddev
   alongside so the JSON records how noisy the machine was. *)

type perf_row = {
  p_name : string;
  p_dataset : string;
  p_wall : float;
  p_wall_mean : float;
  p_wall_stddev : float;
  p_output_tuples : int;
  p_tuples_processed : int;
  p_tuples_sent : int;
  p_busy : float;
  p_wait : float;
  (* GC deltas of the reported (fastest) run: the allocation cost of the
     data plane, measured rather than anecdotal.  minor+major words are
     summed across all domains (OCaml 5 Gc counters are per-domain
     cumulative; we read them on the main domain after the workers have
     been joined, which includes the workers' contributions). *)
  p_minor_words : float;
  p_major_words : float;
  p_promoted_words : float;
}

(* [Gc.stat] (not [quick_stat]): on OCaml 5 it is the variant whose
   allocation counters aggregate terminated domains, so the worker
   domains' allocations are included once the pool has joined.  The
   calls sit outside the timed region. *)
let gc_words () =
  let s = Gc.stat () in
  (s.Gc.minor_words, s.Gc.major_words, s.Gc.promoted_words)

let perf_row name dataset (spec : D.Queries.spec) edb =
  let cfg = config ~workers:4 D.Coord.Dws in
  let best = ref None in
  let times = ref [] in
  for _ = 1 to bench_reps ~default:3 do
    let secs, result, gc =
      let prepared = prepare_spec spec in
      let cfg = { cfg with D.max_iterations = spec.max_iterations } in
      let min0, maj0, pro0 = gc_words () in
      let result, elapsed = time_run prepared edb cfg in
      let min1, maj1, pro1 = gc_words () in
      (elapsed, result, (min1 -. min0, maj1 -. maj0, pro1 -. pro0))
    in
    times := secs :: !times;
    match !best with
    | Some (s, _, _) when s <= secs -> ()
    | _ -> best := Some (secs, result, gc)
  done;
  let _, wall_mean, wall_stddev = sample_stats !times in
  let secs, result, (gc_minor, gc_major, gc_promoted) = Option.get !best in
  let stats = result.D.Parallel.stats in
  let sum f =
    List.fold_left
      (fun acc (s : D.Run_stats.stratum) ->
        acc + Array.fold_left (fun a w -> a + f w) 0 s.workers)
      0 stats.D.Run_stats.strata
  in
  let sumf f =
    List.fold_left
      (fun acc (s : D.Run_stats.stratum) ->
        acc +. Array.fold_left (fun a w -> a +. f w) 0. s.workers)
      0. stats.D.Run_stats.strata
  in
  {
    p_name = name;
    p_dataset = dataset;
    p_wall = secs;
    p_wall_mean = wall_mean;
    p_wall_stddev = wall_stddev;
    p_output_tuples = D.relation_count result spec.output;
    p_tuples_processed = sum (fun w -> w.D.Run_stats.tuples_processed);
    p_tuples_sent = sum (fun w -> w.D.Run_stats.tuples_sent);
    p_busy = sumf (fun w -> w.D.Run_stats.busy_time);
    p_wait = sumf (fun w -> w.D.Run_stats.wait_time);
    p_minor_words = gc_minor;
    p_major_words = gc_major;
    p_promoted_words = gc_promoted;
  }

let perf () =
  let rows =
    [
      perf_row "tc" "rmat-400" D.Queries.tc (D.Queries.arc_edb (D.Datasets.rmat 400));
      perf_row "cc" "livejournal-sim" D.Queries.cc (cc_edb "livejournal-sim");
      perf_row "sssp" "livejournal-sim" D.Queries.sssp (warc_edb "livejournal-sim");
    ]
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"workers\": 4, \"strategy\": \"dws\", \"reps\": %d, \"workloads\": [\n"
       (bench_reps ~default:3));
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"dataset\": %S, \"wall_s\": %.6f, \"wall_mean_s\": %.6f, \
            \"wall_stddev_s\": %.6f, \"output_tuples\": %d, \
            \"tuples_processed\": %d, \"tuples_sent\": %d, \"tuples_per_sec\": %.1f, \
            \"busy_s\": %.6f, \"wait_s\": %.6f, \"gc_minor_words\": %.0f, \
            \"gc_major_words\": %.0f, \"gc_promoted_words\": %.0f, \
            \"minor_words_per_sent_tuple\": %.2f}%s\n"
           r.p_name r.p_dataset r.p_wall r.p_wall_mean r.p_wall_stddev r.p_output_tuples
           r.p_tuples_processed r.p_tuples_sent
           (float_of_int r.p_tuples_processed /. Float.max 1e-9 r.p_wall)
           r.p_busy r.p_wait r.p_minor_words r.p_major_words r.p_promoted_words
           (r.p_minor_words /. float_of_int (max 1 r.p_tuples_sent))
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  let spawn_secs, persist_secs = pool_dispatch_times () in
  Buffer.add_string buf
    (Printf.sprintf
       "  ],\n\
       \  \"stratum_dispatch\": {\"workers\": %d, \"rounds\": %d, \"spawn_s\": %.6f, \
        \"persistent_pool_s\": %.6f, \"pool_speedup\": %.2f}}"
       pool_workers pool_rounds spawn_secs persist_secs (spawn_secs /. Float.max 1e-9 persist_secs));
  add_json_block "perf" (Buffer.contents buf);
  let t = Report.create ~title:"Perf trajectory (recorded in bench/results/)"
      ~header:[ "workload"; "dataset"; "wall (s)"; "±σ"; "tuples/sec"; "busy (s)"; "wait (s)";
                "minor Mw"; "minor w/sent" ]
  in
  List.iter
    (fun r ->
      Report.add_row t
        [ r.p_name; r.p_dataset; Report.cell_time r.p_wall;
          Printf.sprintf "%.3f" r.p_wall_stddev;
          Printf.sprintf "%.0f" (float_of_int r.p_tuples_processed /. Float.max 1e-9 r.p_wall);
          Report.cell_time r.p_busy; Report.cell_time r.p_wait;
          Printf.sprintf "%.1f" (r.p_minor_words /. 1e6);
          Printf.sprintf "%.1f" (r.p_minor_words /. float_of_int (max 1 r.p_tuples_sent)) ])
    rows;
  Report.print t

(* ------------------------------------------------------------------ *)
(* pool: persistent worker pool vs per-stratum domain spawning         *)

(* The runtime spawns its [workers] domains once per run and submits
   every stratum to the same pool.  This experiment measures what that
   buys: [pool_rounds] fork-join rounds of a trivial job, once spawning
   fresh domains per round (the per-stratum regime,
   [Domain_pool.run_collect]) and once as [submit] rounds on one
   persistent pool — then evaluates a deliberately many-strata program
   end-to-end and prints its per-stratum phase breakdown. *)

(* [depth] strata: one recursive reachability stratum feeding a chain of
   depth-1 single-rule non-recursive strata *)
let many_strata_source depth =
  let b = Buffer.create 512 in
  Buffer.add_string b "t0(Y) <- seed(Y).\nt0(Y) <- t0(X), e(X, Y).\n";
  for i = 1 to depth - 1 do
    Buffer.add_string b (Printf.sprintf "t%d(Y) <- t%d(X), e(X, Y).\n" i (i - 1))
  done;
  Buffer.contents b

let pool () =
  let spawn_secs, persist_secs = pool_dispatch_times () in
  let t =
    Report.create
      ~title:
        (Printf.sprintf "Stratum dispatch — %d fork-join rounds, %d workers" pool_rounds
           pool_workers)
      ~header:[ "regime"; "total (s)"; "per round (ms)"; "vs spawn" ]
  in
  let per_round s = Printf.sprintf "%.3f" (s /. float_of_int pool_rounds *. 1e3) in
  Report.add_row t
    [ "spawn per round"; Report.cell_time spawn_secs; per_round spawn_secs;
      Report.cell_speedup 1.0 ];
  Report.add_row t
    [ "persistent pool"; Report.cell_time persist_secs; per_round persist_secs;
      Report.cell_speedup (persist_secs /. spawn_secs) ];
  Report.print t;
  let depth = 12 in
  let prepared =
    match D.prepare (many_strata_source depth) with Ok p -> p | Error e -> failwith e
  in
  let edb =
    [ ("seed", D.tuples [ [ 1 ] ]); ("e", List.assoc "arc" (D.Queries.arc_edb (D.Datasets.rmat 200))) ]
  in
  let result, secs = time_run prepared edb (config ~workers:pool_workers D.Coord.Dws) in
  let stats = result.D.Parallel.stats in
  let t2 =
    Report.create
      ~title:
        (Printf.sprintf "%d-stratum program, %d workers, one pool — per-stratum phases" depth
           pool_workers)
      ~header:[ "stratum"; "kind"; "wall (ms)"; "setup"; "evaluate"; "materialize" ]
  in
  List.iter
    (fun (s : D.Run_stats.stratum) ->
      let ms v = Printf.sprintf "%.2f" (v *. 1e3) in
      Report.add_row t2
        [ String.concat "," s.preds; s.kind; ms s.wall; ms s.setup; ms s.evaluate;
          ms s.materialize ])
    stats.D.Run_stats.strata;
  Report.print t2;
  Printf.printf "end-to-end: %.3fs over %d strata (%d domains spawned for the whole run)\n"
    secs (List.length stats.D.Run_stats.strata) pool_workers;
  let gain = (spawn_secs -. persist_secs) /. spawn_secs *. 100. in
  Printf.printf
    "persistent pool dispatch is %.1f%% faster than per-round spawning (target: >= 10%%)\n" gain;
  if gain < 10. then fail_gate "bench-pool: persistent pool gain %.1f%% below the 10%% bar" gain

(* ------------------------------------------------------------------ *)
(* smoke: one tiny workload per coordination strategy, for CI          *)

(* Fails fast (nonzero exit) if any strategy or exchange fabric drifts
   from the sequential fixpoint.  Run via `dune build @bench-smoke`. *)
let smoke () =
  let g = D.Datasets.rmat 80 in
  let edb = D.Queries.warc_edb g in
  let expected =
    let _, n = run_query D.Queries.sssp edb (config ~workers:1 D.Coord.Dws) in
    n
  in
  let check name cfg =
    let secs, n = run_query D.Queries.sssp edb cfg in
    Printf.printf "  %-28s %.3fs, %d tuples\n%!" name secs n;
    if n <> expected then begin
      Printf.eprintf "bench-smoke: %s produced %d tuples, expected %d\n" name n expected;
      exit 1
    end
  in
  check "Global/spsc" (config ~workers:2 D.Coord.Global);
  check "SSP(5)/spsc" (config ~workers:2 (D.Coord.Ssp 5));
  check "DWS/spsc" (config ~workers:2 D.Coord.Dws);
  check "DWS/locked"
    { (config ~workers:2 D.Coord.Dws) with D.exchange = D.Parallel.Locked_exchange };
  print_endline "bench-smoke: all coordination strategies agree"

(* ------------------------------------------------------------------ *)
(* ablation: engine-level design choices beyond Table 4               *)

let ablation () =
  let t = Report.create
      ~title:"Engine ablations — SPSC vs locked exchange (SS6.1), partial aggregation (SS5.2.3)"
      ~header:[ "query"; "dataset"; "variant"; "time (s)"; "vs default" ]
  in
  let variants =
    [
      ("default (SPSC+pagg)", fun c -> c);
      ("locked exchange", fun c -> { c with D.exchange = D.Parallel.Locked_exchange });
      ("no partial agg", fun c -> { c with D.partial_agg = false });
    ]
  in
  List.iter
    (fun (qname, spec, edb_of) ->
      let ds = "livejournal-sim" in
      let edb = edb_of ds in
      let base = ref 0. in
      List.iter
        (fun (vname, tweak) ->
          let secs, _ = run_query spec edb (tweak (config D.Coord.Dws)) in
          if vname = "default (SPSC+pagg)" then base := secs;
          Report.add_row t
            [ qname; ds; vname; Report.cell_time secs; Report.cell_speedup (secs /. !base) ])
        variants)
    [ ("CC", D.Queries.cc, cc_edb); ("SSSP", D.Queries.sssp, warc_edb) ];
  Report.print t;
  print_endline
    "paper claim (SS6.1): lock-based coordination serializes the exchange and costs\n\
     parallelism; on 1 core the lock is uncontended, so the gap here is a lower bound."

(* ------------------------------------------------------------------ *)
(* skew: morsel-driven work stealing on power-law inputs               *)

(* TC on a zipf graph concentrates the per-iteration delta on the few
   workers that own the hub vertices: without stealing they grind while
   the rest idle at the wait branch.  The experiment measures stealing
   {off, on} on the skewed input plus a uniform (G(n,p)) control, and
   records the numbers in the bench/results/ history.

   The >=10% speedup gate only arms on machines with >= 2 cores: on a
   single hardware thread a thief and its victim time-slice the same
   core, so stealing can only break even there (the honest numbers are
   still printed and recorded). *)

let skew () =
  let skew_repeats = bench_reps ~default:3 in
  let workers = max 2 !bench_workers in
  let n_vertices = 800 in
  let n_edges = 4800 in
  let zipf = D.Gen.zipf ~seed:42 ~n:n_vertices ~edges:n_edges () in
  let uniform =
    D.Gen.gnp ~seed:42 ~n:n_vertices
      ~p:(float_of_int n_edges /. float_of_int (n_vertices * n_vertices))
      ()
  in
  let prepared = prepare_spec D.Queries.tc in
  let measure graph ~steal =
    let edb = D.Queries.arc_edb graph in
    (* smaller-than-default morsels: container-scale deltas must still
       split into enough pieces for the board to matter *)
    let cfg = { (config ~workers D.Coord.Dws) with D.steal; D.morsel_tuples = 512 } in
    let best = ref None in
    for _ = 1 to skew_repeats do
      let result, secs = time_run prepared edb cfg in
      match !best with
      | Some (s, _) when s <= secs -> ()
      | _ -> best := Some (secs, result)
    done;
    Option.get !best
  in
  let t =
    Report.create
      ~title:
        (Printf.sprintf "Morsel work stealing — TC, %d workers, DWS (best of %d)" workers
           skew_repeats)
      ~header:
        [ "input"; "stealing"; "time (s)"; "vs off"; "imbalance"; "steals"; "stolen tuples" ]
  in
  let row input (secs_off, (r_off : D.Parallel.result)) (secs_on, (r_on : D.Parallel.result)) =
    let st = r_on.D.Parallel.stats in
    Report.add_row t
      [ input; "off"; Report.cell_time secs_off; Report.cell_speedup 1.0;
        Printf.sprintf "%.2f" (D.Run_stats.busy_imbalance r_off.D.Parallel.stats); "-"; "-" ];
    Report.add_row t
      [ input; "on"; Report.cell_time secs_on; Report.cell_speedup (secs_on /. secs_off);
        Printf.sprintf "%.2f" (D.Run_stats.busy_imbalance st);
        string_of_int (D.Run_stats.total_steals st);
        string_of_int (D.Run_stats.total_stolen_tuples st) ]
  in
  let z_off = measure zipf ~steal:false in
  let z_on = measure zipf ~steal:true in
  let u_off = measure uniform ~steal:false in
  let u_on = measure uniform ~steal:true in
  (* the fixpoint must not depend on stealing *)
  List.iter
    (fun ((_, (a : D.Parallel.result)), (_, (b : D.Parallel.result))) ->
      let ca = D.relation_count a "tc" and cb = D.relation_count b "tc" in
      if ca <> cb then begin
        Printf.eprintf "bench-skew: stealing changed the fixpoint (%d vs %d tuples)\n" ca cb;
        exit 1
      end)
    [ (z_off, z_on); (u_off, u_on) ];
  (* imbalance column for the off rows, now that both runs exist *)
  let imb (_, (r : D.Parallel.result)) = D.Run_stats.busy_imbalance r.D.Parallel.stats in
  row "zipf" z_off z_on;
  row "uniform" u_off u_on;
  Report.print t;
  let gain_z = (fst z_off -. fst z_on) /. fst z_off *. 100. in
  let gain_u = (fst u_off -. fst u_on) /. fst u_off *. 100. in
  Printf.printf
    "zipf: stealing on is %.1f%% faster (imbalance %.2f -> %.2f); uniform control: %+.1f%%\n"
    gain_z (imb z_off) (imb z_on) gain_u;
  let block =
    Printf.sprintf
      "{\"query\": \"tc\", \"workers\": %d, \"reps\": %d, \"zipf_vertices\": %d, \
       \"zipf_edges\": %d,\n\
      \    \"zipf_off_s\": %.6f, \"zipf_on_s\": %.6f, \"zipf_gain_pct\": %.1f,\n\
      \    \"zipf_imbalance_off\": %.2f, \"zipf_imbalance_on\": %.2f,\n\
      \    \"steals\": %d, \"stolen_tuples\": %d,\n\
      \    \"uniform_off_s\": %.6f, \"uniform_on_s\": %.6f, \"uniform_gain_pct\": %.1f,\n\
      \    \"cores\": %d}"
      workers skew_repeats n_vertices n_edges (fst z_off) (fst z_on) gain_z (imb z_off)
      (imb z_on)
      (D.Run_stats.total_steals (snd z_on).D.Parallel.stats)
      (D.Run_stats.total_stolen_tuples (snd z_on).D.Parallel.stats)
      (fst u_off) (fst u_on) gain_u
      (Domain.recommended_domain_count ())
  in
  add_json_block "skew" block;
  let cores = Domain.recommended_domain_count () in
  if cores >= 2 then begin
    if gain_z < 10. then
      fail_gate "bench-skew: stealing gain %.1f%% on zipf below the 10%% bar" gain_z
  end
  else
    Printf.printf
      "(1 hardware thread: the >=10%% stealing gate is informational only on this machine)\n"

(* ------------------------------------------------------------------ *)
(* gj: worst-case-optimal generic join vs the binary-join pipeline      *)

(* Triangle listing is the canonical worst case for binary join plans:
   the arc(X,Y),arc(Y,Z) sub-join enumerates every wedge (length-2
   path) before arc(X,Z) can filter, and on skewed graphs the hubs make
   wedges vastly outnumber triangles.  The generic-join path instead
   intersects the successor lists of X and Y per scanned edge — work
   proportional to the smaller list, per the AGM bound argument.  This
   is a join-algorithm gain, not a parallelism gain, so it shows up at
   any worker count, including 1.

   SG is measured under `Force for the recursive-rule flavor: its chain
   body is alpha-acyclic, so `Auto honestly keeps it binary, and the
   forced run quantifies what the trie path costs/buys off its sweet
   spot.

   The two paths run in interleaved pairs ([interleaved_pairs]), and
   the gate reads the median of the per-pair ratios.  The >=2x triangle
   gate arms only on multi-core runners, matching the
   skew convention — on one hardware thread the numbers are still
   printed and recorded but CI noise owns the margin. *)

let gj () =
  let reps = bench_reps ~default:3 in
  let workers = !bench_workers in
  let cfg = config ~workers D.Coord.Dws in
  let prepare generic_join (spec : D.Queries.spec) =
    match D.prepare ~generic_join ~params:spec.default_params spec.source with
    | Ok p -> p
    | Error e -> failwith (spec.name ^ ": " ^ e)
  in
  (* [reps] interleaved pairs of the binary plan and [alt], alternating
     which runs first; counts must agree on every run.  Each side comes
     back as (best, median, σ), with the median of the pair ratios and
     the ratio of the two bests. *)
  let measure_pairs ~alt (spec : D.Queries.spec) edb =
    let binary = prepare `Off spec and other = prepare alt spec in
    let run prepared =
      let result, secs = time_run prepared edb cfg in
      (secs, D.relation_count result spec.output)
    in
    let pairs =
      List.map
        (fun ((tb, nb), (tg, ng)) ->
          if nb <> ng then begin
            Printf.eprintf "bench-gj: %s counts disagree (binary %d vs generic %d)\n" spec.name nb
              ng;
            exit 1
          end;
          (tb, tg, nb))
        (interleaved_pairs ~reps (fun () -> run binary) (fun () -> run other))
    in
    let side xs =
      let best, _, sd = sample_stats xs in
      (best, median xs, sd)
    in
    let ((b_best, _, _) as b) = side (List.map (fun (tb, _, _) -> tb) pairs)
    and ((g_best, _, _) as g) = side (List.map (fun (_, tg, _) -> tg) pairs) in
    let _, _, n = List.hd pairs in
    ( b,
      g,
      median (List.map (fun (tb, tg, _) -> tb /. Float.max 1e-9 tg) pairs),
      b_best /. Float.max 1e-9 g_best,
      n )
  in
  (* Skewed symmetric graph: hubs create the wedge blowup the binary
     plan pays (~30M wedges vs ~0.6M intersection steps at this size).
     Vertex ids are shuffled so degree is uncorrelated with id: zipf
     numbers hubs 0,1,2,..., and with the X < Y < Z ordering the binary
     plan would then (accidentally, and unrepresentatively) always
     enumerate the successor list of the higher-numbered = low-degree
     endpoint. *)
  let tri_edb =
    let n = 5000 in
    let g = D.Gen.zipf ~seed:7 ~n ~edges:30000 () in
    let perm = Array.init n (fun i -> i) in
    Dcd_util.Rng.shuffle (Dcd_util.Rng.create 13) perm;
    let out = D.Vec.create () in
    D.Vec.iter
      (fun (u, v, _) ->
        D.Vec.push out [| perm.(u); perm.(v) |];
        D.Vec.push out [| perm.(v); perm.(u) |])
      (D.Graph.edges g);
    [ ("arc", out) ]
  in
  let tri_b, tri_g, tri_ratio, tri_best_ratio, tri_n =
    measure_pairs ~alt:`Auto D.Queries.triangle tri_edb
  in
  let sg_edb = D.Queries.arc_edb (graph_of "tree-11") in
  let sg_b, sg_g, sg_ratio, sg_best_ratio, sg_n = measure_pairs ~alt:`Force D.Queries.sg sg_edb in
  let t =
    Report.create
      ~title:
        (Printf.sprintf "Generic join vs binary pipeline — %d workers, DWS (%d interleaved pairs)"
           workers reps)
      ~header:[ "query"; "path"; "best (s)"; "median (s)"; "±σ"; "tuples"; "speedup" ]
  in
  let row q path (best, med, sd) n speedup =
    Report.add_row t
      [ q; path; Report.cell_time best; Report.cell_time med; Printf.sprintf "%.3f" sd;
        string_of_int n; Report.cell_speedup speedup ]
  in
  row "triangle (zipf-5000)" "binary" tri_b tri_n 1.0;
  row "triangle (zipf-5000)" "generic join" tri_g tri_n tri_ratio;
  row "SG (tree-11)" "binary" sg_b sg_n 1.0;
  row "SG (tree-11)" "generic join (forced)" sg_g sg_n sg_ratio;
  Report.print t;
  Printf.printf
    "triangle: generic join is %.2fx the binary pipeline (median of %d pair ratios; best-of \
     ratio %.2fx); SG forced-generic: %.2fx (best-of %.2fx)\n"
    tri_ratio reps tri_best_ratio sg_ratio sg_best_ratio;
  let best (b, _, _) = b and med (_, m, _) = m and sd (_, _, s) = s in
  add_json_block "generic_join"
    (Printf.sprintf
       "{\"workers\": %d, \"reps\": %d, \"cores\": %d,\n\
       \    \"triangle_dataset\": \"zipf-5000-sym-shuffled\", \"triangle_tuples\": %d,\n\
       \    \"triangle_binary_s\": %.6f, \"triangle_binary_stddev_s\": %.6f,\n\
       \    \"triangle_generic_s\": %.6f, \"triangle_generic_stddev_s\": %.6f,\n\
       \    \"triangle_binary_median_s\": %.6f, \"triangle_generic_median_s\": %.6f,\n\
       \    \"triangle_speedup\": %.2f, \"triangle_best_of_speedup\": %.2f,\n\
       \    \"sg_dataset\": \"tree-11\", \"sg_tuples\": %d,\n\
       \    \"sg_binary_s\": %.6f, \"sg_forced_generic_s\": %.6f,\n\
       \    \"sg_binary_median_s\": %.6f, \"sg_forced_generic_median_s\": %.6f,\n\
       \    \"sg_speedup\": %.2f, \"sg_best_of_speedup\": %.2f}"
       workers reps
       (Domain.recommended_domain_count ())
       tri_n (best tri_b) (sd tri_b) (best tri_g) (sd tri_g) (med tri_b) (med tri_g) tri_ratio
       tri_best_ratio sg_n (best sg_b) (best sg_g) (med sg_b) (med sg_g) sg_ratio sg_best_ratio);
  let cores = Domain.recommended_domain_count () in
  if cores >= 2 then begin
    if tri_ratio < 2. then
      fail_gate "bench-gj: triangle generic-join speedup %.2fx (median of %d pair ratios) below \
                 the 2x bar"
        tri_ratio reps
  end
  else
    Printf.printf
      "(1 hardware thread: the >=2x generic-join gate is informational only on this machine)\n"

(* ------------------------------------------------------------------ *)
(* merge: the set-store drain fold vs a per-tuple B⁺-tree insert loop  *)

(* Store-level microbench: fold one deterministic candidate stream
   (with duplicates) into an empty set store in drain-sized rounds,
   through [stage_slice] + [merge_run] as a worker's drain does, and
   insert the same stream one tuple at a time into a B⁺-tree with
   [Bptree.add_if_absent] (the store layout the set store replaced).  The keyspace is sized so the final store crosses 1M
   keys, where each B⁺-tree insert pays a full root-to-leaf walk.  Both
   must produce the same fresh count and store size, or the bench
   aborts.  The >=1.3x gate arms only on multi-core runners (skew/gj
   convention); the numbers are recorded honestly either way. *)

let merge_bench () =
  let module Bptree = Dcd_btree.Bptree in
  let reps = bench_reps ~default:3 in
  let total = 3_000_000 in
  let keyspace = 2_000_000 in
  let round = 262_144 in
  let arity = 2 in
  let data =
    let rng = Dcd_util.Rng.create 2025 in
    let a = Array.make (total * arity) 0 in
    for i = 0 to total - 1 do
      (* distinct pairs = distinct draws of [p], so the duplicate rate
         is set by keyspace alone *)
      let p = Dcd_util.Rng.int rng keyspace in
      a.(arity * i) <- p / 4;
      a.((arity * i) + 1) <- p mod 4
    done;
    a
  in
  let run_btree () =
    let tree = Bptree.create () in
    let key = Array.make arity 0 in
    let fresh = ref 0 in
    let (), secs =
      Clock.time (fun () ->
          for i = 0 to total - 1 do
            Array.blit data (arity * i) key 0 arity;
            if Bptree.add_if_absent tree key () then incr fresh
          done)
    in
    (secs, !fresh, Bptree.length tree)
  in
  let run_store () =
    let store = D.Rec_store.create ~arity ~agg:None ~route:[| 0 |] () in
    let fresh = ref 0 in
    let on_fresh _ _ = incr fresh in
    let (), secs =
      Clock.time (fun () ->
          let i = ref 0 in
          while !i < total do
            let stop = min total (!i + round) in
            while !i < stop do
              D.Rec_store.stage_slice store ~data ~off:(arity * !i) ~cdata:data ~coff:0 ~clen:0;
              incr i
            done;
            ignore (D.Rec_store.merge_run store ~on_fresh)
          done)
    in
    (secs, !fresh, D.Rec_store.length store)
  in
  let sample runner =
    let times = ref [] and fresh = ref 0 and keys = ref 0 in
    for _ = 1 to reps do
      let secs, f, k = runner () in
      times := secs :: !times;
      fresh := f;
      keys := k
    done;
    let best, mean, stddev = sample_stats !times in
    (best, mean, stddev, !fresh, !keys)
  in
  let pt, pt_mean, pt_sd, pt_fresh, pt_keys = sample run_btree in
  let bt, bt_mean, bt_sd, bt_fresh, bt_keys = sample run_store in
  if pt_fresh <> bt_fresh || pt_keys <> bt_keys then begin
    Printf.eprintf
      "bench-merge: paths disagree (B+-tree %d fresh / %d keys, store %d fresh / %d keys)\n"
      pt_fresh pt_keys bt_fresh bt_keys;
    exit 1
  end;
  let speedup = pt /. Float.max 1e-9 bt in
  let rate secs = float_of_int total /. Float.max 1e-9 secs in
  let t =
    Report.create
      ~title:
        (Printf.sprintf "Delta merge — %dk candidates into a %dk-key store (best of %d)"
           (total / 1000) (pt_keys / 1000) reps)
      ~header:[ "path"; "time (s)"; "±σ"; "Mtuples/s"; "vs B+-tree" ]
  in
  Report.add_row t
    [ "per-tuple B+-tree insert"; Report.cell_time pt; Printf.sprintf "%.3f" pt_sd;
      Printf.sprintf "%.2f" (rate pt /. 1e6); Report.cell_speedup 1.0 ];
  Report.add_row t
    [ Printf.sprintf "set-store fold (%d/drain)" round; Report.cell_time bt;
      Printf.sprintf "%.3f" bt_sd; Printf.sprintf "%.2f" (rate bt /. 1e6);
      Report.cell_speedup (bt /. pt) ];
  Report.print t;
  Printf.printf "store microbench: the set-store fold is %.2fx the per-tuple B+-tree insert\n"
    speedup;
  add_json_block "merge"
    (Printf.sprintf
       "{\"total_candidates\": %d, \"keyspace\": %d, \"round_tuples\": %d, \"store_keys\": %d,\n\
       \    \"reps\": %d, \"cores\": %d,\n\
       \    \"per_tuple_s\": %.6f, \"per_tuple_mean_s\": %.6f, \"per_tuple_stddev_s\": %.6f,\n\
       \    \"batch_s\": %.6f, \"batch_mean_s\": %.6f, \"batch_stddev_s\": %.6f,\n\
       \    \"speedup\": %.3f}"
       total keyspace round pt_keys reps
       (Domain.recommended_domain_count ())
       pt pt_mean pt_sd bt bt_mean bt_sd speedup);
  let cores = Domain.recommended_domain_count () in
  if cores >= 2 then begin
    if speedup < 1.3 then
      fail_gate "bench-merge: set-store fold speedup %.2fx below the 1.3x bar" speedup
  end
  else
    Printf.printf
      "(1 hardware thread: the >=1.3x merge gate is informational only on this machine)\n"

(* ------------------------------------------------------------------ *)
(* sweep: knob grid + data-scaling curve (ROADMAP item 4)               *)

(* One TC workload swept over workers x strategy x steal x morsel_tuples
   (morsel size only matters with stealing on, so the off rows fix
   it), every cell checked against the same fixpoint — a
   correctness sweep and a tuning map in one.  A per-workload scaling
   curve (TC/CC/SSSP over growing rmat inputs) rides along so the
   recorded history tracks how evaluation time grows with data size. *)

let sweep () =
  let reps = bench_reps ~default:1 in
  let spec = D.Queries.tc in
  let dataset = "rmat-250" in
  let edb = D.Queries.arc_edb (D.Datasets.rmat 250) in
  let prepared = prepare_spec spec in
  let measure cfg =
    let cfg = { cfg with D.max_iterations = spec.max_iterations } in
    let times = ref [] and count = ref 0 in
    for _ = 1 to reps do
      let result, secs = time_run prepared edb cfg in
      times := secs :: !times;
      count := D.relation_count result spec.output
    done;
    let best, mean, stddev = sample_stats !times in
    (best, mean, stddev, !count)
  in
  let strategy_axis = [ ("global", D.Coord.Global); ("ssp5", D.Coord.Ssp 5); ("dws", D.Coord.Dws) ] in
  let cells = ref [] in
  let expected = ref (-1) in
  List.iter
    (fun workers ->
      List.iter
        (fun (sname, strat) ->
          List.iter
            (fun steal ->
              let morsel_axis = if steal then [ 512; 2048 ] else [ 2048 ] in
              List.iter
                (fun morsel_tuples ->
                  let cfg = { (config ~workers strat) with D.steal; D.morsel_tuples } in
                  let best, mean, stddev, count = measure cfg in
                  if !expected < 0 then expected := count
                  else if count <> !expected then begin
                    Printf.eprintf
                      "bench-sweep: fixpoint changed under w=%d %s steal=%b m=%d (%d vs %d \
                       tuples)\n"
                      workers sname steal morsel_tuples count !expected;
                    exit 1
                  end;
                  let name =
                    Printf.sprintf "w%d-%s-steal%d-m%d" workers sname
                      (if steal then 1 else 0)
                      morsel_tuples
                  in
                  cells :=
                    (name, workers, sname, steal, morsel_tuples, best, mean, stddev) :: !cells)
                morsel_axis)
            [ false; true ])
        strategy_axis)
    [ 1; 4 ];
  let cells = List.rev !cells in
  let best_cells =
    List.sort (fun (_, _, _, _, _, a, _, _) (_, _, _, _, _, b, _, _) -> compare a b) cells
  in
  let t =
    Report.create
      ~title:
        (Printf.sprintf "Knob sweep — TC %s, %d cells, fastest first (top 8)" dataset
           (List.length cells))
      ~header:[ "config"; "time (s)"; "±σ" ]
  in
  List.iteri
    (fun i (name, _, _, _, _, best, _, stddev) ->
      if i < 8 then
        Report.add_row t [ name; Report.cell_time best; Printf.sprintf "%.3f" stddev ])
    best_cells;
  Report.print t;
  (* data-scaling curve per workload, default knobs *)
  let sizes = [ 100; 200; 400 ] in
  let curve_specs =
    [ ("tc", D.Queries.tc, fun n -> D.Queries.arc_edb (D.Datasets.rmat n));
      ("cc", D.Queries.cc, fun n -> D.Queries.arc_sym_edb (D.Datasets.rmat n));
      ("sssp", D.Queries.sssp, fun n -> D.Queries.warc_edb (D.Datasets.rmat n)) ]
  in
  let ct =
    Report.create ~title:"Data scaling — DWS, default knobs"
      ~header:("workload" :: List.map (fun n -> Printf.sprintf "rmat-%d (s)" n) sizes)
  in
  let curves =
    List.map
      (fun (name, spec, edb_of) ->
        let pts =
          List.map
            (fun n ->
              let secs, count = run_query spec (edb_of n) (config D.Coord.Dws) in
              (n, secs, count))
            sizes
        in
        Report.add_row ct (name :: List.map (fun (_, s, _) -> Report.cell_time s) pts);
        (name, pts))
      curve_specs
  in
  Report.print ct;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"query\": \"tc\", \"dataset\": %S, \"reps\": %d, \"cores\": %d, \"tuples\": %d,\n\
       \    \"grid\": [\n"
       dataset reps
       (Domain.recommended_domain_count ())
       !expected);
  List.iteri
    (fun i (name, workers, sname, steal, morsel_tuples, best, mean, stddev) ->
      Buffer.add_string buf
        (Printf.sprintf
           "      {\"name\": %S, \"workers\": %d, \"strategy\": %S, \"steal\": %b, \
            \"morsel_tuples\": %d, \"wall_s\": %.6f, \"wall_mean_s\": %.6f, \
            \"wall_stddev_s\": %.6f}%s\n"
           name workers sname steal morsel_tuples best mean stddev
           (if i = List.length cells - 1 then "" else ",")))
    cells;
  Buffer.add_string buf "    ],\n    \"scaling\": [\n";
  List.iteri
    (fun i (name, pts) ->
      Buffer.add_string buf
        (Printf.sprintf "      {\"name\": %S, \"points\": [" name);
      List.iteri
        (fun j (n, secs, count) ->
          Buffer.add_string buf
            (Printf.sprintf "%s{\"name\": \"rmat-%d\", \"vertices\": %d, \"wall_s\": %.6f, \
                             \"tuples\": %d}"
               (if j = 0 then "" else ", ")
               n n secs count))
        pts;
      Buffer.add_string buf
        (Printf.sprintf "]}%s\n" (if i = List.length curves - 1 then "" else ",")))
    curves;
  Buffer.add_string buf "    ]}";
  add_json_block "sweep" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* recover: checkpoint overhead + crash-recovery demonstration          *)

(* Two questions, one workload (TC over rmat-400):

   1. What does cutting recovery epochs cost a run that never crashes?
      The same fixpoint is timed with checkpointing off and with an
      epoch cut every 4 iterations, in interleaved pairs
      ([interleaved_pairs]); the overhead is the median of the per-pair
      ratios.  Multi-core, it must stay within 5% or the experiment
      fails (single-core the gate is informational, matching the other
      perf gates here).
   2. Does a run that DOES crash finish with the right answer?  A
      seeded fault schedule injects worker crashes mid-fixpoint with
      recovery armed; the run must recover (>= 1 recovery round) and
      land on the same tuple count as the crash-free baseline. *)
let recover_bench () =
  let reps = bench_reps ~default:3 in
  let spec = D.Queries.tc in
  let dataset = "rmat-400" in
  let edb = D.Queries.arc_edb (D.Datasets.rmat 400) in
  let prepared = prepare_spec spec in
  let every = 4 in
  let measure cfg =
    let times = ref [] and count = ref 0 and last = ref None in
    for _ = 1 to reps do
      let result, secs = time_run prepared edb cfg in
      times := secs :: !times;
      count := D.relation_count result spec.output;
      last := Some result
    done;
    let best, mean, stddev = sample_stats !times in
    (best, mean, stddev, !count, Option.get !last)
  in
  let base_cfg =
    { (config D.Coord.Dws) with D.max_iterations = spec.max_iterations }
  in
  let ckpt_cfg = { base_cfg with D.checkpoint_every = every } in
  let crash_cfg =
    {
      base_cfg with
      D.checkpoint_every = 2;
      D.max_recoveries = 6;
      D.fault =
        Some
          {
            D.Fault.off with
            D.Fault.seed = 11;
            crash_prob = 0.02;
            max_crashes = 2;
          };
    }
  in
  (* a run keeps its time, answer count and stats, not its answer *)
  let run cfg () =
    let result, secs = time_run prepared edb cfg in
    (secs, D.relation_count result spec.output, result.D.Parallel.stats)
  in
  let pairs = interleaved_pairs ~reps (run base_cfg) (run ckpt_cfg) in
  let (_, off_n, _), _ = List.hd pairs in
  List.iter
    (fun ((_, n_off, _), (_, n_on, _)) ->
      if n_off <> off_n || n_on <> off_n then begin
        Printf.eprintf "bench-recover: fixpoint changed with checkpointing on (%d vs %d tuples)\n"
          off_n n_on;
        exit 1
      end)
    pairs;
  let off_times = List.map (fun ((t, _, _), _) -> t) pairs
  and on_times = List.map (fun (_, (t, _, _)) -> t) pairs in
  let off, off_mean, off_sd = sample_stats off_times
  and on_, on_mean, on_sd = sample_stats on_times in
  let off_median = median off_times and on_median = median on_times in
  let _, (_, _, on_stats) = List.hd (List.rev pairs) in
  let rstats r = r.D.Parallel.stats.D.Run_stats.recovery in
  let epochs = on_stats.D.Run_stats.recovery.D.Run_stats.epochs_cut in
  let ckpt_s = D.Run_stats.total_checkpoint_time on_stats in
  let crash, crash_mean, crash_sd, crash_n, crash_res = measure crash_cfg in
  let recovered = rstats crash_res in
  if crash_n <> off_n then begin
    Printf.eprintf "bench-recover: recovered fixpoint differs (%d vs %d tuples)\n" crash_n off_n;
    exit 1
  end;
  let overhead =
    median (List.map (fun ((t_off, _, _), (t_on, _, _)) -> t_on /. Float.max 1e-9 t_off) pairs)
    -. 1.0
  in
  let best_overhead = (on_ /. Float.max 1e-9 off) -. 1.0 in
  let t =
    Report.create
      ~title:
        (Printf.sprintf
           "Crash recovery — TC %s, %d workers (median of %d interleaved pairs; crash row best of \
            %d)"
           dataset !bench_workers reps reps)
      ~header:[ "configuration"; "time (s)"; "±σ"; "vs baseline"; "notes" ]
  in
  Report.add_row t
    [ "recovery off"; Report.cell_time off_median; Printf.sprintf "%.3f" off_sd;
      Report.cell_speedup 1.0; Printf.sprintf "%d tuples" off_n ];
  Report.add_row t
    [ Printf.sprintf "checkpoint every %d" every; Report.cell_time on_median;
      Printf.sprintf "%.3f" on_sd; Report.cell_speedup (1.0 +. overhead);
      Printf.sprintf "%d epochs, %.4fs cutting" epochs ckpt_s ];
  Report.add_row t
    [ "2 crashes + recovery"; Report.cell_time crash; Printf.sprintf "%.3f" crash_sd;
      Report.cell_speedup (crash /. off);
      Printf.sprintf "%d recoveries, %d tuples rolled back"
        recovered.D.Run_stats.recoveries recovered.D.Run_stats.rolled_back_tuples ];
  Report.print t;
  Printf.printf
    "crash-free checkpoint overhead: %.1f%% (median of %d pair ratios; medians %.4f s off, %.4f \
     s on; best-of ratio %.1f%%)\n"
    (100. *. overhead) reps off_median on_median (100. *. best_overhead);
  if recovered.D.Run_stats.recoveries = 0 then
    fail_gate "bench-recover: the seeded fault schedule never triggered a recovery";
  add_json_block "recover"
    (Printf.sprintf
       "{\"dataset\": \"%s\", \"workers\": %d, \"reps\": %d, \"cores\": %d,\n\
       \    \"tuples\": %d, \"checkpoint_every\": %d,\n\
       \    \"off_s\": %.6f, \"off_mean_s\": %.6f, \"off_stddev_s\": %.6f,\n\
       \    \"on_s\": %.6f, \"on_mean_s\": %.6f, \"on_stddev_s\": %.6f,\n\
       \    \"off_median_s\": %.6f, \"on_median_s\": %.6f,\n\
       \    \"overhead_frac\": %.4f, \"best_of_overhead_frac\": %.4f,\n\
       \    \"epochs_cut\": %d, \"checkpoint_time_s\": %.6f,\n\
       \    \"crash_s\": %.6f, \"crash_mean_s\": %.6f, \"crash_stddev_s\": %.6f,\n\
       \    \"recoveries\": %d, \"rolled_back_tuples\": %d, \"rerun_iterations\": %d}"
       dataset !bench_workers reps
       (Domain.recommended_domain_count ())
       off_n every off off_mean off_sd on_ on_mean on_sd off_median on_median overhead
       best_overhead epochs ckpt_s crash
       crash_mean crash_sd recovered.D.Run_stats.recoveries
       recovered.D.Run_stats.rolled_back_tuples recovered.D.Run_stats.rerun_iterations);
  let cores = Domain.recommended_domain_count () in
  if cores >= 2 then begin
    if overhead > 0.05 then
      fail_gate
        "bench-recover: checkpoint overhead %.1f%% (median of %d pair ratios) above the 5%% bar"
        (100. *. overhead) reps
  end
  else
    Printf.printf
      "(1 hardware thread: the <=5%% checkpoint-overhead gate is informational only on this \
       machine)\n"

(* ------------------------------------------------------------------ *)
(* serve: resident session, incremental maintenance vs full recompute   *)

(* The serving runtime's reason to exist: after a small update batch a
   resident session should repair its fixpoint far faster than a cold
   evaluation reproduces it.  TC over rmat-400; the batch flips ~1% of
   the distinct arc set (half deletes of existing edges, half inserts
   of fresh ones).  Each rep times [Session.apply_batch] forward, then
   applies the inverse batch to restore the base state; the baseline is
   a cold [D.run] over the post-batch EDB.  The maintained fixpoint
   must match the cold one tuple-for-tuple, and multi-core the
   incremental path must win by >= 5x. *)
let serve_bench () =
  let reps = bench_reps ~default:3 in
  let spec = D.Queries.tc in
  let dataset = "rmat-400" in
  let g = D.Datasets.rmat 400 in
  let edb = D.Queries.arc_edb g in
  let arcs =
    match edb with
    | [ (_, v) ] -> v
    | _ -> failwith "bench-serve: unexpected arc EDB shape"
  in
  let present = Hashtbl.create (D.Vec.length arcs) in
  D.Vec.iter (fun t -> Hashtbl.replace present (t.(0), t.(1)) ()) arcs;
  let n_distinct = Hashtbl.length present in
  let batch_n = max 2 (n_distinct / 100) in
  let rng = Dcd_util.Rng.create 0xd15c in
  let distinct = Array.of_seq (Hashtbl.to_seq_keys present) in
  Dcd_util.Rng.shuffle rng distinct;
  let n_del = batch_n / 2 in
  let deletes = Array.sub distinct 0 n_del in
  let maxv = D.Graph.max_vertex g in
  let inserts = ref [] and n_ins = ref 0 in
  while !n_ins < batch_n - n_del do
    let a = Dcd_util.Rng.int rng (maxv + 1) in
    let b = Dcd_util.Rng.int rng (maxv + 1) in
    if a <> b && not (Hashtbl.mem present (a, b)) then begin
      (* reserve it so the same fresh edge is not drawn twice *)
      Hashtbl.replace present (a, b) ();
      inserts := (a, b) :: !inserts;
      incr n_ins
    end
  done;
  let batch =
    Array.to_list (Array.map (fun (a, b) -> D.Maintain.Delete ("arc", [| a; b |])) deletes)
    @ List.map (fun (a, b) -> D.Maintain.Insert ("arc", [| a; b |])) !inserts
  in
  let inverse =
    List.rev_map
      (function
        | D.Maintain.Insert (p, t) -> D.Maintain.Delete (p, t)
        | D.Maintain.Delete (p, t) -> D.Maintain.Insert (p, t))
      batch
  in
  let cfg = { (config D.Coord.Dws) with D.max_iterations = spec.max_iterations } in
  let prepared = prepare_spec spec in
  let session = D.open_session prepared ~edb ~config:cfg () in
  let incr_times = ref [] in
  for _ = 1 to reps do
    let (), secs = Clock.time (fun () -> ignore (D.Session.apply_batch session batch)) in
    incr_times := secs :: !incr_times;
    ignore (D.Session.apply_batch session inverse)
  done;
  (* leave the session at the post-batch state for the equality check *)
  ignore (D.Session.apply_batch session batch);
  (* cold recompute over the post-batch EDB *)
  let upd = Hashtbl.create n_distinct in
  D.Vec.iter (fun t -> Hashtbl.replace upd (t.(0), t.(1)) ()) arcs;
  Array.iter (fun e -> Hashtbl.remove upd e) deletes;
  List.iter (fun e -> Hashtbl.replace upd e ()) !inserts;
  let updated_edb =
    [ ("arc", D.Vec.of_list (Hashtbl.fold (fun (a, b) () acc -> [| a; b |] :: acc) upd [])) ]
  in
  let full_times = ref [] and full_res = ref None in
  for _ = 1 to reps do
    let result, secs = time_run prepared updated_edb cfg in
    full_times := secs :: !full_times;
    full_res := Some result
  done;
  let incr, incr_mean, incr_sd = sample_stats !incr_times in
  let full, full_mean, full_sd = sample_stats !full_times in
  let _, rows = D.Session.scan session spec.output in
  let maintained = List.sort compare (List.map Array.to_list rows) in
  let cold = D.relation (Option.get !full_res) spec.output in
  if maintained <> cold then begin
    Printf.eprintf
      "bench-serve: maintained fixpoint differs from cold recompute (%d vs %d tuples)\n"
      (List.length maintained) (List.length cold);
    exit 1
  end;
  let m = (D.Session.stats session).D.Run_stats.maintenance in
  D.Session.close session;
  let words_per_tuple =
    float_of_int m.D.Run_stats.words /. float_of_int (max 1 m.D.Run_stats.resident_tuples)
  in
  let speedup = full /. Float.max 1e-9 incr in
  let t =
    Report.create
      ~title:
        (Printf.sprintf "Incremental serving — TC %s, %d workers, %d-update batch (best of %d)"
           dataset !bench_workers batch_n reps)
      ~header:[ "path"; "time (s)"; "±σ"; "speedup"; "notes" ]
  in
  Report.add_row t
    [ "full recompute"; Report.cell_time full; Printf.sprintf "%.3f" full_sd;
      Report.cell_speedup 1.0; Printf.sprintf "%d tuples" (List.length cold) ];
  Report.add_row t
    [ Printf.sprintf "incremental (%d del, %d ins)" n_del (batch_n - n_del);
      Report.cell_time incr; Printf.sprintf "%.3f" incr_sd; Report.cell_speedup speedup;
      Printf.sprintf "%d overdeleted, %d rederived across %d batches; %.1f words/resident tuple"
        m.D.Run_stats.overdeleted m.D.Run_stats.rederived m.D.Run_stats.batches words_per_tuple ];
  Report.print t;
  Printf.printf
    "maintained fixpoint == cold recompute (%d tuples); incremental speedup %.1fx (cold \
     recompute %.4f s / incremental batch %.4f s)\n"
    (List.length cold) speedup full incr;
  add_json_block "serve"
    (Printf.sprintf
       "{\"dataset\": \"%s\", \"workers\": %d, \"reps\": %d, \"cores\": %d,\n\
       \    \"tuples\": %d, \"batch\": %d, \"deletes\": %d, \"inserts\": %d,\n\
       \    \"incr_s\": %.6f, \"incr_mean_s\": %.6f, \"incr_stddev_s\": %.6f,\n\
       \    \"full_s\": %.6f, \"full_mean_s\": %.6f, \"full_stddev_s\": %.6f,\n\
       \    \"speedup\": %.2f, \"overdeleted\": %d, \"rederived\": %d,\n\
       \    \"state_words\": %d, \"resident_tuples\": %d, \"words_per_tuple\": %.2f}"
       dataset !bench_workers reps
       (Domain.recommended_domain_count ())
       (List.length cold) batch_n n_del (batch_n - n_del) incr incr_mean incr_sd full full_mean
       full_sd speedup m.D.Run_stats.overdeleted m.D.Run_stats.rederived m.D.Run_stats.words
       m.D.Run_stats.resident_tuples words_per_tuple);
  let cores = Domain.recommended_domain_count () in
  if cores >= 2 then begin
    if speedup < 5.0 then
      fail_gate
        "bench-serve: incremental speedup %.1fx (cold recompute %.4f s / incremental batch %.4f \
         s) below the 5x bar"
        speedup full incr
  end
  else
    Printf.printf
      "(1 hardware thread: the >=5x incremental-speedup gate is informational only on this \
       machine)\n"

(* ------------------------------------------------------------------ *)
(* serve scaling: maintain_workers x batch size                         *)

(* The parallel-maintenance grid: the same TC rmat-400 session repaired
   under mixed batches of 20 / 200 / 2000 arcs with maintain_workers 1
   (every compiled kernel inline on the coordinator), 2, and 4.  Every
   cell's post-batch fixpoint must be identical across maintain_workers
   and match a cold recompute of the post-batch EDB; multi-core, the
   same kernels as morsel rounds at 4 maintenance workers must beat the
   inline mw=1 run >= 2x on the 200-arc batch, so the gate measures
   parallel scaling alone. *)
let serve_scaling_bench () =
  let reps = bench_reps ~default:3 in
  let spec = D.Queries.tc in
  let dataset = "rmat-400" in
  let g = D.Datasets.rmat 400 in
  let edb = D.Queries.arc_edb g in
  let arcs =
    match edb with
    | [ (_, v) ] -> v
    | _ -> failwith "bench-serve-scaling: unexpected arc EDB shape"
  in
  let maxv = D.Graph.max_vertex g in
  (* a mixed batch: half deletes of existing distinct arcs, half fresh
     inserts; self-inverse restorable so every cell starts from the
     same base state *)
  let mk_batch seed size =
    let present = Hashtbl.create (D.Vec.length arcs) in
    D.Vec.iter (fun t -> Hashtbl.replace present (t.(0), t.(1)) ()) arcs;
    let rng = Dcd_util.Rng.create seed in
    let distinct = Array.of_seq (Hashtbl.to_seq_keys present) in
    Dcd_util.Rng.shuffle rng distinct;
    let n_del = min (size / 2) (Array.length distinct) in
    let deletes = Array.sub distinct 0 n_del in
    let inserts = ref [] and n_ins = ref 0 in
    while !n_ins < size - n_del do
      let a = Dcd_util.Rng.int rng (maxv + 1) in
      let b = Dcd_util.Rng.int rng (maxv + 1) in
      if a <> b && not (Hashtbl.mem present (a, b)) then begin
        Hashtbl.replace present (a, b) ();
        inserts := (a, b) :: !inserts;
        incr n_ins
      end
    done;
    Array.to_list (Array.map (fun (a, b) -> D.Maintain.Delete ("arc", [| a; b |])) deletes)
    @ List.map (fun (a, b) -> D.Maintain.Insert ("arc", [| a; b |])) !inserts
  in
  let inverse_of batch =
    List.rev_map
      (function
        | D.Maintain.Insert (p, t) -> D.Maintain.Delete (p, t)
        | D.Maintain.Delete (p, t) -> D.Maintain.Insert (p, t))
      batch
  in
  let sizes = [ 20; 200; 2000 ] in
  let mws = [ 1; 2; 4 ] in
  let batches = List.map (fun s -> (s, mk_batch (0xace0 + s) s)) sizes in
  let prepared = prepare_spec spec in
  (* (mw, size) -> (best seconds, post-batch fixpoint) *)
  let cells = Hashtbl.create 16 in
  List.iter
    (fun mw ->
      let cfg =
        {
          (config D.Coord.Dws) with
          D.workers = 4;
          D.maintain_workers = mw;
          D.max_iterations = spec.max_iterations;
        }
      in
      let session = D.open_session prepared ~edb ~config:cfg () in
      List.iter
        (fun (size, batch) ->
          let inverse = inverse_of batch in
          let times = ref [] in
          for _ = 1 to reps do
            let (), secs =
              Clock.time (fun () -> ignore (D.Session.apply_batch session batch))
            in
            times := secs :: !times;
            ignore (D.Session.apply_batch session inverse)
          done;
          (* capture the post-batch fixpoint for the equality check,
             then restore the shared base state *)
          ignore (D.Session.apply_batch session batch);
          let _, rows = D.Session.scan session spec.output in
          let fixpoint = List.sort compare (List.map Array.to_list rows) in
          ignore (D.Session.apply_batch session inverse);
          let best, _, _ = sample_stats !times in
          Hashtbl.replace cells (mw, size) (best, fixpoint))
        batches;
      D.Session.close session)
    mws;
  (* cold recompute of each post-batch EDB: the external truth *)
  let cold_of size batch =
    let upd = Hashtbl.create (D.Vec.length arcs) in
    D.Vec.iter (fun t -> Hashtbl.replace upd (t.(0), t.(1)) ()) arcs;
    List.iter
      (function
        | D.Maintain.Delete (_, t) -> Hashtbl.remove upd (t.(0), t.(1))
        | D.Maintain.Insert (_, t) -> Hashtbl.replace upd (t.(0), t.(1)) ())
      batch;
    let updated_edb =
      [ ("arc", D.Vec.of_list (Hashtbl.fold (fun (a, b) () acc -> [| a; b |] :: acc) upd [])) ]
    in
    let cfg = { (config D.Coord.Dws) with D.max_iterations = spec.max_iterations } in
    let result, secs = time_run prepared updated_edb cfg in
    ignore size;
    (D.relation result spec.output, secs)
  in
  let t =
    Report.create
      ~title:
        (Printf.sprintf "Maintenance scaling — TC %s, 4 workers, best of %d" dataset reps)
      ~header:
        [ "batch"; "mw=1 (s)"; "mw=2 (s)"; "mw=4 (s)"; "par4 speedup"; "vs recompute" ]
  in
  let json_rows = ref [] in
  List.iter
    (fun (size, batch) ->
      let time_of mw = fst (Hashtbl.find cells (mw, size)) in
      let fix_of mw = snd (Hashtbl.find cells (mw, size)) in
      let cold, cold_s = cold_of size batch in
      List.iter
        (fun mw ->
          if fix_of mw <> cold then begin
            Printf.eprintf
              "bench-serve-scaling: maintain_workers=%d batch=%d fixpoint differs from cold \
               recompute (%d vs %d tuples)\n"
              mw size
              (List.length (fix_of mw))
              (List.length cold);
            exit 1
          end)
        mws;
      let t1 = time_of 1 and t2 = time_of 2 and t4 = time_of 4 in
      let par_speedup = t1 /. Float.max 1e-9 t4 in
      let vs_recompute = cold_s /. Float.max 1e-9 t4 in
      Report.add_row t
        [ Printf.sprintf "%d arcs" size; Report.cell_time t1; Report.cell_time t2;
          Report.cell_time t4; Report.cell_speedup par_speedup;
          Report.cell_speedup vs_recompute ];
      json_rows :=
        Printf.sprintf
          "{\"batch\": %d, \"mw1_s\": %.6f, \"mw2_s\": %.6f, \"mw4_s\": %.6f,\n\
          \     \"par_speedup\": %.2f, \"cold_s\": %.6f, \"vs_recompute\": %.2f}"
          size t1 t2 t4 par_speedup cold_s vs_recompute
        :: !json_rows)
    batches;
  Report.print t;
  add_json_block "serve_scaling"
    (Printf.sprintf
       "{\"dataset\": \"%s\", \"workers\": 4, \"reps\": %d, \"cores\": %d,\n\
       \    \"rows\": [%s]}"
       dataset reps
       (Domain.recommended_domain_count ())
       (String.concat ",\n     " (List.rev !json_rows)));
  let t1 = fst (Hashtbl.find cells (1, 200)) in
  let t4 = fst (Hashtbl.find cells (4, 200)) in
  let gate = t1 /. Float.max 1e-9 t4 in
  Printf.printf
    "all fixpoints identical across maintain_workers and == cold recompute; parallel \
     maintenance speedup %.2fx at 200-arc batch\n"
    gate;
  let cores = Domain.recommended_domain_count () in
  if cores >= 2 then begin
    if gate < 2.0 then
      fail_gate "bench-serve-scaling: parallel maintenance speedup %.2fx below the 2x bar" gate
  end
  else
    Printf.printf
      "(1 hardware thread: the >=2x parallel-maintenance gate is informational only on this \
       machine)\n"

let experiments =
  [
    ("fig1", fig1, "Figure 1: SSSP engine comparison");
    ("tab2", tab2, "Table 2: end-to-end times, 5 queries");
    ("tab3", tab3, "Table 3: APSP non-linear recursion");
    ("tab4", tab4, "Table 4: SS6.2 optimization ablation");
    ("fig3", fig3, "Figure 3: worked coordination example");
    ("fig8", fig8, "Figure 8: coordination strategies");
    ("fig9a", fig9a, "Figure 9a: speedup vs workers");
    ("fig9b", fig9b, "Figure 9b: time vs data size");
    ("ablation", ablation, "Engine ablations: exchange fabric, partial aggregation");
    ("micro", micro, "Microbenchmarks");
    ("pool", pool, "Persistent pool vs per-stratum spawning, many-strata breakdown");
    ("perf", perf, "Perf trajectory: bench/results/<stamp>.json (4 workers, DWS)");
    ("skew", skew, "Morsel work stealing on zipf vs uniform inputs");
    ("gj", gj, "Generic join vs binary pipeline on triangle and SG");
    ("merge", merge_bench, "Set-store drain fold vs per-tuple B+-tree inserts");
    ("recover", recover_bench, "Checkpoint overhead + seeded crash-recovery demonstration");
    ( "serve",
      (fun () ->
        serve_bench ();
        serve_scaling_bench ()),
      "Resident session: incremental maintenance vs full recompute + scaling grid" );
    ("sweep", sweep, "Knob grid (workers/strategy/steal/morsel) + data-scaling curve");
    ("smoke", smoke, "CI smoke: tiny workload per coordination strategy");
  ]

let () =
  Printexc.record_backtrace true;
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse selected = function
    | [] -> List.rev selected
    | "--scale" :: f :: rest ->
      D.Datasets.set_scale_factor (float_of_string f);
      parse selected rest
    | "--workers" :: n :: rest ->
      bench_workers := int_of_string n;
      parse selected rest
    | name :: rest ->
      if List.exists (fun (id, _, _) -> id = name) experiments then parse (name :: selected) rest
      else begin
        Printf.eprintf "unknown experiment %s; available: %s\n" name
          (String.concat " " (List.map (fun (id, _, _) -> id) experiments));
        exit 1
      end
  in
  let selected = parse [] args in
  let to_run =
    if selected = [] then experiments
    else List.filter (fun (id, _, _) -> List.mem id selected) experiments
  in
  Printf.printf "DCDatalog benchmark harness — %d workers, dataset scale %.2f\n"
    !bench_workers (D.Datasets.scale_factor ());
  let total = Clock.stopwatch () in
  List.iter
    (fun (id, f, desc) ->
      Printf.printf "\n=== %s: %s ===\n%!" id desc;
      let (), secs = Clock.time f in
      Printf.printf "[%s completed in %.1fs]\n%!" id secs)
    to_run;
  write_results ();
  Printf.printf "\nAll experiments done in %.1fs.\n" (Clock.elapsed total);
  if !gate_failures <> [] then begin
    Printf.eprintf "\n%d gate(s) failed:\n" (List.length !gate_failures);
    List.iter (Printf.eprintf "  %s\n") (List.rev !gate_failures);
    exit 1
  end
