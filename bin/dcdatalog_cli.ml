(* dcdatalog — command-line front end.

   Examples:
     dcdatalog list
     dcdatalog explain --query apsp
     dcdatalog run --query sssp --dataset livejournal-sim --strategy dws --workers 4
     dcdatalog run --query cc --rmat 2000 --strategy global
     dcdatalog run --program my.dl --rmat 500 --show 10

   Exit codes:
     0  success
     1  input error (unknown dataset/query, unreadable file, bad flags)
     2  program error (parse failure, unknown predicate, arity mismatch)
     3  cancelled (--timeout expired or external cancellation)
     4  a worker crashed (the message names the faulting worker)
     5  stalled (the watchdog saw no progress for --stall-window) *)

module D = Dcdatalog
open Cmdliner

let exit_input_error = 1
let exit_program_error = 2
let exit_cancelled = 3
let exit_crashed = 4
let exit_stalled = 5

let input_error msg =
  prerr_endline ("error: " ^ msg);
  exit_input_error

let program_error msg =
  prerr_endline ("error: " ^ String.concat " " (String.split_on_char '\n' msg));
  exit_program_error

let strategy_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "global" -> Ok D.Coord.Global
    | "dws" -> Ok D.Coord.Dws
    | s when String.length s > 4 && String.sub s 0 4 = "ssp:" -> (
      match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
      | Some k when k >= 0 -> Ok (D.Coord.Ssp k)
      | _ -> Error (`Msg "ssp:<n> expects a non-negative integer"))
    | _ -> Error (`Msg "strategy must be global, dws, or ssp:<n>")
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (D.Coord.to_string s))

let param_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i -> (
      let k = String.sub s 0 i and v = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt v with
      | Some v -> Ok (k, v)
      | None -> Error (`Msg "parameter value must be an integer"))
    | None -> Error (`Msg "expected name=value")
  in
  Arg.conv (parse, fun fmt (k, v) -> Format.fprintf fmt "%s=%d" k v)

(* --- common options --- *)

let query_arg =
  Arg.(value & opt (some string) None & info [ "query"; "q" ] ~docv:"NAME"
         ~doc:"Built-in paper query (see $(b,dcdatalog list)).")

let program_arg =
  Arg.(value & opt (some file) None & info [ "program"; "p" ] ~docv:"FILE"
         ~doc:"Datalog program file to run instead of a built-in query.")

let dataset_arg =
  Arg.(value & opt (some string) None & info [ "dataset"; "d" ] ~docv:"NAME"
         ~doc:"Named dataset (see $(b,dcdatalog list)).")

let rmat_arg =
  Arg.(value & opt (some int) None & info [ "rmat" ] ~docv:"N"
         ~doc:"Generate an RMAT-N graph (N vertices, 10N edges) as input.")

let edges_arg =
  Arg.(value & opt (some file) None & info [ "edges" ] ~docv:"FILE"
         ~doc:"Load the input graph from an edge-list file (src dst [weight] per line; \
               # comments).  This is how the paper's real datasets can be used.")

let edb_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i -> Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> Error (`Msg "expected relation=file")
  in
  Arg.conv (parse, fun fmt (k, v) -> Format.fprintf fmt "%s=%s" k v)

let edb_arg =
  Arg.(value & opt_all edb_conv [] & info [ "edb" ] ~docv:"REL=FILE"
         ~doc:"Load a relation from a file of integer rows (repeatable).")

let workers_arg =
  Arg.(value & opt int D.default_config.workers & info [ "workers"; "w" ] ~docv:"N"
         ~doc:"Number of parallel workers (OCaml domains).")

let strategy_arg =
  Arg.(value & opt strategy_conv D.Coord.Dws & info [ "strategy"; "s" ] ~docv:"STRAT"
         ~doc:"Coordination strategy: global, ssp:<n>, or dws.")

let no_steal_arg =
  Arg.(value & flag & info [ "no-steal" ]
         ~doc:"Disable intra-iteration morsel work stealing (on by default); with stealing \
               off the engine behaves exactly as before the morsel board existed.")

let maintain_workers_arg =
  Arg.(value & opt int D.default_config.maintain_workers
       & info [ "maintain-workers" ] ~docv:"N"
           ~doc:"Workers for incremental maintenance rounds in $(b,repl)/$(b,serve) \
                 (0 = same as --workers, the default; 1 = every maintenance kernel runs \
                 inline on the coordinator; capped at --workers).")

let unopt_arg =
  Arg.(value & flag & info [ "unoptimized" ]
         ~doc:"Disable the \xc2\xa76.2 optimizations (aggregate index, existence cache).")

let params_arg =
  Arg.(value & opt_all param_conv [] & info [ "param" ] ~docv:"K=V"
         ~doc:"Bind a program parameter, e.g. --param start=7.")

let show_arg =
  Arg.(value & opt int 0 & info [ "show" ] ~docv:"N" ~doc:"Print the first N result tuples.")

let stats_arg = Arg.(value & flag & info [ "stats" ] ~doc:"Print per-worker execution statistics.")

let timeout_arg =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS"
         ~doc:"Abort the evaluation cleanly after SECS seconds of wall clock (exit code 3).")

let stall_window_arg =
  Arg.(value & opt (some float) None & info [ "stall-window" ] ~docv:"SECS"
         ~doc:"Arm the stall watchdog: if no worker makes progress for SECS seconds, dump a \
               state snapshot and abort (exit code 5).")

let fault_seed_arg =
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"N"
         ~doc:"Enable deterministic fault injection with this seed (testing/diagnostics).")

let fault_crash_arg =
  Arg.(value & opt float 0. & info [ "fault-crash" ] ~docv:"P"
         ~doc:"With --fault-seed: per-site probability of an induced worker crash.")

let fault_delay_arg =
  Arg.(value & opt float 0. & info [ "fault-delay" ] ~docv:"P"
         ~doc:"With --fault-seed: per-site probability of an extra sub-millisecond delay.")

let fault_sites_conv =
  let parse s =
    let names = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
        match D.Fault.site_of_string (String.trim name) with
        | Some site -> go (site :: acc) rest
        | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "unknown fault site %s (loop | flush | merge | quiesce | steal | \
                   checkpoint | recover)"
                  name)))
    in
    go [] names
  in
  let print fmt sites =
    Format.pp_print_string fmt (String.concat "," (List.map D.Fault.site_to_string sites))
  in
  Arg.conv (parse, print)

let fault_sites_arg =
  Arg.(value & opt (some fault_sites_conv) None & info [ "fault-sites" ] ~docv:"SITES"
         ~doc:"With --fault-seed: comma-separated list of sites where crashes may fire \
               (default: all of loop, flush, merge, quiesce, steal, checkpoint, recover).")

let fault_max_crashes_arg =
  Arg.(value & opt int 2 & info [ "fault-max-crashes" ] ~docv:"N"
         ~doc:"With --fault-seed: global budget of induced crashes (default 2).")

let checkpoint_every_arg =
  Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~docv:"N"
         ~doc:"Cut a crash-recovery epoch every N fixpoint iterations (0 = off; under SSP \
               and DWS, once every active worker has run N iterations since the last cut).  \
               An epoch is a consistent cut of the recursive stratum's state taken at a globally \
               quiescent point; after a worker crash the run can roll back to the last \
               committed epoch instead of aborting.")

let max_recoveries_arg =
  Arg.(value & opt int 0 & info [ "max-recoveries" ] ~docv:"N"
         ~doc:"Number of worker crashes a single run may recover from by rolling back to \
               the last committed epoch, replacing the crashed domain, and re-running \
               (0 = fail fast, the historical behavior).")

(* --- input assembly --- *)

let load_graph dataset rmat edges_file =
  match (dataset, rmat, edges_file) with
  | Some name, _, _ -> (
    match D.Datasets.find name with
    | Some e -> Ok (Lazy.force e.graph)
    | None -> Error (Printf.sprintf "unknown dataset %s" name))
  | None, Some n, _ -> Ok (D.Datasets.rmat n)
  | None, None, Some path -> (
    match D.Loader.edges_of_file path with
    | g -> Ok g
    | exception Failure msg -> Error (path ^ ": " ^ msg))
  | None, None, None -> Ok (D.Datasets.rmat 500)

let edb_for_query (spec : D.Queries.spec) graph =
  match spec.name with
  | "cc" -> D.Queries.arc_sym_edb graph
  | "sssp" | "apsp" -> D.Queries.warc_edb graph
  | "pagerank" -> D.Queries.matrix_edb graph
  | "delivery" ->
    let tree, basics = D.Datasets.bom (max 100 (D.Graph.edge_count graph / 10)) in
    D.Queries.delivery_edb tree basics
  | "attend" ->
    let g, orgs = D.Gen.friendship ~seed:1 ~people:(max 10 (D.Graph.max_vertex graph + 1))
        ~avg_friends:8 ~organizers:5
    in
    D.Queries.attend_edb g orgs
  | _ -> D.Queries.arc_edb graph

let resolve_source query program =
  match (query, program) with
  | Some q, None -> (
    match D.Queries.find q with
    | Some spec -> Ok (spec.source, spec.default_params, Some spec)
    | None -> Error (Printf.sprintf "unknown query %s (try: dcdatalog list)" q))
  | None, Some file ->
    let ic = open_in file in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    Ok (src, [], None)
  | Some _, Some _ -> Error "--query and --program are mutually exclusive"
  | None, None -> Error "one of --query or --program is required"

(* --- commands --- *)

let run_cmd query program dataset rmat edges_file edb_files workers strategy no_steal unopt
    params show stats timeout stall_window checkpoint_every max_recoveries fault_seed
    fault_crash fault_delay fault_sites fault_max_crashes =
  if workers < 1 then input_error "--workers must be at least 1"
  else if checkpoint_every < 0 then input_error "--checkpoint-every must be non-negative"
  else if max_recoveries < 0 then input_error "--max-recoveries must be non-negative"
  else
  match (resolve_source query program, load_graph dataset rmat edges_file) with
  | Error e, _ | _, Error e -> input_error e
  | Ok (source, default_params, spec), Ok graph -> (
    (* precedence (assoc lookups take the first match): explicit --param,
       then values computed from the input, then the query's defaults *)
    let computed =
      match spec with
      | Some { D.Queries.name = "pagerank"; _ } -> [ ("vnum", D.Graph.max_vertex graph + 1) ]
      | _ -> []
    in
    let params = params @ computed @ default_params in
    match D.prepare ~params source with
    | Error e -> program_error e
    | Ok prepared -> (
        let edb =
          match spec with
          | Some spec -> edb_for_query spec graph
          | None -> D.Queries.arc_edb graph @ D.Queries.warc_edb graph
        in
        match
          List.fold_left
            (fun edb (rel, path) ->
              match edb with
              | Error _ -> edb
              | Ok acc -> (
                match D.Loader.tuples_of_file path with
                | tuples -> Ok ((rel, tuples) :: acc)
                | exception (Sys_error msg | Failure msg) -> Error msg))
            (Ok edb) edb_files
        with
        | Error msg -> input_error msg
        | Ok edb -> (
          let config =
            {
              D.default_config with
              workers;
              strategy;
              steal = not no_steal;
              max_iterations = (match spec with Some s -> s.max_iterations | None -> 0);
              optimized_stores = not unopt;
              checkpoint_every;
              max_recoveries;
              coord = { D.Coord.default_config with timeout; stall_window };
              fault =
                Option.map
                  (fun seed ->
                    {
                      D.Fault.off with
                      seed;
                      crash_prob = fault_crash;
                      delay_prob = fault_delay;
                      max_crashes = fault_max_crashes;
                      crash_sites =
                        (match fault_sites with
                        | Some sites -> sites
                        | None -> D.Fault.off.D.Fault.crash_sites);
                    })
                  fault_seed;
            }
          in
          let outcome, elapsed =
            Dcd_util.Clock.time (fun () -> D.try_run prepared ~edb ~config ())
          in
          match outcome with
          | Error (D.Engine_error.Cancelled _ as e) ->
            prerr_endline ("error: " ^ D.Engine_error.to_string e);
            exit_cancelled
          | Error (D.Engine_error.Worker_crashed _ as e) ->
            prerr_endline ("error: " ^ D.Engine_error.to_string e);
            exit_crashed
          | Error (D.Engine_error.Stalled diag as e) ->
            prerr_endline ("error: " ^ D.Engine_error.to_string e);
            Format.eprintf "%a@?" D.Engine_error.pp_diagnostic diag;
            exit_stalled
          | Ok result ->
            let output = match spec with Some s -> s.output | None -> "" in
            let outputs =
              if output <> "" then [ output ]
              else prepared.info.idb
            in
            List.iter
              (fun out ->
                Printf.printf "%s: %d tuples\n" out (D.relation_count result out);
                if show > 0 then
                  List.iteri
                    (fun i row ->
                      if i < show then
                        print_endline ("  " ^ String.concat ", " (List.map string_of_int row)))
                    (D.relation result out))
              outputs;
            Printf.printf "elapsed: %.3fs (%s, %d workers)\n" elapsed
              (D.Coord.to_string strategy) workers;
            if stats then Format.printf "%a" D.Run_stats.pp result.stats;
            0)))

(* --- resident serving (serve / repl subcommands) --- *)

let socket_arg =
  Arg.(value & opt string "dcdatalog.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path for $(b,dcdatalog serve).")

let request_timeout_arg =
  Arg.(value & opt (some float) None & info [ "request-timeout" ] ~docv:"SECS"
         ~doc:"Per-request deadline: bounds each scan and gates update-batch admission.")

(* Same input assembly as `run`, ending in a resident session instead of
   a one-shot evaluation. *)
let open_serving_session query program dataset rmat edges_file edb_files workers strategy
    no_steal unopt maintain_workers params k =
  if workers < 1 then input_error "--workers must be at least 1"
  else if maintain_workers < 0 then input_error "--maintain-workers must be non-negative"
  else
  match (resolve_source query program, load_graph dataset rmat edges_file) with
  | Error e, _ | _, Error e -> input_error e
  | Ok (source, default_params, spec), Ok graph -> (
    match spec with
    | Some s when s.D.Queries.max_iterations > 0 ->
      input_error
        (Printf.sprintf
           "%s converges only under bounded iterations and cannot be served incrementally"
           s.D.Queries.name)
    | _ -> (
      let computed =
        match spec with
        | Some { D.Queries.name = "pagerank"; _ } -> [ ("vnum", D.Graph.max_vertex graph + 1) ]
        | _ -> []
      in
      let params = params @ computed @ default_params in
      match D.prepare ~params source with
      | Error e -> program_error e
      | Ok prepared -> (
        let edb =
          match spec with
          | Some spec -> edb_for_query spec graph
          | None -> D.Queries.arc_edb graph @ D.Queries.warc_edb graph
        in
        match
          List.fold_left
            (fun edb (rel, path) ->
              match edb with
              | Error _ -> edb
              | Ok acc -> (
                match D.Loader.tuples_of_file path with
                | tuples -> Ok ((rel, tuples) :: acc)
                | exception (Sys_error msg | Failure msg) -> Error msg))
            (Ok edb) edb_files
        with
        | Error msg -> input_error msg
        | Ok edb -> (
          let config =
            {
              D.default_config with
              workers;
              strategy;
              steal = not no_steal;
              maintain_workers;
              optimized_stores = not unopt;
            }
          in
          match D.open_session prepared ~edb ~config () with
          | exception D.Engine_error.Error (D.Engine_error.Cancelled _ as e) ->
            prerr_endline ("error: " ^ D.Engine_error.to_string e);
            exit_cancelled
          | exception D.Engine_error.Error (D.Engine_error.Worker_crashed _ as e) ->
            prerr_endline ("error: " ^ D.Engine_error.to_string e);
            exit_crashed
          | exception D.Engine_error.Error (D.Engine_error.Stalled _ as e) ->
            prerr_endline ("error: " ^ D.Engine_error.to_string e);
            exit_stalled
          | exception Invalid_argument msg -> input_error msg
          | session ->
            Fun.protect ~finally:(fun () -> D.Session.close session) (fun () -> k session)))))

let repl_cmd query program dataset rmat edges_file edb_files workers strategy no_steal unopt
    maintain_workers params request_timeout =
  open_serving_session query program dataset rmat edges_file edb_files workers strategy
    no_steal unopt maintain_workers params (fun session ->
      let tty = Unix.isatty Unix.stdin in
      if tty then begin
        Printf.printf "dcdatalog repl — %d relations resident, version %d. 'help' lists commands.\n"
          (List.length (D.Session.predicates session))
          (D.Session.version session);
        flush stdout
      end;
      Dcd_serve.Serve.repl ?request_timeout ~prompt:tty session stdin stdout;
      0)

let serve_cmd query program dataset rmat edges_file edb_files workers strategy no_steal unopt
    maintain_workers params socket request_timeout =
  open_serving_session query program dataset rmat edges_file edb_files workers strategy
    no_steal unopt maintain_workers params (fun session ->
      let server = Dcd_serve.Serve.listen_unix ?request_timeout session ~path:socket in
      Printf.printf "serving on %s (version %d; EOF on stdin shuts down)\n" socket
        (D.Session.version session);
      flush stdout;
      (* the foreground stays a REPL too: handy for stats, and EOF is
         the shutdown signal *)
      Dcd_serve.Serve.repl ?request_timeout ~prompt:(Unix.isatty Unix.stdin) session stdin
        stdout;
      Dcd_serve.Serve.stop server;
      0)

let dot_arg =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit the plan as a Graphviz digraph instead of text.")

let explain_cmd query program params dot =
  match resolve_source query program with
  | Error e -> input_error e
  | Ok (source, default_params, _) -> (
    match D.prepare ~params:(default_params @ params) source with
    | Error e -> program_error e
    | Ok prepared ->
      if dot then print_string (D.Physical.to_dot prepared.plan)
      else begin
        print_endline (D.explain prepared);
        match D.Pcg.roots prepared.info with
        | root :: _ ->
          print_endline "AND/OR tree:";
          print_endline (D.pcg_string prepared ~root)
        | [] -> ()
      end;
      0)

let list_cmd () =
  print_endline "Built-in queries:";
  List.iter
    (fun (s : D.Queries.spec) -> Printf.printf "  %-10s %s\n" s.name s.description)
    D.Queries.all;
  print_endline "\nNamed datasets:";
  List.iter
    (fun (e : D.Datasets.entry) -> Printf.printf "  %-16s %s\n" e.name e.description)
    D.Datasets.all;
  print_endline "\nAlso: --rmat N generates the paper's RMAT-N family on the fly.";
  0

let run_term =
  Term.(
    const run_cmd $ query_arg $ program_arg $ dataset_arg $ rmat_arg $ edges_arg $ edb_arg
    $ workers_arg $ strategy_arg $ no_steal_arg $ unopt_arg $ params_arg $ show_arg $ stats_arg $ timeout_arg
    $ stall_window_arg $ checkpoint_every_arg $ max_recoveries_arg $ fault_seed_arg
    $ fault_crash_arg $ fault_delay_arg $ fault_sites_arg $ fault_max_crashes_arg)

let explain_term = Term.(const explain_cmd $ query_arg $ program_arg $ params_arg $ dot_arg)

let repl_term =
  Term.(
    const repl_cmd $ query_arg $ program_arg $ dataset_arg $ rmat_arg $ edges_arg $ edb_arg
    $ workers_arg $ strategy_arg $ no_steal_arg $ unopt_arg
    $ maintain_workers_arg $ params_arg $ request_timeout_arg)

let serve_term =
  Term.(
    const serve_cmd $ query_arg $ program_arg $ dataset_arg $ rmat_arg $ edges_arg $ edb_arg
    $ workers_arg $ strategy_arg $ no_steal_arg $ unopt_arg
    $ maintain_workers_arg $ params_arg $ socket_arg $ request_timeout_arg)

let list_term = Term.(const list_cmd $ const ())

let () =
  Printexc.record_backtrace true;
  let info = Cmd.info "dcdatalog" ~doc:"Parallel recursive Datalog engine (SIGMOD 2022 reproduction)" in
  let cmds =
    Cmd.group info
      [
        Cmd.v (Cmd.info "run" ~doc:"Evaluate a query over a dataset") run_term;
        Cmd.v (Cmd.info "explain" ~doc:"Show the physical plan and AND/OR tree") explain_term;
        Cmd.v (Cmd.info "list" ~doc:"List built-in queries and datasets") list_term;
        Cmd.v
          (Cmd.info "repl"
             ~doc:"Keep the fixpoint resident and answer queries/updates interactively")
          repl_term;
        Cmd.v
          (Cmd.info "serve"
             ~doc:"Serve the resident fixpoint to concurrent clients on a Unix socket")
          serve_term;
      ]
  in
  exit (Cmd.eval' cmds)
