module Ast = Dcd_datalog.Ast
module Parser = Dcd_datalog.Parser
module Analysis = Dcd_datalog.Analysis
module Pcg = Dcd_datalog.Pcg
module Logical = Dcd_planner.Logical
module Physical = Dcd_planner.Physical
module Coord = Dcd_engine.Coord
module Parallel = Dcd_engine.Parallel
module Engine_error = Dcd_engine.Engine_error
module Cancel = Dcd_concurrent.Cancel
module Fault = Dcd_concurrent.Fault
module Naive = Dcd_engine.Naive
module Run_stats = Dcd_engine.Run_stats
module Catalog = Dcd_engine.Catalog
module Rec_store = Dcd_engine.Rec_store
module Graph = Dcd_workload.Graph
module Gen = Dcd_workload.Gen
module Queries = Dcd_workload.Queries
module Datasets = Dcd_workload.Datasets
module Loader = Dcd_workload.Loader
module Tuple = Dcd_storage.Tuple
module Relation = Dcd_storage.Relation
module Vec = Dcd_util.Vec
module Maintain = Dcd_engine.Maintain
module Snapshot = Dcd_storage.Snapshot
module Session = Session

type prepared = {
  source : string;
  info : Analysis.info;
  plan : Physical.t;
}

type config = Parallel.config = {
  workers : int;
  strategy : Coord.t;
  optimized_stores : bool;
  partial_agg : bool;
  max_iterations : int;
  exchange : Parallel.exchange;
  steal : bool;
  morsel_tuples : int;
  coord : Coord.config;
  fault : Fault.spec option;
  checkpoint_every : int;
  max_recoveries : int;
  maintain_workers : int;
}

let default_config = Parallel.default_config

let prepare ?(params = []) ?generic_join source =
  match Parser.parse_program source with
  | exception Dcd_datalog.Lexer.Lex_error e -> Error e
  | exception Parser.Parse_error e -> Error e
  | program -> (
    match Analysis.analyze program with
    | Error e -> Error e
    | Ok info -> (
      match Physical.compile ~params ?generic_join info with
      | Error e -> Error e
      | Ok plan -> Ok { source; info; plan }))

let run prepared ~edb ?(config = default_config) () =
  Parallel.run prepared.plan ~edb ~config

let try_run prepared ~edb ?(config = default_config) () =
  match Parallel.run prepared.plan ~edb ~config with
  | result -> Ok result
  | exception Engine_error.Error e -> Error e

let query ?params ?generic_join ?config source ~edb =
  match prepare ?params ?generic_join source with
  | Error e -> Error e
  | Ok prepared -> Ok (run prepared ~edb ?config ())

let relation result name =
  Parallel.relation_vec result name
  |> Vec.to_list
  |> List.map Array.to_list
  |> List.sort compare

let relation_count result name = Vec.length (Parallel.relation_vec result name)

let tuples rows = Vec.of_list (List.map Array.of_list rows)

let open_session prepared ~edb ?config () =
  Session.open_session ~plan:prepared.plan ~edb ?config ()

let explain prepared = Physical.explain prepared.plan

let pcg_string prepared ~root =
  Format.asprintf "%a" Pcg.pp (Pcg.of_program prepared.info ~root)
