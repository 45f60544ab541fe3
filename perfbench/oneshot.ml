(* One-shot workloads: each rep loads the dataset from an edge-list file,
   prepares the program (parse, analyze, compile) and evaluates it to
   the fixpoint with [Dcdatalog.run]; a client then reads the answer
   with point lookups ([Relation.mem]) and prefix scans
   ([Relation.iter_prefix]).  Every rep's whole answer and every read is
   compared with the oracle, outside the timed regions.

   The seed relabels the dataset's vertices with a random permutation:
   the graph, its answer sizes and the query's work stay those of the
   named dataset, while partition placement and the read keys change
   with the seed. *)

module D = Dcdatalog
module Rng = Dcd_util.Rng
open Perfbench

type spec = {
  name : string;
  query : D.Queries.spec;
  dataset : unit -> D.Graph.t;
  weighted : bool;  (** [warc(u, v, w)] input instead of [arc(u, v)] *)
  lookups : int;  (** point reads per rep *)
  scans : int;  (** prefix reads per rep *)
}

let tc_rmat600 =
  {
    name = "tc-rmat600";
    query = D.Queries.tc;
    dataset = (fun () -> D.Datasets.rmat 600);
    weighted = false;
    lookups = 1000;
    scans = 10;
  }

let sssp_arabic =
  {
    name = "sssp-arabic";
    query = D.Queries.sssp;
    dataset = (fun () -> Lazy.force D.Datasets.arabic_sim.D.Datasets.graph);
    weighted = true;
    lookups = 1000;
    scans = 20;
  }

(* The relabeled dataset on disk, the program parameters, and the
   oracle's answer as ascending codes [a * base + b]. *)
type input = {
  path : string;
  params : (string * int) list;
  vertices : int;
  base : int;
  answer : int array;
  bmax : int;  (** second-column range for absent lookup keys *)
}

let make_input (ctx : Bench.ctx) spec =
  let g = spec.dataset () in
  let n = D.Graph.n g in
  let perm = Array.init n Fun.id in
  Rng.shuffle (Rng.create ctx.Bench.seed) perm;
  let edges = Array.map (fun (u, v, w) -> (perm.(u), perm.(v), w)) (D.Vec.to_array (D.Graph.edges g)) in
  let path = Filename.concat ctx.Bench.out_dir (Printf.sprintf "%s-%d.edges" spec.name ctx.Bench.seed) in
  let oc = open_out path in
  Array.iter
    (fun (u, v, w) ->
      if spec.weighted then Printf.fprintf oc "%d %d %d\n" u v w else Printf.fprintf oc "%d %d\n" u v)
    edges;
  close_out oc;
  if spec.weighted then begin
    let start = perm.(0) in
    let dist = Oracle.dijkstra ~n edges ~src:start in
    let base = 1 lsl 32 in
    let answer = ref [] and bmax = ref 1 in
    for v = n - 1 downto 0 do
      if dist.(v) < max_int then begin
        answer := ((v * base) + dist.(v)) :: !answer;
        bmax := max !bmax (dist.(v) + 1)
      end
    done;
    { path; params = [ ("start", start) ]; vertices = n; base; answer = Array.of_list !answer;
      bmax = !bmax }
  end
  else
    let adj = Oracle.adjacency ~n (Array.map (fun (u, v, _) -> (u, v)) edges) in
    { path; params = spec.query.D.Queries.default_params; vertices = n; base = n;
      answer = Oracle.closure_codes adj; bmax = n }

(* a lookup key: half the time a tuple of the answer when the drawn
   vertex has one, otherwise a uniform (mostly absent) pair *)
let probe rng input =
  let a = Rng.int rng input.vertices in
  let row = Oracle.codes_with_prefix input.answer ~base:input.base a in
  if Array.length row > 0 && Rng.bool rng then (a, row.(Rng.int rng (Array.length row)))
  else (a, Rng.int rng input.bmax)

(* One rep, op id [op]; returns the result so the caller can hold it.
   With [timed] the rep's times and counters enter the record. *)
let rep (ctx : Bench.ctx) spec input rng ~op ~timed =
  (* collect the previous rep and its checks first, so the engine never
     pays for the benchmark's own garbage *)
  Gc.full_major ();
  let sp = ctx.Bench.spans in
  sp.Spans.on <- ctx.Bench.trace && timed && op land 1 = 1;
  let span name f = Spans.with_span sp ~op name f in
  let add name v = if timed then Record.add ctx.Bench.record name v in
  let source = spec.query.D.Queries.source in
  let t0 = Nclock.now () in
  let graph = span "loader.edges_of_file" (fun () -> D.Loader.edges_of_file input.path) in
  let edb =
    span "queries.edb" (fun () ->
        if spec.weighted then D.Queries.warc_edb graph else D.Queries.arc_edb graph)
  in
  let ast = span "parser.parse_program" (fun () -> D.Parser.parse_program source) in
  let info = span "analysis.analyze" (fun () -> Bench.ok_or_fail (D.Analysis.analyze ast)) in
  let plan =
    span "physical.compile" (fun () ->
        Bench.ok_or_fail (D.Physical.compile ~params:input.params info))
  in
  let t1 = Nclock.now () in
  let result =
    span "dcdatalog.run" (fun () ->
        D.run { D.source; info; plan } ~edb ~config:ctx.Bench.config ())
  in
  let t2 = Nclock.now () in
  let run_span = if sp.Spans.on then sp.Spans.last else -1 in
  add "setup_s" (Nclock.s_of_ns (t1 - t0));
  add "fixpoint_ms" (Nclock.s_of_ns (t2 - t1) *. 1e3);
  let output = spec.query.D.Queries.output in
  let rel = D.Catalog.get result.D.Parallel.catalog output in
  for _ = 1 to spec.lookups do
    let a, b = probe rng input in
    let key = [| a; b |] in
    let present, dt = Bench.time (fun () -> span "relation.mem" (fun () -> D.Relation.mem rel key)) in
    add "lookup_us" (dt *. 1e6);
    add (if sp.Spans.on then "traced.lookup_us" else "untraced.lookup_us") (dt *. 1e6);
    Bench.check ctx
      (present = Oracle.codes_mem input.answer ~base:input.base a b)
      (Printf.sprintf "%s: lookup %s(%d,%d)" spec.name output a b)
  done;
  for _ = 1 to spec.scans do
    let a = Rng.int rng input.vertices in
    let got, dt =
      Bench.time (fun () ->
          span "relation.iter_prefix" (fun () ->
              let acc = ref [] in
              D.Relation.iter_prefix rel ~prefix:[| a |] (fun t -> acc := t.(1) :: !acc);
              !acc))
    in
    add "scan_us" (dt *. 1e6);
    add "scan.tuples" (float_of_int (List.length got));
    let got = Array.of_list (List.sort Int.compare got) in
    Bench.check ctx
      (got = Oracle.codes_with_prefix input.answer ~base:input.base a)
      (Printf.sprintf "%s: scan %s(%d)" spec.name output a)
  done;
  sp.Spans.on <- false;
  Bench.check ctx
    (Oracle.codes_of_relation rel ~base:input.base = input.answer)
    (Printf.sprintf "%s: fixpoint of rep %d differs from the oracle (%d vs %d tuples)" spec.name
       op (D.Relation.length rel) (Array.length input.answer));
  if timed then
    Bench.engine_layers ctx ~parent:run_span result.D.Parallel.stats
      ~output:(Array.length input.answer);
  result

let run (ctx : Bench.ctx) spec =
  let input = make_input ctx spec in
  (* reads draw from their own generator, apart from the dataset's *)
  let rng = Rng.create (ctx.Bench.seed lxor 0x5ca1ab1e) in
  let attempt ~op ~timed =
    match rep ctx spec input rng ~op ~timed with
    | result -> Some result
    | exception e ->
      Bench.fail ctx (Printf.sprintf "%s: rep %d raised %s" spec.name op (Printexc.to_string e));
      None
  in
  (* untimed warm-up, which also measures the resident answer *)
  let before = Host.live_mb () in
  let warm = attempt ~op:0 ~timed:false in
  Record.add ctx.Bench.record "resident_mb" (Host.live_mb () -. before);
  ignore (Sys.opaque_identity warm);
  let mark = Host.mark () in
  let start = Nclock.now () in
  let reps = ref 0 in
  while
    !reps = 0
    || Bench.continue ctx ~start
         ~per_item:(Nclock.s_of_ns (Nclock.now () - start) /. float_of_int !reps)
  do
    incr reps;
    ignore (attempt ~op:!reps ~timed:true)
  done;
  Sys.remove input.path;
  (!reps, mark)
