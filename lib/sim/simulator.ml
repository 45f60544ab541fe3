module Vec = Dcd_util.Vec
module Heap = Dcd_util.Heap
module Coord = Dcd_engine.Coord
module Qmodel = Dcd_engine.Qmodel
module Graph = Dcd_workload.Graph

type params = {
  cost_per_tuple : float;
  edge_cost : float;
  iteration_overhead : float;
  barrier_cost : float;
  sync_exchange_cost : float;
  send_latency : float;
}

let default_params =
  {
    cost_per_tuple = 0.25;
    edge_cost = 1.0;
    iteration_overhead = 2.0;
    barrier_cost = 2.0;
    sync_exchange_cost = 0.25;
    send_latency = 0.5;
  }

type spec = {
  workers : int;
  nvertices : int;
  owner : int -> int;
  init : (int * int) list;
  relax : int -> int -> (int * int) list;
  degree : int -> int; (* join fan-out of relaxing this vertex *)
  better : int -> int -> bool; (* better old_value new_value *)
}

let hash_owner workers v =
  let h = v * 0x1E3779B97F4A7C15 in
  (h lsr 17) land max_int mod workers

let adjacency ?(symmetric = false) g =
  let n = max (Graph.n g) (Graph.max_vertex g + 1) in
  let adj = Array.make n [] in
  Vec.iter
    (fun (u, v, w) ->
      adj.(u) <- (v, w) :: adj.(u);
      if symmetric then adj.(v) <- (u, w) :: adj.(v))
    (Graph.edges g);
  adj

let cc ~graph ~workers =
  let adj = adjacency ~symmetric:true graph in
  let n = Array.length adj in
  let init = ref [] in
  for v = n - 1 downto 0 do
    if adj.(v) <> [] then init := (v, v) :: !init
  done;
  {
    workers;
    nvertices = n;
    owner = hash_owner workers;
    init = !init;
    relax = (fun v label -> List.map (fun (u, _) -> (u, label)) adj.(v));
    degree = (fun v -> List.length adj.(v));
    better = (fun old_v new_v -> new_v < old_v);
  }

let sssp ~graph ~source ~workers =
  let adj = adjacency graph in
  {
    workers;
    nvertices = Array.length adj;
    owner = hash_owner workers;
    init = [ (source, 0) ];
    relax = (fun v d -> List.map (fun (u, w) -> (u, d + w)) adj.(v));
    degree = (fun v -> List.length adj.(v));
    better = (fun old_v new_v -> new_v < old_v);
  }

let bfs ~graph ~source ~workers =
  let adj = adjacency graph in
  {
    workers;
    nvertices = Array.length adj;
    owner = hash_owner workers;
    init = [ (source, 0) ];
    relax = (fun v d -> List.map (fun (u, _) -> (u, d + 1)) adj.(v));
    degree = (fun v -> List.length adj.(v));
    better = (fun old_v new_v -> new_v < old_v);
  }

let custom_owner spec ~owner = { spec with owner }

type outcome = {
  makespan : float;
  busy : float array;
  idle : float array;
  iterations : int array;
  tuples_processed : int;
  correct_values : int;
  values : int option array;
}

(* shared absorb machinery *)

type common = {
  best : int option array;
  deltas : (int * int) Vec.t array;
  mutable processed : int;
}

let make_common spec =
  {
    best = Array.make spec.nvertices None;
    deltas = Array.init spec.workers (fun _ -> Vec.create ());
    processed = 0;
  }

(* Entries superseded within the same gather are dropped before
   processing: the paper's Gather emits one delta entry per key with its
   current aggregate value (Example 6.1). *)
let compact_delta st delta =
  Vec.filter_in_place (fun (v, value) -> st.best.(v) = Some value) delta

let batch_cost spec params delta =
  params.iteration_overhead
  +. Vec.fold
       (fun acc (v, _) ->
         acc +. params.cost_per_tuple +. (params.edge_cost *. float_of_int (spec.degree v)))
       0. delta

let absorb spec st w (v, value) =
  let fresh =
    match st.best.(v) with
    | None -> true
    | Some old_v -> spec.better old_v value
  in
  if fresh then begin
    st.best.(v) <- Some value;
    Vec.push st.deltas.(w) (v, value)
  end

let finish spec st ~makespan ~busy ~iterations =
  let correct = Array.fold_left (fun acc b -> if b = None then acc else acc + 1) 0 st.best in
  {
    makespan;
    busy;
    idle = Array.map (fun b -> Float.max 0. (makespan -. b)) busy;
    iterations;
    tuples_processed = st.processed;
    correct_values = correct;
    values = st.best;
  }
  [@@warning "-27"]

(* --- Global: barrier rounds (Algorithm 1) --- *)

let run_global spec ~params =
  let st = make_common spec in
  let busy = Array.make spec.workers 0. in
  let iterations = Array.make spec.workers 0 in
  let incoming = Array.init spec.workers (fun _ -> Vec.create ()) in
  List.iter (fun (v, value) -> Vec.push incoming.(spec.owner v) (v, value)) spec.init;
  let makespan = ref 0. in
  let continue_ = ref true in
  while !continue_ do
    (* gather: merge this round's messages into the stores *)
    for w = 0 to spec.workers - 1 do
      Vec.iter (fun item -> absorb spec st w item) incoming.(w);
      Vec.clear incoming.(w)
    done;
    let total_delta = Array.fold_left (fun acc d -> acc + Vec.length d) 0 st.deltas in
    if total_delta = 0 then continue_ := false
    else begin
      let round_max = ref 0. in
      let exchanged = ref 0 in
      for w = 0 to spec.workers - 1 do
        let delta = st.deltas.(w) in
        compact_delta st delta;
        if not (Vec.is_empty delta) then begin
          let cost = batch_cost spec params delta in
          busy.(w) <- busy.(w) +. cost;
          iterations.(w) <- iterations.(w) + 1;
          round_max := Float.max !round_max cost;
          st.processed <- st.processed + Vec.length delta;
          Vec.iter
            (fun (v, value) ->
              List.iter
                (fun (u, value') ->
                  incr exchanged;
                  Vec.push incoming.(spec.owner u) (u, value'))
                (spec.relax v value))
            delta;
          Vec.clear delta
        end
      done;
      (* everyone waits for the slowest, then pays the barrier plus the
         lock-serialized exchange of the round's tuples (the coordination
         overhead of barrier engines the paper's SS6.1 argues against;
         DWS exchanges through per-pair SPSC queues instead) *)
      makespan :=
        !makespan +. !round_max +. params.barrier_cost
        +. (params.sync_exchange_cost *. float_of_int !exchanged)
    end
  done;
  finish spec st ~makespan:!makespan ~busy ~iterations

(* --- event-driven simulation for SSP and DWS --- *)

type worker_sim = {
  inbox : (float * int * int) Heap.t; (* arrival, vertex, value *)
  mutable clock : float;
  mutable iter : int;
  qm : Qmodel.t;
  mutable wait_deadline : float; (* DWS: forced-proceed time; nan = none *)
}

let run_async spec ~strategy ~params =
  let st = make_common spec in
  let busy = Array.make spec.workers 0. in
  let ws =
    Array.init spec.workers (fun _ ->
        {
          inbox = Heap.create ~cmp:(fun (a, _, _) (b, _, _) -> Float.compare a b) ();
          clock = 0.;
          iter = 0;
          qm = Qmodel.create ~producers:1 ();
          wait_deadline = nan;
        })
  in
  List.iter (fun (v, value) -> Heap.push ws.(spec.owner v).inbox (0., v, value)) spec.init;
  let has_work w =
    (not (Vec.is_empty st.deltas.(w))) || not (Heap.is_empty ws.(w).inbox)
  in
  (* time at which worker w could next act; nan if it has nothing *)
  let act_time w =
    if not (Vec.is_empty st.deltas.(w)) then ws.(w).clock
    else
      match Heap.peek ws.(w).inbox with
      | Some (arrival, _, _) -> Float.max arrival ws.(w).clock
      | None -> nan
  in
  let continue_ = ref true in
  while !continue_ do
    (* pick the earliest actionable worker *)
    let wsel = ref (-1) and tsel = ref infinity in
    for w = 0 to spec.workers - 1 do
      let t = act_time w in
      if (not (Float.is_nan t)) && t < !tsel then begin
        tsel := t;
        wsel := w
      end
    done;
    if !wsel < 0 then continue_ := false
    else begin
      let w = !wsel in
      let sim = ws.(w) in
      sim.clock <- Float.max sim.clock !tsel;
      (* drain everything that has arrived *)
      let drained = ref 0 in
      let rec drain () =
        match Heap.peek sim.inbox with
        | Some (arrival, v, value) when arrival <= sim.clock ->
          ignore (Heap.pop sim.inbox);
          absorb spec st w (v, value);
          incr drained;
          drain ()
        | Some _ | None -> ()
      in
      drain ();
      if !drained > 0 then
        Qmodel.record_arrival sim.qm ~from:0 ~now:sim.clock ~count:!drained;
      let dsize = Vec.length st.deltas.(w) in
      if dsize = 0 then ()
      else begin
        (* strategy gate *)
        let proceed =
          match strategy with
          | Coord.Global -> true (* not used on this path *)
          | Coord.Ssp s ->
            let min_iter = ref sim.iter in
            for j = 0 to spec.workers - 1 do
              if j <> w && has_work j then min_iter := min !min_iter ws.(j).iter
            done;
            if sim.iter - !min_iter > s then begin
              (* blocked by a straggler: wait for it to move *)
              let gate_t = ref infinity in
              for j = 0 to spec.workers - 1 do
                if j <> w && has_work j && ws.(j).iter <= sim.iter - s - 1 then begin
                  let t = act_time j in
                  if not (Float.is_nan t) then gate_t := Float.min !gate_t t
                end
              done;
              if !gate_t = infinity then true
              else begin
                sim.clock <- Float.max sim.clock (!gate_t +. 1e-9);
                false
              end
            end
            else true
          | Coord.Dws ->
            if (not (Float.is_nan sim.wait_deadline)) && sim.clock >= sim.wait_deadline then begin
              sim.wait_deadline <- nan;
              true
            end
            else begin
              let decision =
                Qmodel.decide sim.qm ~buffer_sizes:[| Heap.length sim.inbox |]
              in
              if float_of_int dsize >= decision.omega then begin
                sim.wait_deadline <- nan;
                true
              end
              else begin
                (* wait for more input, up to τ (capped) *)
                if Float.is_nan sim.wait_deadline then
                  sim.wait_deadline <-
                    sim.clock +. Float.min decision.tau (Coord.dws_tau_cap *. 1000.);
                let next_arrival =
                  match Heap.peek sim.inbox with
                  | Some (arrival, _, _) -> Float.max arrival (sim.clock +. 1e-9)
                  | None -> sim.wait_deadline
                in
                sim.clock <- Float.min sim.wait_deadline next_arrival;
                sim.clock >= sim.wait_deadline
              end
            end
        in
        if proceed then begin
          let delta = st.deltas.(w) in
          compact_delta st delta;
          let cost = batch_cost spec params delta in
          let t_end = sim.clock +. cost in
          busy.(w) <- busy.(w) +. cost;
          st.processed <- st.processed + Vec.length delta;
          Vec.iter
            (fun (v, value) ->
              List.iter
                (fun (u, value') ->
                  Heap.push ws.(spec.owner u).inbox (t_end +. params.send_latency, u, value'))
                (spec.relax v value))
            delta;
          Vec.clear delta;
          sim.clock <- t_end;
          sim.iter <- sim.iter + 1;
          Qmodel.record_service sim.qm ~tuples:dsize ~elapsed:cost
        end
      end
    end
  done;
  let makespan = Array.fold_left (fun acc s -> Float.max acc s.clock) 0. ws in
  finish spec st ~makespan ~busy ~iterations:(Array.map (fun s -> s.iter) ws)

let run spec ~strategy ~params =
  match strategy with
  | Coord.Global -> run_global spec ~params
  | Coord.Ssp _ | Coord.Dws -> run_async spec ~strategy ~params

let speedup_curve make_spec ~strategy ~params ~workers =
  let base = (run (make_spec ~workers:1) ~strategy ~params).makespan in
  List.map
    (fun w ->
      let o = run (make_spec ~workers:w) ~strategy ~params in
      (w, base /. o.makespan))
    workers
