module Stats = Dcd_util.Online_stats

type producer = {
  interarrival : Stats.t;
  mutable last_arrival : float;
  mutable seen : int;
}

type t = {
  producers : producer array;
  service : Stats.t; (* per-tuple service time, sampled per iteration *)
}

let create ~producers () =
  {
    producers =
      Array.init producers (fun _ ->
          { interarrival = Stats.create (); last_arrival = nan; seen = 0 });
    service = Stats.create ();
  }

let record_arrival t ~from ~now ~count =
  if count > 0 then begin
    let p = t.producers.(from) in
    if Float.is_nan p.last_arrival then p.last_arrival <- now
    else begin
      (* spread the batch gap across its tuples: a batch of k tuples
         arriving dt after the previous one approximates k arrivals of
         inter-arrival dt/k *)
      let dt = (now -. p.last_arrival) /. float_of_int count in
      Stats.add p.interarrival dt;
      p.last_arrival <- now
    end;
    p.seen <- p.seen + count
  end

let record_service t ~tuples ~elapsed =
  if tuples > 0 && elapsed > 0. then Stats.add t.service (elapsed /. float_of_int tuples)

type decision = {
  omega : float;
  tau : float;
  rho : float;
}

let no_wait = { omega = 0.; tau = 0.; rho = 0. }

(* Kingman prices waiting as pure idle time.  When the morsel board
   advertises stealable work, a wait pass is productive instead (the
   strategy loop fills it with stolen morsels), so the effective cost
   of waiting halves — modeled by stretching the wait budget τ rather
   than touching ω: the "enough delta to be worth running" threshold is
   about batching efficiency, not about what the wait costs. *)
let stealable_stretch = 2.

let decide ?(stealable = false) t ~buffer_sizes =
  (* Equation 1: combine per-producer arrival processes, weighted by the
     current buffer occupancies |M_i^j|. *)
  let weight_sum = ref 0. in
  let inv_rate_acc = ref 0. in
  let var_acc = ref 0. in
  Array.iteri
    (fun j p ->
      (* |M_i^j| weights the combination; an empty buffer still
         contributes its observed arrival process with unit weight,
         otherwise the model would go blind right after a drain *)
      let w = Float.max 1. (float_of_int buffer_sizes.(j)) in
      if Stats.count p.interarrival >= 2 then begin
        let mean_gap = Stats.mean p.interarrival in
        if mean_gap > 0. then begin
          weight_sum := !weight_sum +. w;
          inv_rate_acc := !inv_rate_acc +. (w *. mean_gap);
          var_acc := !var_acc +. (w *. (Stats.variance p.interarrival +. (mean_gap *. mean_gap)))
        end
      end)
    t.producers;
  if !weight_sum = 0. || Stats.count t.service < 2 then no_wait
  else begin
    let mean_gap = !inv_rate_acc /. !weight_sum in
    let lambda = 1. /. mean_gap in
    let sigma_a2 = Float.max 0. ((!var_acc /. !weight_sum) -. (mean_gap *. mean_gap)) in
    let service_mean = Stats.mean t.service in
    if service_mean <= 0. then no_wait
    else begin
      let mu = 1. /. service_mean in
      let sigma_s2 = Stats.variance t.service in
      let rho = lambda /. mu in
      if rho >= 1. then { no_wait with rho }
      else begin
        (* Equation 2: Kingman *)
        let ca2 = lambda *. lambda *. sigma_a2 in
        let cs2 = mu *. mu *. sigma_s2 in
        let lq = rho *. rho *. (ca2 +. cs2) /. (2. *. (1. -. rho)) in
        let tau = lq /. lambda in
        let tau = if stealable then tau *. stealable_stretch else tau in
        { omega = lq; tau; rho }
      end
    end
  end

let decay t f =
  Array.iter (fun p -> Stats.decay p.interarrival f) t.producers;
  Stats.decay t.service f
