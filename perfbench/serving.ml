(* The serve-churn workload: a resident session over transitive closure
   plus per-source reach counts, driven through the line protocol
   ([Serve.handle]) by one closed-loop client.  Each step sends one
   update that deletes [k] present arcs and inserts [k] absent ones (see
   {!Churn}), then a fixed read mix of point lookups and prefix scans.
   Every reply is checked against the oracle on the current arc set, and
   the whole [tc] and [reach] relations at checkpoints.

   A run is a sequence of epochs, each a fresh session driven for a
   fixed number of steps.  The fixed length keeps the session-age
   profile (DRed overdeletion per batch grows with the number of
   batches a session has absorbed) identical across runs whatever the
   engine's speed, and the repeated opens give [setup_s] a median.
   Every epoch of a run replays exactly the same requests, so a step's
   latency is taken as its fastest replay: on a shared host a
   neighbour's load slows whole stretches of ten seconds or so by up to
   half, and it only ever adds time. *)

module D = Dcdatalog
module R = Dcdatalog.Run_stats
module Rng = Dcd_util.Rng
module Serve = Dcd_serve.Serve
open Perfbench

let scale = 8
let universe = 3000
let present = 1500
let k = 5
let steps = 100
let lookups = 20
let scans = 5
let checkpoint_every = 25

(* a run replays the stream at least this often, so that the fastest
   replay of a step is chosen from several *)
let min_epochs = 4

(* The arc universe, the initial present half and the update stream are
   the same in every epoch of every run, so every run replays the same
   maintenance work: with seed-dependent streams the median update
   latency moved by a third between seeds, because how fast DRed
   overdeletion grows depends on which arcs flip. *)
let stream_seed = 9

let source = D.Queries.tc.D.Queries.source ^ "\nreach(X, count<Y>) <- tc(X, Y)."

(* the maintenance counters diffed per batch *)
type mcount = {
  maintain_s : float;
  overdeleted : int;
  rederived : int;
  changed : int;
  recomputed : int;
  coalesced : int;
  join_s : float;
  morsels : int;
  steals : int;
}

let mcount (m : R.maintenance) =
  let fold f = Array.fold_left f in
  {
    maintain_s = m.R.maintain_s;
    overdeleted = m.R.overdeleted;
    rederived = m.R.rederived;
    changed = m.R.inserted + m.R.deleted;
    recomputed = m.R.recomputed_strata;
    coalesced = m.R.coalesced;
    join_s = fold (fun a w -> a +. w.R.mw_join_s) 0. m.R.mworkers;
    morsels = fold (fun a w -> a + w.R.mw_morsels) 0 m.R.mworkers;
    steals = fold (fun a w -> a + w.R.mw_steals) 0 m.R.mworkers;
  }

let update_line (deleted, inserted) =
  let b = Buffer.create 256 in
  Buffer.add_string b "update";
  Array.iter (fun (x, y) -> Printf.bprintf b " -arc(%d,%d)" x y) deleted;
  Array.iter (fun (x, y) -> Printf.bprintf b " +arc(%d,%d)" x y) inserted;
  Buffer.contents b

let version_of line = Scanf.sscanf_opt line "ok version=%d" Fun.id

(* the whole [tc] and [reach] against the oracle on the current arcs *)
let check_fixpoint (ctx : Bench.ctx) session adj ~where =
  let n = Array.length adj in
  let _, rels = D.Session.snapshot session in
  let rel name = List.assoc name rels in
  Bench.check ctx
    (Oracle.codes_of_relation (rel "tc") ~base:n = Oracle.closure_codes adj)
    (Printf.sprintf "serve-churn: tc differs from the oracle %s" where);
  let base = n + 1 in
  let expected = Array.map (fun (a, c) -> (a * base) + c) (Oracle.reach_counts adj) in
  Bench.check ctx
    (Oracle.codes_of_relation (rel "reach") ~base = expected)
    (Printf.sprintf "serve-churn: reach differs from the oracle %s" where)

(* One epoch; [perm] is the run's relabelling of the vertices, and
   [best.(i)] the fastest latency of update [i + 1] so far, in ms. *)
let epoch (ctx : Bench.ctx) ~perm ~best ~next_op =
  let sp = ctx.Bench.spans in
  let add = Record.add ctx.Bench.record in
  let churn = Churn.create ~seed:stream_seed ~scale ~universe ~present in
  let n = churn.Churn.vertices in
  let relabel = Array.map (fun (a, b) -> (perm.(a), perm.(b))) in
  let present_arcs () = relabel (Churn.present_arcs churn) in
  (* the read keys, from a generator of their own, the same in every epoch *)
  let rng = Rng.create (ctx.Bench.seed lxor 0x5ca1ab1e) in
  let adjacency () = Oracle.adjacency ~n (present_arcs ()) in
  let edb = [ ("arc", D.Vec.of_array (Array.map (fun (a, b) -> [| a; b |]) (present_arcs ()))) ] in
  sp.Spans.on <- ctx.Bench.trace;
  let op = next_op () in
  let span name f = Spans.with_span sp ~op name f in
  let ast = span "parser.parse_program" (fun () -> D.Parser.parse_program source) in
  let info = span "analysis.analyze" (fun () -> Bench.ok_or_fail (D.Analysis.analyze ast)) in
  let plan = span "physical.compile" (fun () -> Bench.ok_or_fail (D.Physical.compile info)) in
  let before = Host.live_mb () in
  let session, open_s =
    Bench.time (fun () ->
        span "dcdatalog.open_session" (fun () ->
            D.open_session { D.source; info; plan } ~edb ~config:ctx.Bench.config ()))
  in
  let open_span = if sp.Spans.on then sp.Spans.last else -1 in
  sp.Spans.on <- false;
  add "setup_s" open_s;
  let st = D.Session.stats session in
  let initial = st.R.total_wall in
  add "session.open_s" open_s;
  add "session.initial_fixpoint_s" initial;
  let init_span = Spans.measured sp ~parent:open_span "session.initial_fixpoint" initial in
  Bench.engine_layers ctx ~parent:init_span st ~output:(snd (D.Session.count session "tc"));
  Fun.protect ~finally:(fun () -> D.Session.close session) @@ fun () ->
  let opened = Host.live_mb () in
  check_fixpoint ctx session (adjacency ()) ~where:"at open";
  let m = st.R.maintenance in
  for step = 1 to steps do
    let traced = ctx.Bench.trace && step land 1 = 1 in
    sp.Spans.on <- traced;
    let deleted, inserted = Churn.step churn ~k in
    let line = update_line (relabel deleted, relabel inserted) in
    let c0 = mcount m in
    let op = next_op () in
    let reply, dt =
      Bench.time (fun () -> Spans.with_span sp ~op "serve.update" (fun () -> Serve.handle session line))
    in
    let c1 = mcount m in
    let apply = c1.maintain_s -. c0.maintain_s in
    if traced then ignore (Spans.measured sp ~parent:sp.Spans.last "maintain.apply" apply);
    add "update_ms" (dt *. 1e3);
    best.(step - 1) <- Float.min best.(step - 1) (dt *. 1e3);
    add "maintain.apply_ms" (apply *. 1e3);
    add "maintain.join_s" (c1.join_s -. c0.join_s);
    add "maintain.morsels" (float_of_int (c1.morsels - c0.morsels));
    add "maintain.steals" (float_of_int (c1.steals - c0.steals));
    let od = c1.overdeleted - c0.overdeleted in
    add "maintain.overdeleted" (float_of_int od);
    add "maintain.rederived" (float_of_int (c1.rederived - c0.rederived));
    add "maintain.derived_changed" (float_of_int (c1.changed - c0.changed));
    add "maintain.recomputed_strata" (float_of_int (c1.recomputed - c0.recomputed));
    add "session.coalesced" (float_of_int (c1.coalesced - c0.coalesced));
    if step <= steps / 4 then add "age.first_quarter" (float_of_int od)
    else if step > steps - (steps / 4) then add "age.last_quarter" (float_of_int od);
    (match reply with
    | [ l ] when version_of l = Some step -> Bench.check ctx true ""
    | l -> Bench.fail ctx (Printf.sprintf "serve-churn: %s -> %s" line (String.concat " | " l)));
    let adj = adjacency () in
    let reach = Hashtbl.create 32 in
    let reach_of a =
      match Hashtbl.find_opt reach a with
      | Some r -> r
      | None ->
        let r = Oracle.reach adj a in
        Hashtbl.add reach a r;
        r
    in
    let request kind line =
      let op = next_op () in
      Bench.time (fun () -> Spans.with_span sp ~op kind (fun () -> Serve.handle session line))
    in
    for _ = 1 to lookups do
      let a = Rng.int rng n and b = Rng.int rng n in
      let q = Printf.sprintf "lookup tc(%d,%d)" a b in
      let reply, dt = request "serve.lookup" q in
      add "lookup_us" (dt *. 1e6);
      add (if traced then "traced.lookup_us" else "untraced.lookup_us") (dt *. 1e6);
      let expected = Printf.sprintf "present=%b" (Array.mem b (reach_of a)) in
      match reply with
      | [ l ] when version_of l = Some step && String.ends_with ~suffix:expected l ->
        Bench.check ctx true ""
      | l -> Bench.fail ctx (Printf.sprintf "serve-churn: %s -> %s" q (String.concat " | " l))
    done;
    for _ = 1 to scans do
      let a = Rng.int rng n in
      let q = Printf.sprintf "scan tc(%d)" a in
      let reply, dt = request "serve.scan" q in
      add "scan_us" (dt *. 1e6);
      let expected = reach_of a in
      add "scan.tuples" (float_of_int (Array.length expected));
      let got =
        match reply with
        | head :: rows when version_of head = Some step -> (
          try Some (Array.of_list (List.map (fun r -> Scanf.sscanf r "tc(%d,%d)" (fun _ b -> b)) rows))
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
        | _ -> None
      in
      Bench.check ctx (got = Some expected)
        (Printf.sprintf "serve-churn: %s -> %s" q (String.concat " | " reply))
    done;
    sp.Spans.on <- false;
    if step mod checkpoint_every = 0 then begin
      check_fixpoint ctx session adj ~where:(Printf.sprintf "after step %d" step);
      Gc.full_major ()
    end
  done;
  let final = Host.live_mb () in
  add "resident_mb" (final -. before);
  add "session.resident_growth_mb" (final -. opened)

let run (ctx : Bench.ctx) =
  let op = ref 0 in
  let next_op () =
    incr op;
    !op
  in
  (* the seed relabels the vertices, once for the whole run *)
  let perm = Array.init (1 lsl scale) Fun.id in
  Rng.shuffle (Rng.create ctx.Bench.seed) perm;
  let best = Array.make steps infinity in
  let mark = Host.mark () in
  let start = Nclock.now () in
  let epochs = ref 0 in
  while
    !epochs < min_epochs
    || Bench.continue ctx ~start
         ~per_item:(Nclock.s_of_ns (Nclock.now () - start) /. float_of_int !epochs)
  do
    (match epoch ctx ~perm ~best ~next_op with
    | () -> ()
    | exception e ->
      Bench.fail ctx (Printf.sprintf "serve-churn: epoch %d raised %s" !epochs (Printexc.to_string e)));
    incr epochs
  done;
  Array.iter (fun ms -> if Float.is_finite ms then Record.add ctx.Bench.record "fixpoint_ms" ms) best;
  (!epochs * steps, mark)
