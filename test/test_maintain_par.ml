(* Parallel incremental maintenance (compiled kernels + pool-resident
   delta joins + writer coalescing): differential grids that pit the
   parallel maintenance rounds against both the same kernels run inline
   (maintain_workers = 1) and a cold naive-oracle recompute, with the
   DRed support invariant checked after every batch; the DRed brake's
   overdeletion counts and their stability over a long churn session;
   a concurrency property for writer coalescing; and the
   poisoned-session regression. *)

module D = Dcdatalog
module Fault = Dcd_concurrent.Fault

let reachstats_src =
  "reach(Y) <- src(Y).\n\
   reach(Y) <- reach(X), arc(X, Y).\n\
   deg(X, count<Y>) <- reach(X), arc(X, Y).\n\
   busiest(max<N>) <- deg(X, N)."

let prepare src =
  match D.prepare src with
  | Ok p -> p
  | Error e -> failwith e

let rows_of_tuples ts = List.sort compare (List.map Array.to_list ts)

let oracle_fixpoint src base outputs =
  let oracle = D.Naive.run (D.Parser.parse_program src) ~edb:base in
  List.map
    (fun out ->
      match List.assoc_opt out oracle with
      | Some rows -> (out, rows_of_tuples rows)
      | None -> (out, []))
    outputs

let session_fixpoint session outputs =
  List.map (fun out -> (out, rows_of_tuples (snd (D.Session.scan session out)))) outputs

(* Mixed batches big enough to push the delta arenas past the morsel
   threshold, so the grid actually exercises pool rounds rather than the
   inline compiled path alone.  Deletes are biased toward tuples known
   present so DRed overdeletion cascades fire. *)
let gen_batches rng ~preds ~nodes ~batches ~ops =
  let present = Hashtbl.create 256 in
  List.init batches (fun _ ->
      List.init ops (fun _ ->
          let pred, arity = List.nth preds (Dcd_util.Rng.int rng (List.length preds)) in
          let tup () = Array.init arity (fun _ -> Dcd_util.Rng.int rng nodes) in
          if Dcd_util.Rng.int rng 3 = 0 && Hashtbl.length present > 0 then begin
            let victim =
              Hashtbl.fold (fun k () acc -> if acc = None then Some k else acc) present None
            in
            match victim with
            | Some ((p, row) as k) ->
              Hashtbl.remove present k;
              D.Maintain.Delete (p, Array.of_list row)
            | None -> D.Maintain.Insert (pred, tup ())
          end
          else begin
            let t = tup () in
            Hashtbl.replace present (pred, Array.to_list t) ();
            D.Maintain.Insert (pred, t)
          end))

(* One cell: the parallel session and the inline (maintain_workers = 1)
   session apply the same schedule; after every batch both fixpoints
   must agree with each other and with the oracle's cold recompute, and
   both sessions must keep the DRed support invariant. *)
let run_cell ~src ~outputs ~initial ~batches ~config =
  let prepared = prepare src in
  let edb () = List.map (fun (n, rows) -> (n, D.Vec.of_list rows)) initial in
  let par = D.open_session prepared ~edb:(edb ()) ~config () in
  let seq =
    D.open_session prepared ~edb:(edb ())
      ~config:{ config with D.maintain_workers = 1 }
      ()
  in
  let base = Hashtbl.create 256 in
  List.iter
    (fun (n, rows) -> List.iter (fun r -> Hashtbl.replace base (n, Array.to_list r) ()) rows)
    initial;
  let fail = ref None in
  List.iteri
    (fun bi batch ->
      if !fail = None then begin
        List.iter
          (fun u ->
            match u with
            | D.Maintain.Insert (n, t) -> Hashtbl.replace base (n, Array.to_list t) ()
            | D.Maintain.Delete (n, t) -> Hashtbl.remove base (n, Array.to_list t))
          batch;
        ignore (D.Session.apply_batch par batch);
        ignore (D.Session.apply_batch seq batch);
        let got_par = session_fixpoint par outputs in
        let got_seq = session_fixpoint seq outputs in
        let broken =
          List.find_map
            (fun (what, s) ->
              match D.Session.check_invariants s with
              | Ok () -> None
              | Error e -> Some (what ^ ": " ^ e))
            [ ("parallel", par); ("sequential", seq) ]
        in
        if broken <> None then
          fail := Some (Printf.sprintf "batch %d: %s" bi (Option.get broken))
        else if got_par <> got_seq then
          fail := Some (Printf.sprintf "batch %d: parallel diverged from sequential" bi)
        else begin
          let cur_base =
            List.map
              (fun (n, _) ->
                ( n,
                  Hashtbl.fold
                    (fun (n', row) () acc -> if n' = n then Array.of_list row :: acc else acc)
                    base [] ))
              initial
          in
          if got_par <> oracle_fixpoint src cur_base outputs then
            fail := Some (Printf.sprintf "batch %d: parallel diverged from cold oracle" bi)
        end
      end)
    batches;
  D.Session.close par;
  D.Session.close seq;
  match !fail with
  | Some msg -> failwith msg
  | None -> ()

let grid_cells =
  List.concat_map
    (fun strategy ->
      List.concat_map
        (fun steal -> List.map (fun mw -> (strategy, steal, mw)) [ 1; 4 ])
        [ false; true ])
    [ D.Coord.Global; D.Coord.Ssp 2; D.Coord.Dws ]

let mk_edges rng n m = List.init m (fun _ -> [| Dcd_util.Rng.int rng n; Dcd_util.Rng.int rng n |])

let diff_case name src outputs initial preds seed () =
  let rng = Dcd_util.Rng.create seed in
  List.iter
    (fun (strategy, steal, mw) ->
      let batches = gen_batches rng ~preds ~nodes:40 ~batches:2 ~ops:320 in
      try
        run_cell ~src ~outputs ~initial ~batches
          ~config:{ D.default_config with strategy; steal; workers = 4; maintain_workers = mw }
      with Failure msg ->
        Alcotest.failf "%s: %s (strategy=%s steal=%b maintain_workers=%d)" name msg
          (D.Coord.to_string strategy) steal mw)
    grid_cells

let tc_grid () =
  let rng = Dcd_util.Rng.create 31 in
  diff_case "tc" D.Queries.tc.source [ "tc" ] [ ("arc", mk_edges rng 40 80) ] [ ("arc", 2) ] 211 ()

let cc_grid () =
  let rng = Dcd_util.Rng.create 37 in
  diff_case "cc" D.Queries.cc.source [ "cc2"; "cc" ]
    [ ("arc", mk_edges rng 40 80) ]
    [ ("arc", 2) ]
    223 ()

let reachstats_grid () =
  let rng = Dcd_util.Rng.create 41 in
  diff_case "reachstats" reachstats_src
    [ "reach"; "deg"; "busiest" ]
    [ ("arc", mk_edges rng 40 80); ("src", [ [| 0 |]; [| 3 |] ]) ]
    [ ("arc", 2); ("src", 1) ]
    227 ()

(* --- the DRed brake --- *)

(* Oracle grids see only that the fixpoint came out right, not how much
   DRed overdeleted on the way.  On TC over the complete digraph on 10
   vertices every closure tuple keeps rank-decreasing support after a
   couple of arc deletions, so the support counts must stop the cascade
   at the tuples whose own base derivation died — each is overdeleted
   and rederived, and nothing else moves.  The two rederived tuples,
   tc(0,1) and tc(2,3), come back with their support recounted exactly
   (eight derivations each), so deleting all of vertex 5's out-arcs
   next costs them one support each and overdeletes exactly the ten
   closure tuples that really die, with nothing to rederive. *)
let test_dred_brake () =
  let vertices = List.init 10 Fun.id in
  let arcs =
    List.concat_map
      (fun i -> List.filter_map (fun j -> if i <> j then Some [| i; j |] else None) vertices)
      vertices
  in
  let prepared = prepare D.Queries.tc.source in
  List.iter
    (fun (workers, mw) ->
      let s =
        D.open_session prepared
          ~edb:[ ("arc", D.Vec.of_list arcs) ]
          ~config:{ D.default_config with workers; maintain_workers = mw }
          ()
      in
      let check what expected (r : D.Maintain.batch_report) =
        Alcotest.(check (triple int int int))
          (Printf.sprintf "%s: overdeleted, rederived, derived deleted at (%d,%d)" what workers
             mw)
          expected
          (r.D.Maintain.br_overdeleted, r.D.Maintain.br_rederived,
           r.D.Maintain.br_derived_deleted)
      in
      check "arc(0,1), arc(2,3)" (2, 2, 0)
        (D.Session.apply_batch s
           [ D.Maintain.Delete ("arc", [| 0; 1 |]); D.Maintain.Delete ("arc", [| 2; 3 |]) ]);
      check "vertex 5's out-arcs" (10, 0, 10)
        (D.Session.apply_batch s
           (List.filter_map
              (fun j -> if j <> 5 then Some (D.Maintain.Delete ("arc", [| 5; j |])) else None)
              vertices));
      Alcotest.(check int) "tc size" 90 (snd (D.Session.count s "tc"));
      D.Session.close s)
    [ (1, 1); (2, 2); (4, 4) ]

(* --- churn stability: the brake must not wear off with session age --- *)

(* A long session of small mixed batches.  Every batch's useful delta is
   about the same size, so overdeletion per batch must stay about flat
   too: supports that decayed with every rederivation would make the
   last batches overdelete several times what the first ones did.  The
   schedule is fixed; only fresh-rank order may differ across cells, so
   each cell is held to the ratio, not to identical counts. *)
let churn_schedule () =
  let rng = Dcd_util.Rng.create 67 in
  let vertices = 128 and universe = 1200 and present = 600 and k = 4 in
  let seen = Hashtbl.create universe in
  let arcs = ref [] in
  while Hashtbl.length seen < universe do
    let a = Dcd_util.Rng.int rng vertices and b = Dcd_util.Rng.int rng vertices in
    if a <> b && not (Hashtbl.mem seen (a, b)) then begin
      Hashtbl.add seen (a, b) ();
      arcs := [| a; b |] :: !arcs
    end
  done;
  let arcs = Array.of_list !arcs in
  let on = Array.sub arcs 0 present and off = Array.sub arcs present (universe - present) in
  let initial = Array.to_list on in
  (* moves [k] distinct random picks to the tail of [pool] and returns them *)
  let pick pool =
    let n = Array.length pool in
    List.init k (fun j ->
        let i = Dcd_util.Rng.int rng (n - j) in
        let t = pool.(i) in
        pool.(i) <- pool.(n - 1 - j);
        pool.(n - 1 - j) <- t;
        t)
  in
  let batches =
    List.init 40 (fun _ ->
        let dels = pick on and ins = pick off in
        List.iteri
          (fun j (d, i) ->
            on.(present - 1 - j) <- i;
            off.(universe - present - 1 - j) <- d)
          (List.combine dels ins);
        List.map (fun t -> D.Maintain.Delete ("arc", t)) dels
        @ List.map (fun t -> D.Maintain.Insert ("arc", t)) ins)
  in
  (initial, batches, Array.to_list on)

let test_churn_stability () =
  let initial, batches, final = churn_schedule () in
  let prepared = prepare D.Queries.tc.source in
  let want = oracle_fixpoint D.Queries.tc.source [ ("arc", final) ] [ "tc" ] in
  let sum l = List.fold_left ( + ) 0 l in
  List.iter
    (fun (workers, mw) ->
      let s =
        D.open_session prepared
          ~edb:[ ("arc", D.Vec.of_list initial) ]
          ~config:{ D.default_config with workers; maintain_workers = mw }
          ()
      in
      let od =
        List.map (fun b -> (D.Session.apply_batch s b).D.Maintain.br_overdeleted) batches
      in
      let first = sum (List.filteri (fun i _ -> i < 10) od)
      and last = sum (List.filteri (fun i _ -> i >= 30) od) in
      if last > 2 * first then
        Alcotest.failf "overdeletion grew %d -> %d over the session at (%d,%d)" first last workers
          mw;
      (match D.Session.check_invariants s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "support invariant at (%d,%d): %s" workers mw e);
      if session_fixpoint s [ "tc" ] <> want then
        Alcotest.failf "tc differs from the oracle at (%d,%d)" workers mw;
      D.Session.close s)
    [ (1, 1); (2, 2); (4, 4) ]

(* --- writer coalescing: concurrent callers = serialized application --- *)

(* Each caller domain owns a disjoint node range, so the final base
   state is independent of the interleaving; the concurrent callers
   (some of which will coalesce into shared maintenance rounds) must
   leave the session at exactly the oracle fixpoint of that final
   base.  Every caller must also get a well-formed report back. *)
let prop_coalesced_callers =
  QCheck.Test.make ~name:"concurrent coalesced apply_batch = serialized" ~count:8
    (QCheck.make
       QCheck.Gen.(
         let* seed = int_range 1 1_000_000 in
         let* callers = int_range 2 4 in
         return (seed, callers)))
    (fun (seed, callers) ->
      let rng = Dcd_util.Rng.create seed in
      let span = 12 in
      let initial = [ ("arc", mk_edges rng span 20) ] in
      let prepared = prepare D.Queries.tc.source in
      let edb = List.map (fun (n, rows) -> (n, D.Vec.of_list rows)) initial in
      let s =
        D.open_session prepared ~edb ~config:{ D.default_config with workers = 2 } ()
      in
      (* per-caller batch over its own disjoint node range (offset past
         the initial span so deletes can't collide across callers) *)
      let batches =
        List.init callers (fun c ->
            let lo = span + (c * span) in
            let rng = Dcd_util.Rng.create (seed + c) in
            List.init 40 (fun _ ->
                let t = [| lo + Dcd_util.Rng.int rng span; lo + Dcd_util.Rng.int rng span |] in
                if Dcd_util.Rng.int rng 4 = 0 then D.Maintain.Delete ("arc", t)
                else D.Maintain.Insert ("arc", t)))
      in
      let domains =
        List.map (fun b -> Domain.spawn (fun () -> D.Session.apply_batch s b)) batches
      in
      let reports = List.map Domain.join domains in
      let base = Hashtbl.create 256 in
      List.iter
        (fun (n, rows) ->
          List.iter (fun r -> Hashtbl.replace base (n, Array.to_list r) ()) rows)
        initial;
      List.iter
        (List.iter (fun u ->
             match u with
             | D.Maintain.Insert (n, t) -> Hashtbl.replace base (n, Array.to_list t) ()
             | D.Maintain.Delete (n, t) -> Hashtbl.remove base (n, Array.to_list t)))
        batches;
      let cur_base =
        [ ( "arc",
            Hashtbl.fold
              (fun (n, row) () acc -> if n = "arc" then Array.of_list row :: acc else acc)
              base [] ) ]
      in
      let want = oracle_fixpoint D.Queries.tc.source cur_base [ "tc" ] in
      let got = session_fixpoint s [ "tc" ] in
      let m = (D.Session.stats s).D.Run_stats.maintenance in
      (* batches + coalesced always accounts for every caller, however
         the rounds happened to merge *)
      let accounted = m.D.Run_stats.batches + m.D.Run_stats.coalesced in
      D.Session.close s;
      got = want
      && accounted = callers
      && List.for_all (fun r -> r.D.Maintain.br_base_inserted >= 0) reports)

(* --- poisoned session: the original error is re-raised verbatim --- *)

let test_poison_original_error () =
  let prepared = prepare D.Queries.tc.source in
  let rng = Dcd_util.Rng.create 53 in
  let edb = [ ("arc", D.Vec.of_list (mk_edges rng 64 64)) ] in
  let s =
    D.open_session prepared ~edb
      ~config:
        {
          D.default_config with
          workers = 2;
          maintain_workers = 2;
          (* the Maintain site only fires inside a parallel maintenance
             round, so the initial fixpoint run is untouched *)
          fault =
            Some
              {
                Fault.off with
                seed = 5;
                crash_prob = 1.0;
                crash_sites = [ Fault.Maintain ];
                max_crashes = 1;
              };
        }
      ()
  in
  (* a batch big enough to cross the morsel threshold and trigger a
     pool round, where the injected crash fires *)
  let big =
    List.init 400 (fun i -> D.Maintain.Insert ("arc", [| 100 + (i mod 37); 100 + (i / 37) |]))
  in
  let e1 =
    match D.Session.apply_batch s big with
    | _ -> Alcotest.fail "expected the injected crash to escape"
    | exception (D.Engine_error.Error (D.Engine_error.Worker_crashed _) as e) -> e
    | exception e -> Alcotest.failf "wrong poison: %s" (Printexc.to_string e)
  in
  Alcotest.(check bool) "session reports closed/poisoned" true (D.Session.closed s);
  (* reads keep serving the last published snapshot *)
  let _, present = D.Session.lookup s "tc" [| 100; 100 |] in
  Alcotest.(check bool) "poisoned batch never published" false present;
  (* the regression: a later write must re-raise the ORIGINAL poisoning
     error, not a generic "session poisoned" Invalid_argument *)
  (match D.Session.apply_batch s [ D.Maintain.Insert ("arc", [| 1; 2 |]) ] with
  | _ -> Alcotest.fail "poisoned session accepted a write"
  | exception e2 ->
    Alcotest.(check bool) "same exception value re-raised" true (e1 == e2));
  D.Session.close s

let () =
  Alcotest.run "maintain_par"
    [
      ( "parallel vs sequential vs oracle",
        [
          Alcotest.test_case "tc grid" `Slow tc_grid;
          Alcotest.test_case "cc grid" `Slow cc_grid;
          Alcotest.test_case "reachstats grid" `Slow reachstats_grid;
        ] );
      ( "dred brake",
        [
          Alcotest.test_case "complete digraph overdeletion counts" `Quick test_dred_brake;
          Alcotest.test_case "overdeletion stays flat over a churn session" `Quick
            test_churn_stability;
        ] );
      ("writer coalescing", [ QCheck_alcotest.to_alcotest prop_coalesced_callers ]);
      ( "poisoning",
        [ Alcotest.test_case "original error re-raised" `Quick test_poison_original_error ] );
    ]
