(* The resident serving session: lifecycle, snapshot versioning, and the
   incremental-maintenance differential — randomized insert/delete batch
   schedules whose post-batch fixpoint must equal a cold naive-oracle
   recompute of the same base state, on every strategy x steal x worker
   cell the grid exercises. *)

module D = Dcdatalog

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

(* --- lifecycle --- *)

let tc_edb edges = [ ("arc", D.Vec.of_list (List.map (fun (a, b) -> [| a; b |]) edges)) ]

let test_lifecycle () =
  let prepared = prepare D.Queries.tc.source in
  let s = D.open_session prepared ~edb:(tc_edb [ (1, 2); (2, 3) ]) () in
  Alcotest.(check int) "initial version" 0 (D.Session.version s);
  Alcotest.(check (pair int bool)) "1->3 derived" (0, true) (D.Session.lookup s "tc" [| 1; 3 |]);
  Alcotest.(check (pair int int)) "tc count" (0, 3) (D.Session.count s "tc");
  let report = D.Session.apply_batch s [ D.Maintain.Insert ("arc", [| 3; 4 |]) ] in
  Alcotest.(check int) "one base insert" 1 report.D.Maintain.br_base_inserted;
  Alcotest.(check int) "next version" 1 (D.Session.version s);
  Alcotest.(check (pair int bool)) "1->4 now derived" (1, true) (D.Session.lookup s "tc" [| 1; 4 |]);
  let report = D.Session.apply_batch s [ D.Maintain.Delete ("arc", [| 2; 3 |]) ] in
  Alcotest.(check int) "one base delete" 1 report.D.Maintain.br_base_deleted;
  Alcotest.(check (pair int bool)) "1->3 retracted" (2, false) (D.Session.lookup s "tc" [| 1; 3 |]);
  Alcotest.(check (pair int bool)) "1->2 survives" (2, true) (D.Session.lookup s "tc" [| 1; 2 |]);
  (* set semantics: re-inserting a present tuple and deleting an absent
     one is a no-op batch, and publishes a version with no changes *)
  let report =
    D.Session.apply_batch s
      [ D.Maintain.Insert ("arc", [| 1; 2 |]); D.Maintain.Delete ("arc", [| 9; 9 |]) ]
  in
  Alcotest.(check int) "no-op batch: nothing inserted" 0 report.D.Maintain.br_base_inserted;
  Alcotest.(check int) "no-op batch: nothing deleted" 0 report.D.Maintain.br_base_deleted;
  let m = (D.Session.stats s).D.Run_stats.maintenance in
  Alcotest.(check int) "three batches counted" 3 m.D.Run_stats.batches;
  Alcotest.(check bool) "maintenance time recorded" true (m.D.Run_stats.maintain_s >= 0.);
  D.Session.close s;
  D.Session.close s;
  Alcotest.check_raises "updates refused after close"
    (Invalid_argument "Session: closed") (fun () ->
      ignore (D.Session.apply_batch s [ D.Maintain.Insert ("arc", [| 5; 6 |]) ]))

let test_batch_validation () =
  let prepared = prepare D.Queries.tc.source in
  let s = D.open_session prepared ~edb:(tc_edb [ (1, 2) ]) () in
  let before = D.Session.version s in
  Alcotest.check_raises "derived target rejected"
    (Invalid_argument "Maintain: tc is derived, not a base relation") (fun () ->
      ignore (D.Session.apply_batch s [ D.Maintain.Insert ("tc", [| 1; 2 |]) ]));
  (* a rejected batch is validated before any mutation: no version was
     published and the session still accepts work *)
  Alcotest.(check int) "no version published" before (D.Session.version s);
  let _ = D.Session.apply_batch s [ D.Maintain.Insert ("arc", [| 2; 3 |]) ] in
  Alcotest.(check (pair int bool)) "still live" (before + 1, true)
    (D.Session.lookup s "tc" [| 1; 3 |]);
  D.Session.close s

let test_prefix_scan () =
  let prepared = prepare D.Queries.tc.source in
  let s = D.open_session prepared ~edb:(tc_edb [ (1, 2); (2, 3); (4, 5) ]) () in
  let _, rows = D.Session.scan s ~prefix:[| 1 |] "tc" in
  Alcotest.(check (list (list int))) "tc from 1" [ [ 1; 2 ]; [ 1; 3 ] ] (rows_of_tuples rows);
  (* the prefix access marks the relation: the next published version
     serves the same scan through a sorted index *)
  let _ = D.Session.apply_batch s [ D.Maintain.Insert ("arc", [| 3; 6 |]) ] in
  let _, rels = D.Session.snapshot s in
  let tc = List.assoc "tc" rels in
  Alcotest.(check bool) "sorted index built on republish" true
    (D.Relation.find_sorted_index tc ~cols:[| 0; 1 |] <> None);
  let _, rows = D.Session.scan s ~prefix:[| 1 |] "tc" in
  Alcotest.(check (list (list int)))
    "tc from 1 after insert" [ [ 1; 2 ]; [ 1; 3 ]; [ 1; 6 ] ] (rows_of_tuples rows);
  D.Session.close s

(* --- differential: incremental vs cold oracle recompute --- *)

(* One schedule cell: open a session on the initial base state, then
   apply [batches]; after every batch the session fixpoint must equal
   the naive oracle's cold recompute of the current base state, and the
   maintained DRed supports must keep their invariant. *)
let run_schedule ~src ~params:_ ~outputs ~initial ~batches ~config =
  let prepared = prepare src in
  let edb = List.map (fun (n, rows) -> (n, D.Vec.of_list rows)) initial in
  let s = D.open_session prepared ~edb ~config () in
  let base = Hashtbl.create 64 in
  List.iter
    (fun (n, rows) -> List.iter (fun r -> Hashtbl.replace base (n, Array.to_list r) ()) rows)
    initial;
  let ok = ref true in
  let fail = ref "" in
  List.iteri
    (fun bi batch ->
      List.iter
        (fun u ->
          match u with
          | D.Maintain.Insert (n, t) -> Hashtbl.replace base (n, Array.to_list t) ()
          | D.Maintain.Delete (n, t) -> Hashtbl.remove base (n, Array.to_list t))
        batch;
      ignore (D.Session.apply_batch s batch);
      if !ok then begin
        let cur_base =
          List.map
            (fun (n, _) ->
              ( n,
                Hashtbl.fold
                  (fun (n', row) () acc -> if n' = n then Array.of_list row :: acc else acc)
                  base [] ))
            initial
        in
        let want = oracle_fixpoint src cur_base outputs in
        let got = session_fixpoint s outputs in
        if got <> want then begin
          ok := false;
          fail := Printf.sprintf "batch %d diverged" bi
        end
        else
          match D.Session.check_invariants s with
          | Ok () -> ()
          | Error e ->
            ok := false;
            fail := Printf.sprintf "batch %d: %s" bi e
      end)
    batches;
  D.Session.close s;
  if not !ok then failwith !fail

(* deterministic mixed batches: inserts of random edges, deletes biased
   toward edges actually present *)
let gen_batches rng ~preds ~nodes ~batches ~ops =
  let present = Hashtbl.create 64 in
  List.init batches (fun _ ->
      List.init ops (fun _ ->
          let pred, arity = List.nth preds (Dcd_util.Rng.int rng (List.length preds)) in
          let tup () = Array.init arity (fun _ -> Dcd_util.Rng.int rng nodes) in
          if Dcd_util.Rng.int rng 3 = 0 && Hashtbl.length present > 0 then begin
            (* delete something that exists (first key the table yields) *)
            let victim = Hashtbl.fold (fun k () acc -> if acc = None then Some k else acc) present None in
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

let grid_cells =
  List.concat_map
    (fun strategy ->
      List.concat_map
        (fun steal ->
          List.map (fun workers -> (strategy, steal, workers)) [ 1; 4 ])
        [ false; true ])
    [ D.Coord.Global; D.Coord.Ssp 2; D.Coord.Dws ]

let diff_case name src outputs initial_edges preds seed () =
  let rng = Dcd_util.Rng.create seed in
  List.iter
    (fun (strategy, steal, workers) ->
      let batches = gen_batches rng ~preds ~nodes:14 ~batches:4 ~ops:8 in
      let initial = initial_edges in
      try run_schedule ~src ~params:[] ~outputs ~initial ~batches ~config:{ D.default_config with strategy; steal; workers }
      with Failure msg ->
        Alcotest.failf "%s: %s (strategy=%s steal=%b workers=%d)" name msg
          (D.Coord.to_string strategy) steal workers)
    grid_cells

let mk_edges rng n m = List.init m (fun _ -> [| Dcd_util.Rng.int rng n; Dcd_util.Rng.int rng n |])

let tc_diff () =
  let rng = Dcd_util.Rng.create 11 in
  diff_case "tc" D.Queries.tc.source [ "tc" ]
    [ ("arc", mk_edges rng 14 25) ]
    [ ("arc", 2) ]
    101 ()

(* Non-linear recursion: two same-stratum atoms per instantiation (and
   duplicate-atom instantiations on self-loops) stress the support
   counting paths that the left-linear tc rule never reaches. *)
let ntc_diff () =
  let rng = Dcd_util.Rng.create 19 in
  diff_case "ntc" "ntc(X, Y) <- arc(X, Y).\nntc(X, Z) <- ntc(X, Y), ntc(Y, Z)." [ "ntc" ]
    [ ("arc", mk_edges rng 14 25) ]
    [ ("arc", 2) ]
    109 ()

let cc_diff () =
  let rng = Dcd_util.Rng.create 13 in
  diff_case "cc" D.Queries.cc.source [ "cc2"; "cc" ]
    [ ("arc", mk_edges rng 14 25) ]
    [ ("arc", 2) ]
    103 ()

let reachstats_diff () =
  let rng = Dcd_util.Rng.create 17 in
  diff_case "reachstats" reachstats_src
    [ "reach"; "deg"; "busiest" ]
    [ ("arc", mk_edges rng 14 25); ("src", [ [| 0 |]; [| 3 |] ]) ]
    [ ("arc", 2); ("src", 1) ]
    107 ()

(* Body-less rules in maintained strata: [reach(0).] is a unit-scan
   rule in a DRed stratum, [seed(7).] one in a counting stratum. *)
let bodyless_diff () =
  let src =
    "reach(0).\n\
     reach(Y) <- reach(X), arc(X, Y).\n\
     seed(7).\n\
     small(X) <- reach(X), X < 3.\n\
     small(X) <- seed(X)."
  in
  let arcs = [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 5 |] ] in
  let s = D.open_session (prepare src) ~edb:[ ("arc", D.Vec.of_list arcs) ] () in
  Alcotest.(check (pair int int))
    "reach {0,1,2,5}, small {0,1,2,7} at open" (4, 4)
    (snd (D.Session.count s "reach"), snd (D.Session.count s "small"));
  D.Session.close s;
  diff_case "bodyless" src [ "reach"; "small" ] [ ("arc", arcs) ] [ ("arc", 2) ] 113 ()

(* The body shapes one rule-body compiler must get right under
   maintenance: one predicate read at two positions of a counting rule
   (New/Old visibility), a constant and a repeated variable in an atom,
   an assignment feeding a filter, a sum with contributors (each
   carrying one value), SG under DRed, and a negation stratum on the
   recompute path.  Batches flip arc, src and node tuples. *)
let body_shapes_diff () =
  let src =
    "two(X, Z) <- arc(X, Y), arc(Y, Z).\n\
     loop(X) <- arc(X, X).\n\
     from0(Y) <- arc(0, Y).\n\
     hop(X, D) <- arc(X, Y), D = Y - X, D > 0.\n\
     wsum(X, sum<(Y, D)>) <- arc(X, Y), D = Y * 2.\n\
     sg(X, Y) <- arc(P, X), arc(P, Y), X != Y.\n\
     sg(X, Y) <- arc(A, X), sg(A, B), arc(B, Y).\n\
     reach(Y) <- src(Y).\n\
     reach(Y) <- reach(X), arc(X, Y).\n\
     unreach(X) <- node(X), !reach(X)."
  in
  let rng = Dcd_util.Rng.create 23 in
  diff_case "body shapes" src
    [ "two"; "loop"; "from0"; "hop"; "wsum"; "sg"; "reach"; "unreach" ]
    [
      ("arc", mk_edges rng 14 25);
      ("src", [ [| 0 |]; [| 3 |] ]);
      ("node", List.init 14 (fun v -> [| v |]));
    ]
    [ ("arc", 2); ("src", 1); ("node", 1) ]
    127 ()

(* QCheck: random schedules, random configs, TC only (the cheap cell) *)
let prop_random_schedule =
  QCheck.Test.make ~name:"random schedule: incremental = cold oracle" ~count:25
    (QCheck.make
       QCheck.Gen.(
         let* seed = int_range 1 1_000_000 in
         let* workers = int_range 1 4 in
         let* steal = bool in
         let* strat = int_range 0 2 in
         return (seed, workers, steal, strat)))
    (fun (seed, workers, steal, strat) ->
      let strategy =
        match strat with 0 -> D.Coord.Global | 1 -> D.Coord.Ssp 2 | _ -> D.Coord.Dws
      in
      let rng = Dcd_util.Rng.create seed in
      let initial = [ ("arc", mk_edges rng 10 15) ] in
      let batches = gen_batches rng ~preds:[ ("arc", 2) ] ~nodes:10 ~batches:3 ~ops:6 in
      match
        run_schedule ~src:D.Queries.tc.source ~params:[] ~outputs:[ "tc" ] ~initial ~batches
          ~config:{ D.default_config with strategy; steal; workers }
      with
      | () -> true
      | exception Failure _ -> false)

(* --- footprint --- *)

(* Words the maintenance state holds per resident tuple, on a resident
   tc + per-source reach count session over 1,500 of 3,000 distinct
   RMAT arcs on 256 vertices (40K closure tuples): at open, and after
   100 batches that each delete 5 present arcs and insert 5 absent
   ones. *)
let words_bound = 15.

let test_footprint () =
  let src = D.Queries.tc.source ^ "\nreach(X, count<Y>) <- tc(X, Y)." in
  let seen = Hashtbl.create 4096 in
  let arcs = ref [] in
  D.Vec.iter
    (fun (a, b, _) ->
      if a <> b && not (Hashtbl.mem seen (a, b)) then begin
        Hashtbl.add seen (a, b) ();
        arcs := (a, b) :: !arcs
      end)
    (D.Graph.edges (D.Gen.rmat ~seed:9 ~scale:8 ~edges:3750 ()));
  let arcs = Array.of_list (List.rev !arcs) in
  let rng = Dcd_util.Rng.create 9 in
  Dcd_util.Rng.shuffle rng arcs;
  let universe = min 3000 (Array.length arcs) in
  let present = universe / 2 in
  let s =
    D.open_session (prepare src)
      ~edb:(tc_edb (Array.to_list (Array.sub arcs 0 present)))
      ~config:{ D.default_config with workers = 2 } ()
  in
  Fun.protect ~finally:(fun () -> D.Session.close s) @@ fun () ->
  let per_tuple what =
    let m = (D.Session.stats s).D.Run_stats.maintenance in
    let r = float_of_int m.D.Run_stats.words /. float_of_int m.D.Run_stats.resident_tuples in
    if r > words_bound then
      Alcotest.failf "%s: %.1f words per resident tuple (bound %.0f)" what r words_bound;
    Alcotest.(check bool) (what ^ ": resident tuples counted") true (m.D.Run_stats.resident_tuples > 30_000)
  in
  per_tuple "at open";
  let swap i j =
    let x = arcs.(i) in
    arcs.(i) <- arcs.(j);
    arcs.(j) <- x
  in
  for _ = 1 to 100 do
    let out = Dcd_util.Rng.int rng present and in_ = present + Dcd_util.Rng.int rng (universe - present) in
    let batch = ref [] in
    for k = 0 to 4 do
      let o = (out + k) mod present and i = present + ((in_ - present + k) mod (universe - present)) in
      let a, b = arcs.(o) and c, d = arcs.(i) in
      batch := D.Maintain.Delete ("arc", [| a; b |]) :: D.Maintain.Insert ("arc", [| c; d |]) :: !batch;
      swap o i
    done;
    ignore (D.Session.apply_batch s !batch)
  done;
  per_tuple "after 100 churn batches"

let () =
  Alcotest.run "session"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "open/update/close" `Quick test_lifecycle;
          Alcotest.test_case "batch validation is atomic" `Quick test_batch_validation;
          Alcotest.test_case "prefix scan + sticky sorted index" `Quick test_prefix_scan;
        ] );
      ( "incremental vs cold oracle",
        [
          Alcotest.test_case "tc grid" `Slow tc_diff;
          Alcotest.test_case "non-linear tc grid" `Slow ntc_diff;
          Alcotest.test_case "cc grid" `Slow cc_diff;
          Alcotest.test_case "reachstats grid" `Slow reachstats_diff;
          Alcotest.test_case "body-less rules grid" `Slow bodyless_diff;
          Alcotest.test_case "body shapes grid" `Slow body_shapes_diff;
          QCheck_alcotest.to_alcotest prop_random_schedule;
        ] );
      ("footprint", [ Alcotest.test_case "words per resident tuple" `Quick test_footprint ]);
    ]
