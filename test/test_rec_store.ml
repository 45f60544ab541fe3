open Dcd_datalog
module Rs = Dcd_engine.Rec_store

let tuple_list = Alcotest.(list (list int))

(* a cursor is valid only during the call, and its array may hold more
   than the one tuple *)
let matches ?(arity = 2) store key =
  let out = ref [] in
  Rs.iter_matches store ~key (fun data off -> out := Array.to_list (Array.sub data off arity) :: !out);
  List.sort compare !out

(* every case runs with and without Table 4's optimizations *)
let for_all_opts f () = List.iter f [ true; false ]

let test_set_store optimized =
  let s = Rs.create ~arity:2 ~agg:None ~route:[| 0 |] ~optimized () in
  Alcotest.(check bool) "fresh tuple" true (Rs.merge s ~tuple:[| 1; 2 |] ~contributor:[||] <> None);
  Alcotest.(check bool) "duplicate absorbed" true
    (Rs.merge s ~tuple:[| 1; 2 |] ~contributor:[||] = None);
  ignore (Rs.merge s ~tuple:[| 1; 3 |] ~contributor:[||]);
  ignore (Rs.merge s ~tuple:[| 2; 9 |] ~contributor:[||]);
  Alcotest.(check int) "length" 3 (Rs.length s);
  Alcotest.check tuple_list "route matches" [ [ 1; 2 ]; [ 1; 3 ] ] (matches s [| 1 |])

let test_set_store_route1 optimized =
  (* route on the SECOND column: permutation must still return canonical tuples *)
  let s = Rs.create ~arity:2 ~agg:None ~route:[| 1 |] ~optimized () in
  ignore (Rs.merge s ~tuple:[| 1; 7 |] ~contributor:[||]);
  ignore (Rs.merge s ~tuple:[| 2; 7 |] ~contributor:[||]);
  ignore (Rs.merge s ~tuple:[| 3; 8 |] ~contributor:[||]);
  Alcotest.check tuple_list "match by col 1, canonical order" [ [ 1; 7 ]; [ 2; 7 ] ]
    (matches s [| 7 |])

let test_agg_min optimized =
  let s = Rs.create ~arity:2 ~agg:(Some (1, Ast.Min)) ~route:[| 0 |] ~optimized () in
  (match Rs.merge s ~tuple:[| 1; 5 |] ~contributor:[||] with
  | Some t -> Alcotest.(check (list int)) "first" [ 1; 5 ] (Array.to_list t)
  | None -> Alcotest.fail "first merge must change");
  Alcotest.(check bool) "worse absorbed" true (Rs.merge s ~tuple:[| 1; 9 |] ~contributor:[||] = None);
  (match Rs.merge s ~tuple:[| 1; 2 |] ~contributor:[||] with
  | Some t -> Alcotest.(check (list int)) "improved delta carries new value" [ 1; 2 ] (Array.to_list t)
  | None -> Alcotest.fail "improvement must be emitted");
  Alcotest.check tuple_list "lookup sees the aggregate" [ [ 1; 2 ] ] (matches s [| 1 |])

let test_agg_value_not_in_route optimized =
  (* APSP-style: path(A, B, min<D>), route by B (col 1), group (A, B) *)
  let s = Rs.create ~arity:3 ~agg:(Some (2, Ast.Min)) ~route:[| 1 |] ~optimized () in
  ignore (Rs.merge s ~tuple:[| 1; 5; 10 |] ~contributor:[||]);
  ignore (Rs.merge s ~tuple:[| 2; 5; 20 |] ~contributor:[||]);
  ignore (Rs.merge s ~tuple:[| 1; 6; 30 |] ~contributor:[||]);
  Alcotest.check tuple_list "prefix by routed group col"
    [ [ 1; 5; 10 ]; [ 2; 5; 20 ] ]
    (matches ~arity:3 s [| 5 |]);
  (* improving one group does not disturb the other *)
  ignore (Rs.merge s ~tuple:[| 2; 5; 15 |] ~contributor:[||]);
  Alcotest.check tuple_list "after improvement" [ [ 1; 5; 10 ]; [ 2; 5; 15 ] ]
    (matches ~arity:3 s [| 5 |])

let test_agg_count optimized =
  let s = Rs.create ~arity:2 ~agg:(Some (1, Ast.Count)) ~route:[| 0 |] ~optimized () in
  (match Rs.merge s ~tuple:[| 7; 0 |] ~contributor:[| 100 |] with
  | Some t -> Alcotest.(check (list int)) "count 1" [ 7; 1 ] (Array.to_list t)
  | None -> Alcotest.fail "first contributor");
  Alcotest.(check bool) "repeat contributor" true
    (Rs.merge s ~tuple:[| 7; 0 |] ~contributor:[| 100 |] = None);
  match Rs.merge s ~tuple:[| 7; 0 |] ~contributor:[| 101 |] with
  | Some t -> Alcotest.(check (list int)) "count 2" [ 7; 2 ] (Array.to_list t)
  | None -> Alcotest.fail "second contributor"

(* the existence cache sits in front of aggregate stores only: a set
   store's table probe is its existence check *)
let test_cache_stats () =
  let min_store optimized =
    Rs.create ~arity:2 ~agg:(Some (1, Ast.Min)) ~route:[| 0 |] ~optimized ()
  in
  let s = min_store true in
  ignore (Rs.merge s ~tuple:[| 1; 1 |] ~contributor:[||]);
  ignore (Rs.merge s ~tuple:[| 1; 1 |] ~contributor:[||]);
  (match Rs.cache_stats s with
  | Some (hits, _) -> Alcotest.(check bool) "cache hit recorded" true (hits >= 1)
  | None -> Alcotest.fail "cache should be on by default");
  let s2 = min_store false in
  Alcotest.(check bool) "no cache when off" true (Rs.cache_stats s2 = None)

(* --- the drain's path: stage_slice + merge_run --------------------- *)

let dump ?(arity = 2) s =
  let out = ref [] in
  Rs.iter s (fun data off -> out := Array.to_list (Array.sub data off arity) :: !out);
  List.sort compare !out

let test_stage_and_merge_run optimized =
  let s = Rs.create ~arity:2 ~agg:None ~route:[| 0 |] ~optimized () in
  let stage tup =
    Rs.stage_slice s ~data:tup ~off:0 ~cdata:tup ~coff:0 ~clen:0
  in
  stage [| 3; 1 |];
  stage [| 1; 2 |];
  stage [| 3; 1 |];
  (* in-run duplicate *)
  stage [| 2; 9 |];
  Alcotest.(check int) "staged counts candidates" 4 (Rs.staged s);
  Alcotest.(check int) "staging folds at once" 3 (Rs.length s);
  let fresh = ref [] in
  let on_fresh acc data off = acc := Array.to_list (Array.sub data off 2) :: !acc in
  let merged, dups = Rs.merge_run s ~on_fresh:(on_fresh fresh) in
  Alcotest.(check int) "staged drained" 0 (Rs.staged s);
  Alcotest.(check int) "merged = unique candidates" 3 merged;
  Alcotest.(check int) "in-run duplicate dropped" 1 dups;
  Alcotest.check tuple_list "deltas in arrival order" [ [ 3; 1 ]; [ 1; 2 ]; [ 2; 9 ] ]
    (List.rev !fresh);
  (* a second run: cross-run duplicates absorbed, fresh tuples kept *)
  stage [| 1; 2 |];
  stage [| 4; 4 |];
  let fresh2 = ref [] in
  let merged2, _ = Rs.merge_run s ~on_fresh:(on_fresh fresh2) in
  Alcotest.(check bool) "cross-run duplicate absorbed" true (merged2 <= 2);
  Alcotest.check tuple_list "only the new tuple is a delta" [ [ 4; 4 ] ] !fresh2;
  Alcotest.check (Alcotest.list (Alcotest.list Alcotest.int)) "store contents"
    [ [ 1; 2 ]; [ 2; 9 ]; [ 3; 1 ]; [ 4; 4 ] ]
    (dump s)

(* Differential pinning of the batch path to the per-tuple path: the
   same candidate stream, split into the same drain-sized runs, must
   leave both stores identical and produce equivalent deltas.  The
   per-tuple path may emit several deltas for one aggregate group
   within a run (each monotone improvement); the batch path emits one
   delta per changed group carrying the run's final value — so the
   comparison keys deltas by group and keeps the last per run.  One
   sanctioned divergence: a Sum run whose contributions net to zero
   against an existing group makes the per-tuple path emit a cancelling
   delta pair (ending on the unchanged stored value) where the batch
   path emits nothing — the store states still agree, and skipping the
   no-op delta only removes spurious frontier work. *)
let merge_run_matches_per_tuple ~agg ~contrib name =
  let gen =
    QCheck.(
      pair
        (list (triple (int_range 0 8) (int_range 0 30) (int_range 0 3)))
        (list_of_size QCheck.Gen.(int_range 1 5) (int_range 1 40)))
  in
  QCheck.Test.make ~name ~count:80 gen (fun (candidates, chunk_sizes) ->
      let mk () = Rs.create ~arity:2 ~agg ~route:[| 0 |] () in
      let a = mk () and b = mk () in
      let group_of tup =
        match agg with
        | None -> tup
        | Some (vpos, _) -> List.filteri (fun i _ -> i <> vpos) tup
      in
      (* split the stream into runs of the generated sizes, cycling;
         the shrinker may empty the size list, so keep a fallback *)
      let runs =
        let sizes = Array.of_list (if chunk_sizes = [] then [ 3 ] else chunk_sizes) in
        let rec go i si acc cur = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | c :: rest ->
            let cur = c :: cur in
            if List.length cur >= sizes.(si mod Array.length sizes) then
              go (i + 1) (si + 1) (List.rev cur :: acc) [] rest
            else go (i + 1) si acc cur rest
        in
        go 0 0 [] [] candidates
      in
      List.for_all
        (fun run ->
          (* path A: per-tuple, keeping the LAST delta per group *)
          let deltas_a = Hashtbl.create 8 in
          List.iter
            (fun (g, v, c) ->
              let tup = [| g; v |] in
              let contributor = if contrib then [| c |] else [||] in
              match Rs.merge a ~tuple:tup ~contributor with
              | Some d -> Hashtbl.replace deltas_a (group_of (Array.to_list d)) (Array.to_list d)
              | None -> ())
            run;
          (* path B: stage the whole run, then one merge_run *)
          let deltas_b = Hashtbl.create 8 in
          List.iter
            (fun (g, v, c) ->
              let tup = [| g; v |] in
              let cdata = if contrib then [| c |] else [||] in
              Rs.stage_slice b ~data:tup ~off:0 ~cdata ~coff:0
                ~clen:(Array.length cdata))
            run;
          let _ = Rs.merge_run b ~on_fresh:(fun data off ->
              let d = Array.to_list (Array.sub data off 2) in
              Hashtbl.replace deltas_b (group_of d) d)
          in
          let db = dump b in
          let is_sum = match agg with Some (_, Ast.Sum) -> true | _ -> false in
          let b_matches_a =
            Hashtbl.fold
              (fun g d acc ->
                acc && (match Hashtbl.find_opt deltas_a g with Some d' -> d' = d | None -> false))
              deltas_b true
          in
          let a_only_are_sum_noops =
            Hashtbl.fold
              (fun g d acc ->
                acc && (Hashtbl.mem deltas_b g || (is_sum && List.mem d db)))
              deltas_a true
          in
          b_matches_a && a_only_are_sum_noops && dump a = db)
        runs)

(* Mixing the two fold paths on a set store must fail loudly: a
   [merge_slice] moves the report mark, which would hide folds staged
   before it from [merge_run]. *)
let test_merge_slice_after_stage optimized =
  let s = Rs.create ~arity:2 ~agg:None ~route:[| 0 |] ~optimized () in
  let merge_slice tup = Rs.merge_slice s ~data:tup ~off:0 ~cdata:tup ~coff:0 ~clen:0 in
  Rs.stage_slice s ~data:[| 1; 2 |] ~off:0 ~cdata:[||] ~coff:0 ~clen:0;
  (match merge_slice [| 3; 4 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "merge_slice must refuse folds merge_run has not reported");
  Alcotest.(check int) "the refused candidate is not stored" 1 (Rs.length s);
  let fresh = ref 0 in
  ignore (Rs.merge_run s ~on_fresh:(fun _ _ -> incr fresh));
  Alcotest.(check int) "the staged fold is still reported" 1 !fresh;
  Alcotest.(check bool) "merge_slice folds once the mark caught up" true
    (merge_slice [| 3; 4 |] <> None)

(* A cut must not keep a fold that no delta carries: a set store
   refuses to snapshot while it holds tuples merge_run has not reported
   (a local delivery, or a drained candidate), accepts once they are
   reported, and is not bothered by duplicates, which add no slot. *)
let test_snapshot_refuses_unreported optimized =
  let s = Rs.create ~arity:2 ~agg:None ~route:[| 0 |] ~indexed:false ~optimized () in
  let stage tup = Rs.stage_slice s ~data:tup ~off:0 ~cdata:tup ~coff:0 ~clen:0 in
  let refuses label =
    match Rs.snapshot s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (label ^ ": snapshot must refuse unreported folds")
  in
  stage [| 1; 2 |];
  refuses "first fold";
  let fresh = ref 0 in
  ignore (Rs.merge_run s ~on_fresh:(fun _ _ -> incr fresh));
  Alcotest.(check int) "the refused snapshot left the fold to report" 1 !fresh;
  let snap = Rs.snapshot s in
  stage [| 1; 2 |];
  ignore (Rs.snapshot s);
  stage [| 3; 4 |];
  refuses "fold after a duplicate";
  ignore (Rs.merge_run s ~on_fresh:(fun _ _ -> ()));
  Alcotest.(check int) "rollback drops the fold made after the cut" 1 (Rs.rollback s snap);
  Alcotest.(check int) "back to the cut" 1 (Rs.length s)

let test_merge_run_set = merge_run_matches_per_tuple ~agg:None ~contrib:false "set: merge_run = per-tuple merges"
let test_merge_run_min = merge_run_matches_per_tuple ~agg:(Some (1, Ast.Min)) ~contrib:false "min: merge_run = per-tuple merges"
let test_merge_run_max = merge_run_matches_per_tuple ~agg:(Some (1, Ast.Max)) ~contrib:false "max: merge_run = per-tuple merges"
let test_merge_run_count = merge_run_matches_per_tuple ~agg:(Some (1, Ast.Count)) ~contrib:true "count: merge_run = per-tuple merges"
let test_merge_run_sum = merge_run_matches_per_tuple ~agg:(Some (1, Ast.Sum)) ~contrib:true "sum: merge_run = per-tuple merges"

let test_optimized_and_unoptimized_agree =
  QCheck.Test.make ~name:"store contents identical across opts" ~count:60
    QCheck.(list (pair (int_range 0 8) (int_range 0 30)))
    (fun candidates ->
      let mk optimized = Rs.create ~arity:2 ~agg:(Some (1, Ast.Min)) ~route:[| 0 |] ~optimized () in
      let a = mk true and b = mk false in
      List.iter
        (fun (g, v) ->
          let ra = Rs.merge a ~tuple:[| g; v |] ~contributor:[||] in
          let rb = Rs.merge b ~tuple:[| g; v |] ~contributor:[||] in
          assert ((ra = None) = (rb = None)))
        candidates;
      dump a = dump b)

(* A set store against a model: a random candidate stream folded in
   drain-sized rounds, checked after every round, then rolled back to a
   snapshot taken mid-stream.  The model is the list of distinct
   tuples in arrival order. *)
let prop_set_store_model =
  let shape = QCheck.Gen.(pair (oneofl [ 2; 3 ]) (oneofl [ [| 0 |]; [| 1 |]; [| 1; 0 |] ])) in
  let gen =
    QCheck.Gen.(
      shape >>= fun (arity, route) ->
      map
        (fun (cands, rounds, cut) -> (arity, route, cands, rounds, cut))
        (triple
           (list_size (int_range 0 120) (array_size (return arity) (int_range 0 4)))
           (list_size (int_range 1 4) (int_range 1 30))
           (int_range 0 6)))
  in
  let print (arity, route, cands, rounds, cut) =
    Printf.sprintf "arity %d, route [%s], rounds [%s], cut after %d, %s" arity
      (String.concat ";" (Array.to_list (Array.map string_of_int route)))
      (String.concat ";" (List.map string_of_int rounds))
      cut
      (String.concat " " (List.map (fun c -> QCheck.Print.(array int) c) cands))
  in
  QCheck.Test.make ~name:"set store = model set, each new tuple reported once" ~count:300
    (QCheck.make ~print gen)
    (fun (arity, route, cands, rounds, cut) ->
      let s = Rs.create ~arity ~agg:None ~route () in
      let tuples l = List.map Array.to_list l in
      let agrees model =
        let keys = List.sort_uniq compare (List.map (fun t -> Array.map (fun c -> t.(c)) route) model) in
        Rs.length s = List.length model
        && dump ~arity s = List.sort compare (tuples model)
        && List.for_all
             (fun key ->
               matches ~arity s key
               = List.sort compare
                   (tuples (List.filter (fun t -> Array.map (fun c -> t.(c)) route = key) model)))
             (Array.make (Array.length route) 5 :: keys)
      in
      let model = ref [] and reported = ref [] and snap = ref None in
      let rec go round rest sizes =
        if round = cut then snap := Some (Rs.snapshot s, !model);
        match rest with
        | [] -> true
        | _ ->
          let size = List.hd sizes in
          let batch = List.filteri (fun i _ -> i < size) rest in
          let rest = List.filteri (fun i _ -> i >= size) rest in
          List.iter
            (fun t ->
              Rs.stage_slice s ~data:t ~off:0 ~cdata:t ~coff:0 ~clen:0;
              if not (List.mem t !model) then model := !model @ [ t ])
            batch;
          let fresh, dups =
            Rs.merge_run s ~on_fresh:(fun data off -> reported := Array.sub data off arity :: !reported)
          in
          fresh + dups = List.length batch
          && List.rev !reported = !model
          && agrees !model
          && go (round + 1) rest (List.tl sizes @ [ size ])
      in
      go 0 cands rounds
      &&
      match !snap with
      | None -> true
      | Some (sn, prefix) ->
        ignore (Rs.rollback s sn);
        agrees prefix
        &&
        (* the rolled-back tuples are new again, and only they *)
        let again = ref [] in
        List.iter (fun t -> Rs.stage_slice s ~data:t ~off:0 ~cdata:t ~coff:0 ~clen:0) !model;
        ignore (Rs.merge_run s ~on_fresh:(fun data off -> again := Array.sub data off arity :: !again));
        List.rev !again = List.filter (fun t -> not (List.mem t prefix)) !model && agrees !model)

let () =
  Alcotest.run "rec_store"
    [
      ( "unit",
        [
          Alcotest.test_case "set store" `Quick (for_all_opts test_set_store);
          Alcotest.test_case "set store route 1" `Quick (for_all_opts test_set_store_route1);
          Alcotest.test_case "agg min" `Quick (for_all_opts test_agg_min);
          Alcotest.test_case "agg route != prefix" `Quick (for_all_opts test_agg_value_not_in_route);
          Alcotest.test_case "agg count" `Quick (for_all_opts test_agg_count);
          Alcotest.test_case "cache stats" `Quick test_cache_stats;
          Alcotest.test_case "stage + merge_run" `Quick (for_all_opts test_stage_and_merge_run);
          Alcotest.test_case "merge_slice after stage_slice" `Quick
            (for_all_opts test_merge_slice_after_stage);
          Alcotest.test_case "snapshot refuses unreported folds" `Quick
            (for_all_opts test_snapshot_refuses_unreported);
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_set_store_model; test_optimized_and_unoptimized_agree; test_merge_run_set;
            test_merge_run_min;
            test_merge_run_max; test_merge_run_count; test_merge_run_sum;
          ] );
    ]
