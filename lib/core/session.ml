module Physical = Dcd_planner.Physical
module Parallel = Dcd_engine.Parallel
module Maintain = Dcd_engine.Maintain
module Run_stats = Dcd_engine.Run_stats
module Catalog = Dcd_engine.Catalog
module Engine_error = Dcd_engine.Engine_error
module Cancel = Dcd_concurrent.Cancel
module Domain_pool = Dcd_concurrent.Domain_pool
module Relation = Dcd_storage.Relation
module Snapshot = Dcd_storage.Snapshot
module Tuple = Dcd_storage.Tuple
module Clock = Dcd_util.Clock
module Vec = Dcd_util.Vec

type state =
  | Live
  | Poisoned of exn (* the original escaped error, re-raised by later writes *)
  | Closed

(* One queued [apply_batch] caller.  Callers that arrive while a
   maintenance round is running enqueue here and are flushed together
   as a single merged round by whichever caller becomes the leader. *)
type outcome =
  | Pending
  | Done of Maintain.batch_report
  | Failed of exn

type waiter = {
  w_updates : Maintain.update list;
  w_deadline : float option;
  mutable w_outcome : outcome;
}

module Tset = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

(* A published relation: a materialized base plus a small overlay of
   net changes since the base was last (re)built.  Publishing a batch
   then costs O(|delta|) instead of O(|relation|); when the overlay
   outgrows a fraction of the base the next publish compacts it back
   into a fresh materialization.  Views are immutable once published —
   a new batch builds new overlay tables, so concurrent readers keep a
   consistent value forever. *)
type view = {
  v_base : Relation.t;
  v_dead : unit Tset.t; (* ⊆ base: deleted since materialization *)
  v_extra : Tuple.t list; (* inserted since; disjoint from base \ dead *)
  v_extra_mem : unit Tset.t; (* [v_extra] as a set *)
  v_count : int; (* |base| - |dead| + |extra| *)
}

let view_of_rel rel =
  {
    v_base = rel;
    v_dead = Tset.create 1;
    v_extra = [];
    v_extra_mem = Tset.create 1;
    v_count = Relation.length rel;
  }

let view_mem v tup =
  (Relation.mem v.v_base tup && not (Tset.mem v.v_dead tup)) || Tset.mem v.v_extra_mem tup

(* [f] receives each matching tuple as a fresh array it may keep. *)
let view_iter_prefix v ~prefix f =
  (if Tset.length v.v_dead = 0 then Relation.iter_prefix v.v_base ~prefix f
   else Relation.iter_prefix v.v_base ~prefix (fun tup -> if not (Tset.mem v.v_dead tup) then f tup));
  match v.v_extra with
  | [] -> ()
  | extra ->
    let plen = Array.length prefix in
    List.iter
      (fun tup ->
        let ok = ref true in
        for i = 0 to plen - 1 do
          if tup.(i) <> prefix.(i) then ok := false
        done;
        if !ok then f (Array.copy tup))
      extra

type t = {
  plan : Physical.t;
  config : Parallel.config;
  pool : Domain_pool.t;
  maintain : Maintain.t;
  stats : Run_stats.t;
  snap : (string * view) list Snapshot.t;
  write_mutex : Mutex.t; (* serializes maintenance rounds and close *)
  q_mutex : Mutex.t; (* guards q_waiters / q_flushing *)
  q_cond : Condition.t; (* followers wait here for their outcome *)
  mutable q_waiters : waiter list; (* newest first; flushed in arrival order *)
  mutable q_flushing : bool; (* a leader is running a round *)
  idx_mutex : Mutex.t; (* guards idx_wanted only *)
  idx_wanted : (string, unit) Hashtbl.t;
      (* predicates whose rebuilt snapshots should carry a sorted index
         (sticky: set by the first prefix scan against each) *)
  mutable state : state;
}

let check_deadline = function
  | Some d when Clock.now () > d ->
    raise (Engine_error.Error (Engine_error.Cancelled Cancel.Deadline))
  | _ -> ()

(* the maintenance state's footprint, as of the last open or batch *)
let record_footprint (m : Run_stats.maintenance) maintain =
  m.Run_stats.words <- Maintain.words maintain;
  m.Run_stats.resident_tuples <- Maintain.resident_tuples maintain

let open_session ~plan ~edb ?(config = Parallel.default_config) () =
  let pool = Domain_pool.create ~workers:config.Parallel.workers in
  match
    let result = Parallel.run ~pool plan ~edb ~config in
    let maintain = Maintain.create ~plan ~config ~pool ~catalog:result.Parallel.catalog in
    (result, maintain)
  with
  | exception e ->
    Domain_pool.shutdown pool;
    raise e
  | result, maintain ->
    (* version 0 reuses the engine's own materializations: nothing
       mutates them once the run has returned *)
    let rels =
      List.map
        (fun p ->
          match Catalog.find result.Parallel.catalog p with
          | Some rel -> (p, view_of_rel rel)
          | None ->
            (p, view_of_rel (Relation.create ~name:p ~arity:(Maintain.arity maintain p) ())))
        (Maintain.predicates maintain)
    in
    record_footprint result.Parallel.stats.Run_stats.maintenance maintain;
    {
      plan;
      config;
      pool;
      maintain;
      stats = result.Parallel.stats;
      snap = Snapshot.create rels;
      write_mutex = Mutex.create ();
      q_mutex = Mutex.create ();
      q_cond = Condition.create ();
      q_waiters = [];
      q_flushing = false;
      idx_mutex = Mutex.create ();
      idx_wanted = Hashtbl.create 8;
      state = Live;
    }

let require_open t =
  match t.state with
  | Live -> ()
  | Poisoned e -> raise e (* the original escaped error, verbatim *)
  | Closed -> invalid_arg "Session: closed"

(* --- writes --- *)

(* Restores the published snapshot and the session stats from one
   maintenance round's report.  Caller holds [write_mutex].
   [coalesced] is how many queued batches rode along beyond the first. *)
let publish_round t report ~t0 ~coalesced =
  let wanted =
    Mutex.protect t.idx_mutex (fun () ->
        Hashtbl.fold (fun k () acc -> k :: acc) t.idx_wanted [])
  in
  (* full rematerialization of one relation, from the maintenance
     state; the once-per-batch fallback when a view's overlay has
     outgrown its base or a sorted index was requested *)
  let materialize name =
    let arity = Maintain.arity t.maintain name in
    let nr =
      Relation.create
        ~size_hint:(max 16 (Maintain.visible_count t.maintain name))
        ~name ~arity ()
    in
    Maintain.visible t.maintain name (fun data off -> ignore (Relation.add_slice nr data off));
    if List.mem name wanted then
      ignore (Relation.ensure_sorted_index nr ~cols:(Array.init arity Fun.id));
    view_of_rel nr
  in
  let _, old_views = Snapshot.read t.snap in
  let rels =
    List.map
      (fun (name, v) ->
        match List.find_opt (fun (n, _, _) -> n = name) report.Maintain.br_deltas with
        | None -> (name, v)
        | Some (_, ins, del) ->
          let n_ins = List.length ins and n_del = List.length del in
          let count = v.v_count + n_ins - n_del in
          let osize = Tset.length v.v_dead + Tset.length v.v_extra_mem + n_ins + n_del in
          let needs_index =
            List.mem name wanted
            && Relation.find_sorted_index v.v_base
                 ~cols:(Array.init (Relation.arity v.v_base) Fun.id)
               = None
          in
          if needs_index || osize * 8 > count then (name, materialize name)
          else begin
            (* fold the net batch delta into fresh overlay tables;
               the published ones are never mutated *)
            let dead = Tset.copy v.v_dead in
            let extra_mem = Tset.copy v.v_extra_mem in
            List.iter
              (fun tup ->
                if Tset.mem extra_mem tup then Tset.remove extra_mem tup
                else Tset.replace dead tup ())
              del;
            let fresh =
              List.filter
                (fun tup ->
                  if Tset.mem dead tup then begin
                    (* deleted earlier, back now: still in base *)
                    Tset.remove dead tup;
                    false
                  end
                  else begin
                    Tset.replace extra_mem tup ();
                    true
                  end)
                ins
            in
            let extra = fresh @ List.filter (fun tup -> Tset.mem extra_mem tup) v.v_extra in
            ( name,
              {
                v_base = v.v_base;
                v_dead = dead;
                v_extra = extra;
                v_extra_mem = extra_mem;
                v_count = count;
              } )
          end)
      old_views
  in
  ignore (Snapshot.publish t.snap rels);
  let m = t.stats.Run_stats.maintenance in
  m.Run_stats.batches <- m.Run_stats.batches + 1;
  m.Run_stats.base_inserted <- m.Run_stats.base_inserted + report.Maintain.br_base_inserted;
  m.Run_stats.base_deleted <- m.Run_stats.base_deleted + report.Maintain.br_base_deleted;
  m.Run_stats.inserted <- m.Run_stats.inserted + report.Maintain.br_derived_inserted;
  m.Run_stats.deleted <- m.Run_stats.deleted + report.Maintain.br_derived_deleted;
  m.Run_stats.overdeleted <- m.Run_stats.overdeleted + report.Maintain.br_overdeleted;
  m.Run_stats.rederived <- m.Run_stats.rederived + report.Maintain.br_rederived;
  m.Run_stats.restored <- m.Run_stats.restored + report.Maintain.br_restored;
  m.Run_stats.recounted <- m.Run_stats.recounted + report.Maintain.br_recounted;
  m.Run_stats.recomputed_strata <-
    m.Run_stats.recomputed_strata + report.Maintain.br_recomputed_strata;
  m.Run_stats.coalesced <- m.Run_stats.coalesced + coalesced;
  List.iteri
    (fun i (js, mo, st, tu) ->
      let mw = Run_stats.maintain_worker m i in
      mw.Run_stats.mw_join_s <- mw.Run_stats.mw_join_s +. js;
      mw.Run_stats.mw_morsels <- mw.Run_stats.mw_morsels + mo;
      mw.Run_stats.mw_steals <- mw.Run_stats.mw_steals + st;
      mw.Run_stats.mw_stolen <- mw.Run_stats.mw_stolen + tu)
    report.Maintain.br_workers;
  m.Run_stats.maintain_s <- m.Run_stats.maintain_s +. (Clock.now () -. t0);
  record_footprint m t.maintain

(* Runs one merged maintenance round for every waiter queued so far.
   Caller has claimed [q_flushing] and holds neither mutex.  Every
   waiter grabbed here leaves with a resolved outcome. *)
let flush_round t =
  let group =
    Mutex.protect t.q_mutex (fun () ->
        let g = List.rev t.q_waiters in
        t.q_waiters <- [];
        g)
  in
  if group <> [] then
    Mutex.protect t.write_mutex (fun () ->
        let fail_all ws e = List.iter (fun w -> w.w_outcome <- Failed e) ws in
        match t.state with
        | Poisoned e -> fail_all group e
        | Closed -> fail_all group (Invalid_argument "Session: closed")
        | Live -> (
          (* the deadline gates admission only: once admitted, a batch
             runs to completion — a half-applied batch is not a state
             readers could ever be allowed to see.  Re-checked here
             because the wait in the queue counts against it. *)
          let admitted, expired =
            List.partition
              (fun w ->
                match w.w_deadline with Some d when Clock.now () > d -> false | _ -> true)
              group
          in
          fail_all expired (Engine_error.Error (Engine_error.Cancelled Cancel.Deadline));
          match admitted with
          | [] -> ()
          | _ -> (
            let t0 = Clock.now () in
            (* every batch was validated before it enqueued, so the
               concatenation is well-formed; base flips apply in list
               order, so the merged round reaches the same fixpoint as
               applying the queued batches back to back *)
            let updates = List.concat_map (fun w -> w.w_updates) admitted in
            match
              let report = Maintain.apply t.maintain updates in
              publish_round t report ~t0 ~coalesced:(List.length admitted - 1);
              report
            with
            | report -> List.iter (fun w -> w.w_outcome <- Done report) admitted
            | exception e ->
              (* the fixpoint may have moved but the snapshot did not:
                 readers are still consistent, the session is not.  The
                 poisoning exception is kept and re-raised verbatim by
                 every later write. *)
              t.state <- Poisoned e;
              fail_all admitted e)))

let apply_batch t ?deadline updates =
  require_open t;
  (* malformed batches fail fast on their own caller, before they can
     reach a merged round and poison innocent co-waiters *)
  Maintain.validate t.maintain updates;
  check_deadline deadline;
  let w = { w_updates = updates; w_deadline = deadline; w_outcome = Pending } in
  Mutex.lock t.q_mutex;
  t.q_waiters <- w :: t.q_waiters;
  let rec wait_outcome () =
    match w.w_outcome with
    | Done r ->
      Mutex.unlock t.q_mutex;
      r
    | Failed e ->
      Mutex.unlock t.q_mutex;
      raise e
    | Pending ->
      if not t.q_flushing then begin
        (* become the leader: run one round over everything queued,
           ourselves included, then hand the baton to whoever queued
           up meanwhile *)
        t.q_flushing <- true;
        Mutex.unlock t.q_mutex;
        let fin = try Ok (flush_round t) with e -> Error e in
        Mutex.lock t.q_mutex;
        t.q_flushing <- false;
        Condition.broadcast t.q_cond;
        (match fin with
        | Ok () -> ()
        | Error e ->
          Mutex.unlock t.q_mutex;
          raise e);
        wait_outcome ()
      end
      else begin
        Condition.wait t.q_cond t.q_mutex;
        wait_outcome ()
      end
  in
  wait_outcome ()

(* --- snapshot reads (no locks; safe against a concurrent batch) --- *)

let version t = Snapshot.version t.snap

let snapshot t =
  let ver, views = Snapshot.read t.snap in
  ( ver,
    List.map
      (fun (name, v) ->
        match (Tset.length v.v_dead, v.v_extra) with
        | 0, [] -> (name, v.v_base)
        | _ ->
          (* collapse the overlay into a standalone relation *)
          let nr =
            Relation.create ~size_hint:(max 16 v.v_count) ~name
              ~arity:(Relation.arity v.v_base) ()
          in
          view_iter_prefix v ~prefix:[||] (fun tup -> ignore (Relation.add nr tup));
          (name, nr))
      views )

let snap_view t name =
  let ver, views = Snapshot.read t.snap in
  match List.assoc_opt name views with
  | Some v -> (ver, v)
  | None -> invalid_arg (Printf.sprintf "Session: unknown relation %s" name)

let lookup t name tup =
  let ver, v = snap_view t name in
  if Array.length tup <> Relation.arity v.v_base then
    invalid_arg (Printf.sprintf "Session: arity mismatch for %s" name);
  (ver, view_mem v tup)

let count t name =
  let ver, v = snap_view t name in
  (ver, v.v_count)

let scan t ?deadline ?(prefix = [||]) name =
  let ver, v = snap_view t name in
  if Array.length prefix > 0 then
    (* remember the access pattern so the next publish of this relation
       carries a sorted index; this snapshot may still scan-filter *)
    Mutex.protect t.idx_mutex (fun () -> Hashtbl.replace t.idx_wanted name ());
  let out = ref [] in
  let n = ref 0 in
  view_iter_prefix v ~prefix (fun tup ->
      incr n;
      if !n land 255 = 0 then check_deadline deadline;
      out := tup :: !out);
  (ver, List.sort Tuple.compare !out)

let check_invariants t =
  Mutex.protect t.write_mutex (fun () -> Maintain.check_invariants t.maintain)

let predicates t = Maintain.predicates t.maintain

let is_base t name = Maintain.is_base t.maintain name

let arity t name =
  let _, v = snap_view t name in
  Relation.arity v.v_base

let stats t = t.stats

let config t = t.config

let closed t =
  match t.state with
  | Live -> false
  | Poisoned _ | Closed -> true

let close t =
  Mutex.protect t.write_mutex (fun () ->
      match t.state with
      | Closed -> ()
      | Live | Poisoned _ ->
        t.state <- Closed;
        Domain_pool.shutdown t.pool)
