open Dcd_datalog
module Agg_table = Dcd_storage.Agg_table
module Run_buffer = Dcd_storage.Run_buffer
module Tuple_table = Dcd_storage.Tuple_table
module Slot_index = Dcd_storage.Slot_index

let agg_kind_of_ast = function
  | Ast.Min -> Agg_table.Min
  | Ast.Max -> Agg_table.Max
  | Ast.Count -> Agg_table.Count
  | Ast.Sum -> Agg_table.Sum

(* A set store never frees a slot, so its table's arena holds the tuples
   back to back in arrival order, and the tuples no [merge_run] has
   reported yet are the slots [mark, slots).  [candidates] counts the
   folds since the last [merge_run]. *)
type set = {
  table : Tuple_table.t; (* canonical order *)
  index : Slot_index.t option; (* on the route columns *)
  mutable mark : int;
  mutable candidates : int;
}

type store =
  | Set of set
  | Agg of {
      table : Agg_table.t; (* keyed by route-permuted group *)
      kind : Ast.agg_kind;
      value_pos : int;
      (* batch-sorted merge scratch: candidates staged during a drain,
         then sorted and folded in one co-sequential index walk *)
      run : Run_buffer.t;
      cache : Exist_cache.t option;
    }

type t = {
  arity : int;
  (* canonical column ids in permuted (route-first) order, without an
     aggregate's value column: an aggregate store's group key *)
  order : int array;
  store : store;
  (* reusable permuted-key buffer: an absorbed aggregate candidate
     allocates nothing; the sites that retain a key copy it *)
  scratch : int array;
}

let permuted_order ~arity ~route ~skip =
  let in_route c = Array.exists (fun r -> r = c) route in
  let rest = ref [] in
  for c = arity - 1 downto 0 do
    if (not (in_route c)) && skip <> Some c then rest := c :: !rest
  done;
  Array.append route (Array.of_list !rest)

let create ~arity ~agg ~route ?(indexed = true) ?(optimized = true) () =
  let order = permuted_order ~arity ~route ~skip:(Option.map fst agg) in
  let store =
    match agg with
    | None ->
      let table = Tuple_table.create ~arity () in
      let index = if indexed then Some (Slot_index.create table ~cols:route) else None in
      Set { table; index; mark = 0; candidates = 0 }
    | Some (value_pos, kind) ->
      Agg
        {
          table =
            Agg_table.create
              ~backend:(if optimized then Agg_table.Indexed else Agg_table.Scan)
              ~kind:(agg_kind_of_ast kind)
              ~group_arity:(arity - 1) ();
          kind;
          value_pos;
          (* aggregate copies' frames carry a contributor suffix (empty
             for min/max), matching Exchange.contrib *)
          run = Run_buffer.create ~arity ~contrib:true ~key_cols:order ();
          cache = (if optimized then Some (Exist_cache.create ()) else None);
        }
  in
  { arity; order; store; scratch = Array.make (Array.length order) 0 }

let table t = match t.store with Set s -> Some s.table | Agg _ -> None

let index t = match t.store with Set s -> s.index | Agg _ -> None

(* Fills the scratch buffer with the route-permuted key of the tuple
   stored flat at [data.(off ..)] and returns it.  Valid until the next
   [permute] on the same store. *)
let permute t (data : int array) off =
  let k = t.scratch and order = t.order in
  for i = 0 to Array.length order - 1 do
    Array.unsafe_set k i (Array.unsafe_get data (off + Array.unsafe_get order i))
  done;
  k

(* Rebuilds a canonical tuple from a permuted group key and the
   aggregate value. *)
let canonical_of_group t group value value_pos =
  let out = Array.make t.arity 0 in
  Array.iteri (fun i c -> out.(c) <- group.(i)) t.order;
  out.(value_pos) <- value;
  out

let absorbed_by_cache kind cached candidate =
  match kind with
  | Ast.Min -> candidate >= cached
  | Ast.Max -> candidate <= cached
  | Ast.Count | Ast.Sum -> false (* contributor dedup must still run *)

(* One hash probe: the tuple is new exactly when the table grows.  The
   slot if new, else -1. *)
let fold s data off =
  let n = Tuple_table.slots s.table in
  let slot = Tuple_table.add_slice s.table data off in
  if slot < n then -1
  else begin
    (match s.index with Some ix -> Slot_index.add ix slot | None -> ());
    slot
  end

(* Core merge over flat cursors: [data.(off ..)] is the candidate in
   canonical order, [cdata.(coff .. coff+clen-1)] its contributor key
   (clen = 0 for none).  Both are read transiently — everything retained
   (table row, cache key, agg contributor) is copied here, so the
   caller may pass scratch buffers or packed-frame slices directly. *)
let merge_slice t ~data ~off ~cdata ~coff ~clen =
  match t.store with
  | Set s ->
    if s.mark < Tuple_table.slots s.table then
      invalid_arg "Rec_store.merge_slice: staged folds not yet reported by merge_run";
    let slot = fold s data off in
    if slot < 0 then None
    else begin
      s.mark <- slot + 1;
      Some (Array.sub data off t.arity)
    end
  | Agg { table; kind; value_pos; cache; _ } -> (
    let group = permute t data off in
    let v = data.(off + value_pos) in
    let cache_absorbs =
      match cache with
      | Some c -> (
        match Exist_cache.find c group with
        | Some cached -> absorbed_by_cache kind cached v
        | None -> false)
      | None -> false
    in
    if cache_absorbs then None
    else begin
      let contributor = if clen = 0 then None else Some (Array.sub cdata coff clen) in
      match Agg_table.merge table ~group ?contributor v with
      | None -> None (* cache entries are only refreshed on change: any
                        cached value remains a sound monotone bound *)
      | Some updated ->
        (match cache with Some c -> Exist_cache.put c (Array.copy group) updated | None -> ());
        Some (canonical_of_group t group updated value_pos)
    end)

let merge t ~tuple ~contributor =
  merge_slice t ~data:tuple ~off:0 ~cdata:contributor ~coff:0
    ~clen:(Array.length contributor)

(* --- the drain's path --- *)

(* A set store folds the candidate at once.  An aggregate store stages
   it into the run unless the existence cache absorbs it; the index is
   not touched until [merge_run]. *)
let stage_slice t ~data ~off ~cdata ~coff ~clen =
  match t.store with
  | Set s ->
    s.candidates <- s.candidates + 1;
    ignore (fold s data off)
  | Agg { kind; value_pos; run; cache; _ } ->
    let absorbed =
      match cache with
      | Some c -> (
        match Exist_cache.find c (permute t data off) with
        | Some cached -> absorbed_by_cache kind cached data.(off + value_pos)
        | None -> false)
      | None -> false
    in
    if not absorbed then Run_buffer.stage_slice run ~data ~off ~cdata ~coff ~clen

let staged t =
  match t.store with Set s -> s.candidates | Agg { run; _ } -> Run_buffer.length run

(* An aggregate run is sorted by permuted key (stable on ties),
   normalized and pre-combined per group, then folded in one
   co-sequential B⁺-tree walk ([Agg_table.apply_sorted]). *)
let merge_agg_run t table value_pos run cache ~on_fresh =
  let n = Run_buffer.length run in
  Run_buffer.sort run;
  let pool = Run_buffer.data run in
  let akind = Agg_table.kind table in
  let groups = Array.make n [||] in
  let values = Array.make n 0 in
  let g = ref 0 in
  let i = ref 0 in
  while !i < n do
    let s = !i in
    let group = Run_buffer.key run s in
    (* normalize the group's candidates in staging order (the sort is
       stable), so Sum's last-contribution-wins replacement matches the
       per-tuple path, then pre-combine survivors *)
    let acc = ref None in
    let j = ref s in
    let more = ref true in
    while !more do
      let o = Run_buffer.off run !j in
      let v = pool.(o + value_pos) in
      let cl = Run_buffer.clen run !j in
      let contributor =
        if cl = 0 then None else Some (Array.sub pool (Run_buffer.coff run !j) cl)
      in
      (match Agg_table.normalize_candidate table ~group ?contributor v with
      | None -> ()
      | Some nv -> acc := Some (match !acc with None -> nv | Some a -> Agg_table.combine akind a nv));
      incr j;
      if !j >= n || not (Run_buffer.equal_keys run (!j - 1) !j) then more := false
    done;
    (match !acc with
    | Some v ->
      groups.(!g) <- group;
      values.(!g) <- v;
      incr g
    | None -> ());
    i := !j
  done;
  let m = !g in
  Agg_table.apply_sorted table ~n:m
    ~group:(fun i -> groups.(i))
    ~value:(fun i -> values.(i))
    ~changed:(fun i v' ->
      (* cache refreshed only on change, like the per-tuple path: stale
         cached values stay sound monotone bounds *)
      (match cache with Some c -> Exist_cache.put c groups.(i) v' | None -> ());
      on_fresh (canonical_of_group t groups.(i) v' value_pos) 0);
  Run_buffer.clear run;
  (m, n - m)

let merge_run t ~on_fresh =
  match t.store with
  | Set s ->
    let slots = Tuple_table.slots s.table in
    let data = Tuple_table.data s.table and stride = Tuple_table.stride s.table in
    for slot = s.mark to slots - 1 do
      on_fresh data (slot * stride)
    done;
    let fresh = slots - s.mark in
    let dups = s.candidates - fresh in
    s.mark <- slots;
    s.candidates <- 0;
    (fresh, dups)
  | Agg { table; value_pos; run; cache; _ } ->
    if Run_buffer.is_empty run then (0, 0)
    else merge_agg_run t table value_pos run cache ~on_fresh

let iter_matches t ~key f =
  match t.store with
  | Set { index = Some ix; _ } -> Slot_index.iter ix key f
  | Set { index = None; _ } -> invalid_arg "Rec_store.iter_matches: set store without an index"
  | Agg { table; value_pos; _ } ->
    Agg_table.iter_prefix table ~prefix:key (fun group v ->
        f (canonical_of_group t group v value_pos) 0)

let iter t f =
  match t.store with
  | Set s -> Tuple_table.iter_slices s.table f
  | Agg { table; value_pos; _ } ->
    Agg_table.iter table (fun group v -> f (canonical_of_group t group v value_pos) 0)

let length t =
  match t.store with
  | Set s -> Tuple_table.length s.table
  | Agg { table; _ } -> Agg_table.length table

let cache_stats t =
  match t.store with
  | Agg { cache = Some c; _ } -> Some (Exist_cache.hits c, Exist_cache.misses c)
  | Agg { cache = None; _ } | Set _ -> None

(* --- checkpoint snapshot / rollback --- *)

type snapshot =
  | Snap_set of int (* slot count *)
  | Snap_agg of Agg_table.snapshot

(* A set store's cut must hold only reported tuples: a fold that no
   [merge_run] reported is in no delta the epoch banks, so a run
   resumed from the cut would keep the tuple but never derive its
   consequences. *)
let snapshot t =
  match t.store with
  | Set s ->
    let slots = Tuple_table.slots s.table in
    if s.mark < slots then invalid_arg "Rec_store.snapshot: folds not yet reported by merge_run";
    Snap_set slots
  | Agg { table; _ } -> Snap_agg (Agg_table.snapshot table)

(* Restores the store to the snapshotted state, returning the number of
   tuples (set) / groups (aggregate) rolled back.  A set store refills
   its table and index in place from a copy of the surviving prefix of
   its arena, so pipelines that hold its index stay valid.  An
   aggregate store drops its existence cache wholesale: a cached entry
   can describe state newer than the restored store — for a monotone
   aggregate even a bound that no longer holds — and would silently
   absorb candidates that must re-derive.  Candidates staged or folded
   but not yet reported belong to the crashed round and are dropped
   too. *)
let rollback t snap =
  match (t.store, snap) with
  | Set s, Snap_set wm ->
    let rolled = Tuple_table.slots s.table - wm in
    if rolled < 0 then invalid_arg "Rec_store.rollback: snapshot ahead of the store";
    let stride = Tuple_table.stride s.table in
    let prefix = Array.sub (Tuple_table.data s.table) 0 (wm * stride) in
    Tuple_table.clear s.table;
    Option.iter Slot_index.clear s.index;
    for slot = 0 to wm - 1 do
      ignore (fold s prefix (slot * stride))
    done;
    s.mark <- wm;
    s.candidates <- 0;
    rolled
  | Agg { table; run; cache; _ }, Snap_agg sn ->
    Run_buffer.clear run;
    (match cache with Some c -> Exist_cache.clear c | None -> ());
    let before = Agg_table.length table in
    Agg_table.restore table sn;
    max 0 (before - Agg_table.length table)
  | Set _, Snap_agg _ | Agg _, Snap_set _ ->
    invalid_arg "Rec_store.rollback: snapshot shape mismatch"
