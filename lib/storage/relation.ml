module Vec = Dcd_util.Vec

(* A relation is n shards, each one a tuple table, and tuple t lies in
   shard [Partition.of_slice part ~cols t 0].  The shards, their
   placement and the shard columns live in one immutable layout, so a
   reader sees them change together when a sorted index merges the
   shards.  A relation never deletes, so slot [i] of a shard is the
   [i]-th distinct tuple it took and the shard's arena is a flat scan
   of it in insertion order.  A sorted index is built once over the
   one table and never updated, so a relation that holds one refuses
   inserts. *)
type layout = {
  shards : Tuple_table.t array;
  part : Partition.t; (* as many workers as shards *)
  cols : int array; (* the shard columns; [||] for one shard *)
}

(* One key-column list's slot indexes, one per shard.  [pick] holds the
   positions of the shard columns inside a probe key, in shard-column
   order, when the key holds every one of them. *)
type index = {
  key_cols : int array;
  per_shard : Slot_index.t array;
  ix_part : Partition.t;
  pick : int array option;
}

type t = {
  name : string;
  arity : int;
  mutable layout : layout;
  mutable indexes : index list;
  mutable sorted : Sorted_index.t list;
}

let single = Partition.create ~workers:1

let one_shard table = { shards = [| table |]; part = single; cols = [||] }

let create ?(size_hint = 16) ~name ~arity () =
  if arity < 0 then invalid_arg "Relation.create";
  {
    name;
    arity;
    layout = one_shard (Tuple_table.create ~capacity:size_hint ~arity ());
    indexes = [];
    sorted = [];
  }

let of_shards ~name ~arity ~cols tables =
  let n = Array.length tables in
  if n = 0 then invalid_arg "Relation.of_shards: no shards";
  Array.iter
    (fun tb ->
      if
        Tuple_table.arity tb <> arity
        || Tuple_table.stride tb <> max 1 arity
        || Tuple_table.slots tb <> Tuple_table.length tb
      then invalid_arg (Printf.sprintf "Relation.of_shards: %s: a table is not a shard" name))
    tables;
  Array.iter
    (fun c ->
      if c < 0 || c >= arity then
        invalid_arg (Printf.sprintf "Relation.of_shards: %s: shard column %d" name c))
    cols;
  let layout =
    if n = 1 then one_shard tables.(0)
    else { shards = tables; part = Partition.create ~workers:n; cols }
  in
  { name; arity; layout; indexes = []; sorted = [] }

let name t = t.name

let arity t = t.arity

let shards t = Array.length t.layout.shards

let length t = Array.fold_left (fun acc tb -> acc + Tuple_table.length tb) 0 t.layout.shards

let arenas t = Array.map Tuple_table.arena t.layout.shards

let check_arity t what tup =
  if Array.length tup <> t.arity then
    invalid_arg
      (Printf.sprintf "Relation.%s: arity mismatch on %s (got %d, want %d)" what t.name
         (Array.length tup) t.arity)

(* Links a fresh slot of the one shard into every index.  Top-level
   loops, not [List.iter] closures: these run once per inserted
   tuple. *)
let rec link_slot s = function
  | [] -> ()
  | ix :: rest ->
    Slot_index.add (Array.unsafe_get ix.per_shard 0) s;
    link_slot s rest

(* The guards are pattern matches and int compares, not [t.sorted <>
   []]: polymorphic comparison is a C call, and this runs once per
   inserted tuple. *)
let add_slice t data off =
  (match t.sorted with
  | [] -> ()
  | _ :: _ -> invalid_arg (Printf.sprintf "Relation.add: %s has a sorted index" t.name));
  let shards = t.layout.shards in
  if Array.length shards <> 1 then
    invalid_arg (Printf.sprintf "Relation.add: %s has %d shards" t.name (Array.length shards));
  let tb = Array.unsafe_get shards 0 in
  let n = Tuple_table.length tb in
  let s = Tuple_table.add_slice tb data off in
  let fresh = Tuple_table.length tb > n in
  if fresh then link_slot s t.indexes;
  fresh

let add t tup =
  check_arity t "add" tup;
  add_slice t tup 0

let mem_slice t data off =
  let l = t.layout in
  let shards = l.shards in
  if Array.length shards = 1 then Tuple_table.mem_slice (Array.unsafe_get shards 0) data off
  else Tuple_table.mem_slice shards.(Partition.of_slice l.part ~cols:l.cols data off) data off

let mem t tup = Array.length tup = t.arity && mem_slice t tup 0

let iter_slices t f =
  let shards = t.layout.shards in
  for i = 0 to Array.length shards - 1 do
    Tuple_table.iter_slices shards.(i) f
  done

let iter f t = iter_slices t (fun data off -> f (Array.sub data off t.arity))

let to_vec t =
  let v = Vec.create ~capacity:(length t) () in
  iter (Vec.push v) t;
  v

(* --- keyed indexes --- *)

let pick_of ~shard_cols ~key_cols =
  let rec pos c j =
    if j = Array.length key_cols then -1 else if key_cols.(j) = c then j else pos c (j + 1)
  in
  let p = Array.map (fun c -> pos c 0) shard_cols in
  if Array.exists (fun j -> j < 0) p then None else Some p

let build_index l key_cols =
  {
    key_cols;
    per_shard = Array.map (fun tb -> Slot_index.create tb ~cols:key_cols) l.shards;
    ix_part = l.part;
    pick = pick_of ~shard_cols:l.cols ~key_cols;
  }

let find_index t ~key_cols = List.find_opt (fun ix -> ix.key_cols = key_cols) t.indexes

let ensure_index t ~key_cols =
  match find_index t ~key_cols with
  | Some ix -> ix
  | None ->
    let ix = build_index t.layout key_cols in
    t.indexes <- ix :: t.indexes;
    ix

let slot_index ix = if Array.length ix.per_shard = 1 then Some ix.per_shard.(0) else None

let iter_index ix key f =
  let per_shard = ix.per_shard in
  if Array.length per_shard = 1 then Slot_index.iter (Array.unsafe_get per_shard 0) key f
  else
    match ix.pick with
    | Some pos -> Slot_index.iter per_shard.(Partition.of_slice ix.ix_part ~cols:pos key 0) key f
    | None ->
      for i = 0 to Array.length per_shard - 1 do
        Slot_index.iter per_shard.(i) key f
      done

(* --- sorted indexes --- *)

(* A sorted index spans one table: a sharded relation copies its shards
   into one, once, and rebuilds its keyed indexes over it.  The old
   shards and indexes stay as they were, so a pipeline that resolved a
   probe to them before the merge still reads the same tuples. *)
let merge_shards t =
  let l = t.layout in
  if Array.length l.shards > 1 then begin
    let merged = Tuple_table.create ~capacity:(length t) ~arity:t.arity () in
    iter_slices t (fun data off -> ignore (Tuple_table.add_slice merged data off));
    let l = one_shard merged in
    t.layout <- l;
    t.indexes <- List.map (fun ix -> build_index l ix.key_cols) t.indexes
  end

let find_sorted_index t ~cols =
  List.find_opt (fun si -> Sorted_index.cols si = cols) t.sorted

let ensure_sorted_index t ~cols =
  match find_sorted_index t ~cols with
  | Some si -> si
  | None ->
    merge_shards t;
    let si = Sorted_index.create t.layout.shards.(0) ~cols in
    t.sorted <- si :: t.sorted;
    si

let rec prefix_eq (data : int array) off (prefix : int array) i k =
  i = k || (data.(off + i) = prefix.(i) && prefix_eq data off prefix (i + 1) k)

(* Prefix scan for the serving read path: through the identity-order
   sorted index when one has been built (one seek and a walk over
   adjacent slots), else a scan that compares the prefix on each flat
   row.  Sessions build the index on the relations they republish, so
   the fallback covers the engine's answers and ad-hoc reads. *)
let iter_prefix t ~prefix f =
  let k = Array.length prefix in
  if k > t.arity then invalid_arg "Relation.iter_prefix: prefix longer than arity";
  if k = 0 then iter f t
  else begin
    let box data off = f (Array.sub data off t.arity) in
    match find_sorted_index t ~cols:(Array.init t.arity Fun.id) with
    | Some si -> Sorted_index.iter_prefix si prefix box
    | None -> iter_slices t (fun data off -> if prefix_eq data off prefix 0 k then box data off)
  end
