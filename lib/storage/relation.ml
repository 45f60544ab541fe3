module Vec = Dcd_util.Vec

(* The tuples live once, in the slots of one table: a relation never
   deletes, so slot [i] is the [i]-th distinct tuple added and the
   table's arena is a flat scan of the relation in insertion order.
   A sorted index is built once over the table and never updated, so a
   relation that holds one refuses inserts. *)
type t = {
  name : string;
  arity : int;
  tuples : Tuple_table.t;
  mutable indexes : Slot_index.t list;
  mutable sorted : Sorted_index.t list;
}

let create ?(size_hint = 16) ~name ~arity () =
  if arity < 0 then invalid_arg "Relation.create";
  { name; arity; tuples = Tuple_table.create ~capacity:size_hint ~arity (); indexes = []; sorted = [] }

let name t = t.name

let arity t = t.arity

let length t = Tuple_table.length t.tuples

let arena t = Tuple_table.arena t.tuples

let check_arity t what tup =
  if Array.length tup <> t.arity then
    invalid_arg
      (Printf.sprintf "Relation.%s: arity mismatch on %s (got %d, want %d)" what t.name
         (Array.length tup) t.arity)

(* Links a fresh slot into every index.  Top-level loops, not
   [List.iter] closures: these run once per inserted tuple. *)
let rec link_slot s = function
  | [] -> ()
  | ix :: rest ->
    Slot_index.add ix s;
    link_slot s rest

(* The guard is a pattern match, not [t.sorted <> []]: polymorphic
   comparison is a C call, and this runs once per inserted tuple. *)
let add_slice t data off =
  (match t.sorted with
  | [] -> ()
  | _ :: _ -> invalid_arg (Printf.sprintf "Relation.add: %s has a sorted index" t.name));
  let n = Tuple_table.length t.tuples in
  let s = Tuple_table.add_slice t.tuples data off in
  let fresh = Tuple_table.length t.tuples > n in
  if fresh then link_slot s t.indexes;
  fresh

let add t tup =
  check_arity t "add" tup;
  add_slice t tup 0

let mem_slice t data off = Tuple_table.mem_slice t.tuples data off

let mem t tup = Array.length tup = t.arity && mem_slice t tup 0

let iter_slices t f = Tuple_table.iter_slices t.tuples f

let iter f t = iter_slices t (fun data off -> f (Array.sub data off t.arity))

let to_vec t =
  let v = Vec.create ~capacity:(length t) () in
  iter (Vec.push v) t;
  v

let find_index t ~key_cols =
  List.find_opt (fun ix -> Slot_index.cols ix = key_cols) t.indexes

let ensure_index t ~key_cols =
  match find_index t ~key_cols with
  | Some ix -> ix
  | None ->
    let ix = Slot_index.create t.tuples ~cols:key_cols in
    t.indexes <- ix :: t.indexes;
    ix

let find_sorted_index t ~cols =
  List.find_opt (fun si -> Sorted_index.cols si = cols) t.sorted

let ensure_sorted_index t ~cols =
  match find_sorted_index t ~cols with
  | Some si -> si
  | None ->
    let si = Sorted_index.create t.tuples ~cols in
    t.sorted <- si :: t.sorted;
    si

let rec prefix_eq (data : int array) off (prefix : int array) i k =
  i = k || (data.(off + i) = prefix.(i) && prefix_eq data off prefix (i + 1) k)

(* Prefix scan for the serving read path: through the identity-order
   sorted index when one has been built (one seek and a walk over
   adjacent slots), else a scan that compares the prefix on each flat
   row.  Sessions pre-build the index on served relations, so the
   fallback only covers ad-hoc reads. *)
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
