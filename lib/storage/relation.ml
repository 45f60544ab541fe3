module Vec = Dcd_util.Vec
module Bptree = Dcd_btree.Bptree

(* A sorted index stores each tuple re-ordered by [si_cols] (a full
   permutation of the columns) as a composite B⁺-tree key, giving the
   generic-join path trie iteration in that column order.  [si_scratch]
   is the permutation buffer — [Bptree] copies keys defensively. *)
type sorted_index = {
  si_cols : int array;
  si_tree : unit Bptree.t;
  si_scratch : int array;
}

(* The tuples live once, in the slots of one table: a relation never
   deletes, so slot [i] is the [i]-th distinct tuple added and the
   table's arena is a flat scan of the relation in insertion order. *)
type t = {
  name : string;
  arity : int;
  tuples : Tuple_table.t;
  mutable indexes : Slot_index.t list;
  mutable sorted : sorted_index list;
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

let rec add_sorted (data : int array) off = function
  | [] -> ()
  | si :: rest ->
    for i = 0 to Array.length si.si_cols - 1 do
      si.si_scratch.(i) <- data.(off + si.si_cols.(i))
    done;
    ignore (Bptree.add_if_absent si.si_tree si.si_scratch ());
    add_sorted data off rest

let add_slice t data off =
  let n = Tuple_table.length t.tuples in
  let s = Tuple_table.add_slice t.tuples data off in
  let fresh = Tuple_table.length t.tuples > n in
  if fresh then begin
    link_slot s t.indexes;
    add_sorted data off t.sorted
  end;
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
  List.find_map (fun si -> if si.si_cols = cols then Some si.si_tree else None) t.sorted

let rec prefix_eq (data : int array) off (prefix : int array) i k =
  i = k || (data.(off + i) = prefix.(i) && prefix_eq data off prefix (i + 1) k)

(* Prefix scan for the serving read path: through the identity-order
   sorted trie when one has been built (one seek + a leaf walk), else a
   scan that compares the prefix on each flat row and boxes only the
   matches.  Sessions pre-build the trie on served relations, so the
   fallback only covers ad-hoc reads. *)
let iter_prefix t ~prefix f =
  let k = Array.length prefix in
  if k > t.arity then invalid_arg "Relation.iter_prefix: prefix longer than arity";
  if k = 0 then iter f t
  else begin
    let identity = Array.init t.arity (fun i -> i) in
    match find_sorted_index t ~cols:identity with
    | Some tree -> Bptree.iter_prefix tree ~prefix (fun key () -> f key)
    | None ->
      iter_slices t (fun data off ->
          if prefix_eq data off prefix 0 k then f (Array.sub data off t.arity))
  end

let ensure_sorted_index t ~cols =
  if Array.length cols <> t.arity then invalid_arg "Relation.ensure_sorted_index";
  match find_sorted_index t ~cols with
  | Some tree -> tree
  | None ->
    (* bulk path: permute every stored tuple, sort once, load at high
       fill with [of_sorted] — distinct tuples stay distinct under a
       full column permutation, so keys are strictly increasing *)
    let n = length t in
    let keys = Array.make n [||] in
    let i = ref 0 in
    iter_slices t (fun data off ->
        keys.(!i) <- Array.map (fun c -> data.(off + c)) cols;
        incr i);
    Array.sort Bptree.compare_key keys;
    let entries = Array.map (fun k -> (k, ())) keys in
    let tree = Bptree.of_sorted entries in
    t.sorted <- { si_cols = Array.copy cols; si_tree = tree; si_scratch = Array.make t.arity 0 } :: t.sorted;
    tree
