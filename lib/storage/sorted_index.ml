(* The live slots of one table, ascending by their rows' columns in
   [cols] order.  Rows are read from the table's arena on every probe;
   the arena's array changes only when the table grows, which the
   owner rules out while the index is in use. *)

type t = {
  tbl : Tuple_table.t;
  cols : int array;
  slots : int array;
}

let cols t = t.cols

let length t = Array.length t.slots

let rec compare_rows (data : int array) oa ob (cols : int array) i =
  if i = Array.length cols then 0
  else
    let c = cols.(i) in
    let a = data.(oa + c) and b = data.(ob + c) in
    if a < b then -1 else if a > b then 1 else compare_rows data oa ob cols (i + 1)

let create tbl ~cols =
  let arity = Tuple_table.arity tbl in
  let seen = Array.make arity false in
  let fresh c =
    c >= 0 && c < arity && (not seen.(c))
    &&
    (seen.(c) <- true;
     true)
  in
  if not (Array.length cols = arity && Array.for_all fresh cols) then
    invalid_arg "Sorted_index.create: cols must permute all columns";
  let slots = Array.make (Tuple_table.length tbl) 0 in
  let i = ref 0 in
  Tuple_table.iter tbl (fun s ->
      slots.(!i) <- s;
      incr i);
  let data = Tuple_table.data tbl and stride = Tuple_table.stride tbl in
  let cols = Array.copy cols in
  Array.stable_sort (fun a b -> compare_rows data (a * stride) (b * stride) cols 0) slots;
  { tbl; cols; slots }

(* The first [n] index columns of the row at [off] against [key]:
   negative when the row is below the key.  Callers check [n] against
   both arrays first.  Top-level recursion, like the searches below:
   these run on every leapfrog step. *)
let rec compare_key (data : int array) off (cols : int array) (key : int array) i n =
  if i = n then 0
  else
    let a = data.(off + Array.unsafe_get cols i) and b = Array.unsafe_get key i in
    if a < b then -1 else if a > b then 1 else compare_key data off cols key (i + 1) n

let below data stride (slots : int array) cols key n p =
  compare_key data (Array.unsafe_get slots p * stride) cols key 0 n < 0

(* The first position in (lo, hi] not below the key, given that [lo]
   is below it (or is -1) and [hi] is not (or is the length). *)
let rec bsearch data stride slots cols key n lo hi =
  if hi - lo <= 1 then hi
  else
    let mid = (lo + hi) lsr 1 in
    if below data stride slots cols key n mid then bsearch data stride slots cols key n mid hi
    else bsearch data stride slots cols key n lo mid

(* [lo] is below the key: probe lo+1, lo+3, lo+7, ... up to the first
   position that is not, then binary search the last step. *)
let rec gallop data stride slots cols key n lo step =
  let p = lo + step in
  if p >= Array.length slots then bsearch data stride slots cols key n lo (Array.length slots)
  else if below data stride slots cols key n p then
    gallop data stride slots cols key n p (2 * step)
  else bsearch data stride slots cols key n lo p

let check_width t key n what =
  if n < 0 || n > Array.length key || n > Array.length t.cols then
    invalid_arg ("Sorted_index." ^ what ^ ": key width")

let seek_geq t ~from key n =
  check_width t key n "seek_geq";
  let data = Tuple_table.data t.tbl and stride = Tuple_table.stride t.tbl in
  let slots = t.slots and cols = t.cols in
  let len = Array.length slots in
  if from >= 0 && from < len then
    if below data stride slots cols key n from then gallop data stride slots cols key n from 1
    else bsearch data stride slots cols key n (-1) from
  else bsearch data stride slots cols key n (-1) len

let prefix_eq t p key n =
  check_width t key n "prefix_eq";
  p >= 0
  && p < Array.length t.slots
  && compare_key (Tuple_table.data t.tbl)
       (t.slots.(p) * Tuple_table.stride t.tbl)
       t.cols key 0 n
     = 0

let value t p i = (Tuple_table.data t.tbl).((t.slots.(p) * Tuple_table.stride t.tbl) + t.cols.(i))

let iter_prefix t prefix f =
  let n = Array.length prefix in
  let p = ref (seek_geq t ~from:(length t) prefix n) in
  let data = Tuple_table.data t.tbl and stride = Tuple_table.stride t.tbl in
  let slots = t.slots in
  while !p < Array.length slots && compare_key data (slots.(!p) * stride) t.cols prefix 0 n = 0 do
    f data (slots.(!p) * stride);
    incr p
  done
