type t = int array

(* Top-level recursion throughout this file: a local [let rec] closure
   captures its environment and is heap-allocated on every call by the
   non-flambda compiler — measurably so, since these run once per probe
   on the join path.  A fully-applied top-level function compiles to a
   direct jump and allocates nothing. *)
let rec eq_range (d1 : int array) o1 (d2 : int array) o2 n =
  n = 0
  || (Array.unsafe_get d1 o1 = Array.unsafe_get d2 o2 && eq_range d1 (o1 + 1) d2 (o2 + 1) (n - 1))

let equal (a : t) (b : t) =
  let la = Array.length a in
  la = Array.length b && eq_range a 0 b 0 la

let equal_slice (a : t) (data : int array) off len = Array.length a = len && eq_range a 0 data off len

let equal_slices (d1 : int array) o1 (d2 : int array) o2 len = eq_range d1 o1 d2 o2 len

(* splitmix64 finalizer: full-width avalanche, so every input bit —
   including the low bits of small interned ids, where all the entropy
   lives — affects the whole hash word.  (The previous scheme folded
   [x lsr 32] as a second FNV step, which contributes nothing for the
   small ids the interner produces and left the high hash bits weak.)
   The multipliers are the splitmix64 constants truncated to OCaml's
   63-bit native int; products mod 2^63 depend only on the multiplier
   mod 2^63, so the truncation changes nothing about the arithmetic. *)
let mix64 x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

let fnv_prime = 0x100000001b3

let fnv_seed = 0x3bf29ce484222325

(* One value folded into the running state.  Every hash in the storage
   layer (boxed tuples, arena slices, projected key columns) goes
   through this same step so the representations collide exactly when
   the value sequences do.  The per-field step is a single multiply;
   the avalanche lives entirely in the finalizer, keeping the cost on
   the probe-heavy join path at one imul per field. *)
let[@inline] hash_step h x = (h lxor x) * fnv_prime

let[@inline] hash_finish h = mix64 h land max_int

let hash_slice (data : int array) ~off ~len =
  let h = ref fnv_seed in
  for i = off to off + len - 1 do
    h := hash_step !h (Array.unsafe_get data i)
  done;
  hash_finish !h

let hash (a : t) = hash_slice a ~off:0 ~len:(Array.length a)

let hash_int x = hash_finish (hash_step fnv_seed x)

let hash_cols (data : int array) ~base (cols : int array) =
  let h = ref fnv_seed in
  for i = 0 to Array.length cols - 1 do
    h := hash_step !h (Array.unsafe_get data (base + Array.unsafe_get cols i))
  done;
  hash_finish !h

let compare = Dcd_btree.Bptree.compare_key

let project (tup : t) cols = Array.map (fun c -> tup.(c)) cols

let group_sentinel = min_int

let group_key (data : int array) off ~arity ~agg_pos =
  let g = Array.sub data off arity in
  g.(agg_pos) <- group_sentinel;
  g

let pp fmt t =
  Format.fprintf fmt "(";
  Array.iteri (fun i x -> if i > 0 then Format.fprintf fmt ", %d" x else Format.fprintf fmt "%d" x) t;
  Format.fprintf fmt ")"

let to_string t = Format.asprintf "%a" pp t
