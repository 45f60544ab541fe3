(* Deletable tuple table over flat storage.  Slot [s] occupies
   [stride] ints of one {!Arena} at [s * stride]: the key's [arity]
   ints, then [extra] int columns the caller owns.  A freed slot is
   threaded onto a free list through its first int and handed out
   again by the next insertion, so slots stay stable for as long as
   their key lives and the arena only grows to the largest live count.
   A bit per slot records liveness, for in-place scans.

   The probe table is open-addressed with linear probing and maps probe
   positions to slots (+1, 0 = empty).  Deletion shifts the rest of the
   probe run backwards instead of leaving tombstones, so probe lengths
   depend only on the live keys.  Hashes are not cached: growth and
   backward shifts rehash keys straight out of the arena. *)

type slot = int

type t = {
  arity : int;
  extra : int;
  stride : int;
  keys : Arena.t;
  mutable live : Bytes.t; (* one bit per slot *)
  mutable table : int array; (* slot + 1; 0 = empty *)
  mutable mask : int;
  mutable size : int;
  mutable free : int; (* first freed slot, -1 = none *)
}

let rec pow2 p n = if p >= n then p else pow2 (p * 2) n

(* probe positions for [n] keys at most 3/4 full *)
let table_size n = pow2 8 ((n * 4 / 3) + 1)

let create ?(capacity = 8) ?(extra = 0) ~arity () =
  if arity < 0 || extra < 0 then invalid_arg "Tuple_table.create";
  let stride = max 1 (arity + extra) in
  let capacity = max 1 capacity in
  let size = table_size capacity in
  {
    arity;
    extra;
    stride;
    keys = Arena.create ~capacity ~arity:stride ();
    live = Bytes.make ((capacity + 7) / 8) '\000';
    table = Array.make size 0;
    mask = size - 1;
    size = 0;
    free = -1;
  }

let arity t = t.arity

let stride t = t.stride

let length t = t.size

let slots t = Arena.length t.keys

let capacity t = Arena.capacity t.keys

let arena t = t.keys

let data t = Arena.data t.keys

let offset t s = s * t.stride

let live_bit t s = Char.code (Bytes.unsafe_get t.live (s lsr 3)) land (1 lsl (s land 7)) <> 0

let live t s = s >= 0 && s < Arena.length t.keys && live_bit t s

let set_live t s on =
  let i = s lsr 3 in
  let b = Char.code (Bytes.get t.live i) in
  let bit = 1 lsl (s land 7) in
  Bytes.set t.live i (Char.unsafe_chr (if on then b lor bit else b land lnot bit))

let hash_slot t s = Tuple.hash_slice (Arena.data t.keys) ~off:(s * t.stride) ~len:t.arity

(* the probe position holding the key at [src.(off ..)], or the empty
   position ending its run *)
let probe t (src : int array) off =
  let table = t.table and mask = t.mask and data = Arena.data t.keys in
  let k = t.arity and stride = t.stride in
  let i = ref (Tuple.hash_slice src ~off ~len:k land mask) in
  let found = ref (-1) in
  while !found < 0 do
    let e = Array.unsafe_get table !i in
    if e = 0 || Tuple.equal_slices data ((e - 1) * stride) src off k then found := !i
    else i := (!i + 1) land mask
  done;
  !found

let find_slice t src off =
  let e = t.table.(probe t src off) in
  e - 1

let find t (tup : Tuple.t) =
  if Array.length tup <> t.arity then invalid_arg "Tuple_table.find: arity mismatch";
  find_slice t tup 0

let mem_slice t src off = find_slice t src off >= 0

let rehash t size =
  let table = Array.make size 0 in
  let mask = size - 1 in
  Array.iter
    (fun e ->
      if e <> 0 then begin
        let i = ref (hash_slot t (e - 1) land mask) in
        while table.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        table.(!i) <- e
      end)
    t.table;
  t.table <- table;
  t.mask <- mask

let fit_live t =
  let need = (capacity t + 7) / 8 in
  if Bytes.length t.live < need then begin
    let b = Bytes.make need '\000' in
    Bytes.blit t.live 0 b 0 (Bytes.length t.live);
    t.live <- b
  end

let reserve t n =
  if table_size n > t.mask + 1 then rehash t (table_size n);
  Arena.reserve t.keys n;
  fit_live t

let add_slice t (src : int array) off =
  let i = probe t src off in
  let e = t.table.(i) in
  if e <> 0 then e - 1
  else begin
    let s =
      if t.free >= 0 then begin
        let s = t.free in
        t.free <- (Arena.data t.keys).(s * t.stride);
        s
      end
      else begin
        let s = Arena.alloc t.keys in
        fit_live t;
        s
      end
    in
    let data = Arena.data t.keys in
    let at = s * t.stride in
    Array.blit src off data at t.arity;
    Array.fill data (at + t.arity) t.extra 0;
    set_live t s true;
    t.size <- t.size + 1;
    if t.size * 4 > (t.mask + 1) * 3 then begin
      (* the rehash places every slot but the new one *)
      rehash t ((t.mask + 1) * 2);
      t.table.(probe t src off) <- s + 1
    end
    else t.table.(i) <- s + 1;
    s
  end

let add t (tup : Tuple.t) =
  if Array.length tup <> t.arity then invalid_arg "Tuple_table.add: arity mismatch";
  add_slice t tup 0

(* Empties probe position [i] and shifts every later entry of its run
   that may move back: an entry can fill the hole unless its home
   position lies cyclically in (hole, its position]. *)
let unlink t i =
  let table = t.table and mask = t.mask in
  table.(i) <- 0;
  let hole = ref i in
  let j = ref ((i + 1) land mask) in
  while table.(!j) <> 0 do
    let e = table.(!j) in
    let home = hash_slot t (e - 1) land mask in
    let stays = if !hole <= !j then !hole < home && home <= !j else !hole < home || home <= !j in
    if not stays then begin
      table.(!hole) <- e;
      table.(!j) <- 0;
      hole := !j
    end;
    j := (!j + 1) land mask
  done

let release t s =
  set_live t s false;
  (Arena.data t.keys).(s * t.stride) <- t.free;
  t.free <- s;
  t.size <- t.size - 1

let remove_slice t src off =
  let i = probe t src off in
  let e = t.table.(i) in
  if e = 0 then -1
  else begin
    unlink t i;
    release t (e - 1);
    e - 1
  end

let remove_slot t s =
  if not (live t s) then invalid_arg "Tuple_table.remove_slot";
  let data = Arena.data t.keys in
  let i = probe t data (s * t.stride) in
  unlink t i;
  release t s

let get t s c = (Arena.data t.keys).((s * t.stride) + t.arity + c)

let set t s c v = (Arena.data t.keys).((s * t.stride) + t.arity + c) <- v

let key t s = Array.sub (Arena.data t.keys) (s * t.stride) t.arity

let iter t f =
  for s = 0 to slots t - 1 do
    if live_bit t s then f s
  done

let iter_slices t f =
  let stride = t.stride in
  for s = 0 to slots t - 1 do
    if live_bit t s then f (Arena.data t.keys) (s * stride)
  done

let clear t =
  if t.size > 0 || slots t > 0 then begin
    Array.fill t.table 0 (t.mask + 1) 0;
    Bytes.fill t.live 0 (Bytes.length t.live) '\000';
    Arena.clear t.keys;
    t.size <- 0;
    t.free <- -1
  end

let words t =
  Array.length (Arena.data t.keys) + Array.length t.table + ((Bytes.length t.live + 7) / 8) + 16
