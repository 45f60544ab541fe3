(* Per-key chains over the slots of one table: [keys] maps each
   projected key to the first slot and the length of its chain, and
   the link columns thread the member slots in both directions, so a
   member unlinks in O(1).  A key leaves [keys] as soon as its chain
   empties.  Unlinked indexes keep the lengths alone. *)

type t = {
  tbl : Tuple_table.t; (* the members *)
  cols : int array; (* member columns forming the key *)
  keys : Tuple_table.t; (* key -> [head; len] *)
  kbuf : int array; (* projection scratch, writer only *)
  linked : bool;
  mutable next : int array; (* member slot -> next member, -1 ends *)
  mutable prev : int array; (* member slot -> previous member, -1 heads *)
}

(* extra columns of a key *)
let c_head = 0
let c_len = 1

let cols t = t.cols

let project t (data : int array) off =
  let cols = t.cols and k = t.kbuf in
  for i = 0 to Array.length cols - 1 do
    k.(i) <- data.(off + cols.(i))
  done

(* Grows the link columns to cover every slot the table can hand out
   before its next growth. *)
let fit t s =
  if s >= Array.length t.next then begin
    let cap = max (s + 1) (Tuple_table.capacity t.tbl) in
    let grow a =
      let a' = Array.make cap (-1) in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    t.next <- grow t.next;
    t.prev <- grow t.prev
  end

let add t s =
  let tbl = t.tbl in
  project t (Tuple_table.data tbl) (Tuple_table.offset tbl s);
  let keys = t.keys in
  let ks = Tuple_table.add_slice keys t.kbuf 0 in
  let n = Tuple_table.get keys ks c_len in
  if t.linked then begin
    fit t s;
    let h = if n = 0 then -1 else Tuple_table.get keys ks c_head in
    t.next.(s) <- h;
    t.prev.(s) <- -1;
    if h >= 0 then t.prev.(h) <- s;
    Tuple_table.set keys ks c_head s
  end;
  Tuple_table.set keys ks c_len (n + 1)

let remove t s =
  let tbl = t.tbl in
  project t (Tuple_table.data tbl) (Tuple_table.offset tbl s);
  let keys = t.keys in
  let ks = Tuple_table.find_slice keys t.kbuf 0 in
  if ks < 0 then invalid_arg "Slot_index.remove: unlinking a member from a missing chain";
  if t.linked then begin
    let p = t.prev.(s) and nx = t.next.(s) in
    if p >= 0 then t.next.(p) <- nx else Tuple_table.set keys ks c_head nx;
    if nx >= 0 then t.prev.(nx) <- p
  end;
  let n = Tuple_table.get keys ks c_len - 1 in
  if n = 0 then Tuple_table.remove_slot keys ks else Tuple_table.set keys ks c_len n

let create ?(linked = true) tbl ~cols =
  let t =
    {
      tbl;
      cols = Array.copy cols;
      keys = Tuple_table.create ~extra:2 ~arity:(Array.length cols) ();
      kbuf = Array.make (Array.length cols) 0;
      linked;
      next = (if linked then Array.make (Tuple_table.capacity tbl) (-1) else [||]);
      prev = (if linked then Array.make (Tuple_table.capacity tbl) (-1) else [||]);
    }
  in
  Tuple_table.iter tbl (add t);
  t

let clear t = Tuple_table.clear t.keys

let head t key =
  let ks = Tuple_table.find_slice t.keys key 0 in
  if ks < 0 then -1 else Tuple_table.get t.keys ks c_head

let next t s = t.next.(s)

let count t key =
  let ks = Tuple_table.find_slice t.keys key 0 in
  if ks < 0 then 0 else Tuple_table.get t.keys ks c_len

(* The next link is read before [f] runs, so that its cache miss
   overlaps the caller's work on the current member. *)
let iter t key f =
  let s = ref (head t key) in
  if !s >= 0 then begin
    let data = Tuple_table.data t.tbl and stride = Tuple_table.stride t.tbl in
    let next = t.next in
    while !s >= 0 do
      let cur = !s in
      s := next.(cur);
      f data (cur * stride)
    done
  end

let check t =
  let exception Broken of string in
  let broken fmt = Printf.ksprintf (fun s -> raise (Broken s)) fmt in
  let tbl = t.tbl and keys = t.keys in
  let tally = Array.make (Tuple_table.slots keys) 0 in
  match
    Tuple_table.iter_slices tbl (fun data off ->
        project t data off;
        let ks = Tuple_table.find_slice keys t.kbuf 0 in
        if ks < 0 then
          broken "%s has no chain" (Tuple.to_string (Array.sub data off (Tuple_table.arity tbl)));
        tally.(ks) <- tally.(ks) + 1);
    let seen = Bytes.make (Tuple_table.slots tbl) '\000' in
    Tuple_table.iter keys (fun ks ->
        let n = Tuple_table.get keys ks c_len in
        if n <= 0 then broken "a key with an empty chain survives";
        if n <> tally.(ks) then broken "chain length %d, %d members carry its key" n tally.(ks);
        if t.linked then begin
          let walked = ref 0 and prev = ref (-1) in
          let s = ref (Tuple_table.get keys ks c_head) in
          while !s >= 0 do
            let m = !s in
            if not (Tuple_table.live tbl m) then broken "a chain holds a freed slot";
            if Bytes.get seen m <> '\000' then broken "a slot sits in a chain twice";
            Bytes.set seen m '\001';
            if t.prev.(m) <> !prev then broken "broken back link";
            project t (Tuple_table.data tbl) (Tuple_table.offset tbl m);
            if Tuple_table.find_slice keys t.kbuf 0 <> ks then
              broken "a slot is chained under another key";
            incr walked;
            prev := m;
            s := t.next.(m)
          done;
          if !walked <> n then broken "chain walks %d members, length says %d" !walked n
        end)
  with
  | () -> Ok ()
  | exception Broken msg -> Error msg

let words t = Tuple_table.words t.keys + Array.length t.next + Array.length t.prev
