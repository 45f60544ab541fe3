(* Fixed-stride flat tuple arena: one growable [int array] holding all
   tuples of arity [k] back to back at stride [k].  A tuple is
   identified by its slot (insertion index); its fields live at
   [data.(slot * k .. slot * k + k - 1)].  No per-tuple heap object
   exists — the join kernel, the tuple tables and the delta scans all
   read fields straight out of [data] through an offset. *)

type slot = int

type t = {
  arity : int;
  mutable data : int array;
  mutable count : int; (* tuples *)
}

let create ?(capacity = 16) ~arity () =
  if arity < 0 then invalid_arg "Arena.create";
  { arity; data = Array.make (max 1 (capacity * arity)) 0; count = 0 }

let arity t = t.arity

let length t = t.count

let is_empty t = t.count = 0

let data t = t.data

let ensure t extra_tuples =
  let need = (t.count + extra_tuples) * t.arity in
  if need > Array.length t.data then begin
    let cap = max need (max 16 (Array.length t.data * 2)) in
    let data' = Array.make cap 0 in
    Array.blit t.data 0 data' 0 (t.count * t.arity);
    t.data <- data'
  end

let capacity t = if t.arity = 0 then max_int else Array.length t.data / t.arity

let reserve t tuples = if tuples > t.count then ensure t (tuples - t.count)

let alloc t =
  ensure t 1;
  let slot = t.count in
  t.count <- slot + 1;
  slot

let push t (tup : Tuple.t) =
  if Array.length tup <> t.arity then invalid_arg "Arena.push: arity mismatch";
  ensure t 1;
  Array.blit tup 0 t.data (t.count * t.arity) t.arity;
  let slot = t.count in
  t.count <- slot + 1;
  slot

let push_slice t (src : int array) off =
  ensure t 1;
  Array.blit src off t.data (t.count * t.arity) t.arity;
  let slot = t.count in
  t.count <- slot + 1;
  slot

(* One blit for [n] tuples: the consumer side of a packed delta frame. *)
let append_block t (src : int array) ~off ~tuples =
  ensure t tuples;
  Array.blit src off t.data (t.count * t.arity) (tuples * t.arity);
  let first = t.count in
  t.count <- first + tuples;
  first

let set_slot t slot (src : int array) off =
  if slot < 0 || slot >= t.count then invalid_arg "Arena.set_slot";
  Array.blit src off t.data (slot * t.arity) t.arity

let get t slot =
  if slot < 0 || slot >= t.count then invalid_arg "Arena.get";
  Array.sub t.data (slot * t.arity) t.arity

let read t slot col = t.data.(slot * t.arity + col)

let iter_slices t f =
  let data = t.data and k = t.arity in
  let off = ref 0 in
  for _ = 1 to t.count do
    f data !off;
    off := !off + k
  done

let clear t = t.count <- 0

(* Rollback to a recovery watermark: slots >= [count] become invalid,
   the surviving prefix keeps its slots and contents.  The backing
   buffer is retained (no shrink) — a recovered run re-fills it. *)
let truncate t ~count =
  if count < 0 || count > t.count then invalid_arg "Arena.truncate";
  t.count <- count
