(* Packed exchange frame: every delta tuple a worker produced for one
   (copy, destination) in one flush, laid out back to back in a single
   [int array].  The whole flush crosses the SPSC queue as one object —
   one heap block per frame instead of one per tuple (plus one per
   pair, plus the vector spine), and the consumer walks it as flat
   records without unpacking.

   Record layout, at stride [arity] when [contrib] is false:
     field_0 .. field_{arity-1}
   and variable-length when [contrib] is true (count/sum copies ship a
   contributor key with each tuple):
     field_0 .. field_{arity-1}; clen; c_0 .. c_{clen-1} *)

type t = {
  arity : int;
  contrib : bool;
  mutable data : int array;
  mutable used : int; (* ints consumed in [data] *)
  mutable count : int; (* records *)
}

let create ?(capacity = 64) ~arity ~contrib () =
  if arity < 0 then invalid_arg "Frame.create";
  let per = arity + if contrib then 1 else 0 in
  { arity; contrib; data = Array.make (max 1 (capacity * per)) 0; used = 0; count = 0 }

let data t = t.data

let count t = t.count

let words t = t.used

let is_empty t = t.count = 0

let clear t =
  t.used <- 0;
  t.count <- 0

let ensure t extra =
  if t.used + extra > Array.length t.data then begin
    let cap = max (t.used + extra) (max 16 (Array.length t.data * 2)) in
    let data' = Array.make cap 0 in
    Array.blit t.data 0 data' 0 t.used;
    t.data <- data'
  end

let push t (tuple : int array) (contributor : int array) =
  let clen = Array.length contributor in
  if (not t.contrib) && clen > 0 then invalid_arg "Frame.push: contributor on a plain frame";
  ensure t (t.arity + if t.contrib then 1 + clen else 0);
  Array.blit tuple 0 t.data t.used t.arity;
  t.used <- t.used + t.arity;
  if t.contrib then begin
    t.data.(t.used) <- clen;
    Array.blit contributor 0 t.data (t.used + 1) clen;
    t.used <- t.used + 1 + clen
  end;
  t.count <- t.count + 1

(* Re-pack one record out of another frame's buffer (chunk splitting,
   partial-aggregation rebuild). *)
let push_slice t (src : int array) ~toff ~clen ~coff =
  if (not t.contrib) && clen > 0 then invalid_arg "Frame.push_slice: contributor on a plain frame";
  ensure t (t.arity + if t.contrib then 1 + clen else 0);
  Array.blit src toff t.data t.used t.arity;
  t.used <- t.used + t.arity;
  if t.contrib then begin
    t.data.(t.used) <- clen;
    Array.blit src coff t.data (t.used + 1) clen;
    t.used <- t.used + 1 + clen
  end;
  t.count <- t.count + 1

let iter t f =
  let data = t.data and arity = t.arity in
  let off = ref 0 in
  if t.contrib then
    for _ = 1 to t.count do
      let toff = !off in
      let clen = data.(toff + arity) in
      f data ~toff ~clen ~coff:(toff + arity + 1);
      off := toff + arity + 1 + clen
    done
  else
    for _ = 1 to t.count do
      f data ~toff:!off ~clen:0 ~coff:0;
      off := !off + arity
    done
