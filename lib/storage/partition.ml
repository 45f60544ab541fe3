module Vec = Dcd_util.Vec

(* unboxed: a placement costs no load beyond the key columns *)
type t = { workers : int } [@@unboxed]

let create ~workers =
  if workers < 1 then invalid_arg "Partition.create";
  { workers }

let workers t = t.workers

(* The partition hash is Tuple's: an FNV-1a fold over the key columns
   finished with the splitmix64 avalanche.  The previous scheme (one
   golden-ratio multiply, take high bits) has no avalanche — structured
   key streams (sequential vertex ids, strided ids from generators)
   alias onto few residues once reduced mod [workers], which is exactly
   the skew the discriminating hash exists to prevent.  Going through
   [Tuple.hash_int]/[Tuple.hash_cols] also makes partition placement
   consistent with every other hash in the storage layer. *)
let of_key t k = Tuple.hash_int k mod t.workers

let of_slice t ~cols data off = Tuple.hash_cols data ~base:off cols mod t.workers

let of_tuple t ~cols tup = of_slice t ~cols tup 0

let split t batch ~cols =
  let parts = Array.init t.workers (fun _ -> Vec.create ()) in
  Vec.iter (fun tup -> Vec.push parts.(of_tuple t ~cols tup) tup) batch;
  parts
