module Key_tbl = Hashtbl.Make (struct
  type t = Dcd_storage.Tuple.t

  let equal = Dcd_storage.Tuple.equal
  let hash = Dcd_storage.Tuple.hash
end)

type t = {
  table : int Key_tbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 1024) () = { table = Key_tbl.create capacity; hits = 0; misses = 0 }

let find t key =
  match Key_tbl.find_opt t.table key with
  | Some v ->
    t.hits <- t.hits + 1;
    Some v
  | None ->
    t.misses <- t.misses + 1;
    None

let put t key v = Key_tbl.replace t.table key v

(* Recovery rollback: cached values may describe state newer than the
   restored store (for a monotone aggregate even a *bound* that no
   longer holds, which would wrongly absorb re-derived candidates), so
   the whole table is dropped.  Hit/miss counters survive — they are
   cumulative run diagnostics, not correctness state. *)
let clear t = Key_tbl.reset t.table

let length t = Key_tbl.length t.table

let hits t = t.hits

let misses t = t.misses
