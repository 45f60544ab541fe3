module Relation = Dcd_storage.Relation
module Vec = Dcd_util.Vec

type t = { mutable rels : (string * Relation.t) list }

let create () = { rels = [] }

let find t name = List.assoc_opt name t.rels

let add_relation t rel =
  t.rels <- (Relation.name rel, rel) :: List.remove_assoc (Relation.name rel) t.rels

let ensure ?size_hint t ~name ~arity =
  match find t name with
  | Some rel ->
    if Relation.arity rel <> arity then
      invalid_arg (Printf.sprintf "Catalog.ensure: %s has arity %d, wanted %d" name
           (Relation.arity rel) arity);
    rel
  | None ->
    let rel = Relation.create ?size_hint ~name ~arity () in
    add_relation t rel;
    rel

let load t ~name ~arity tuples =
  let rel = ensure ~size_hint:(Vec.length tuples) t ~name ~arity in
  Vec.iter (fun tup -> ignore (Relation.add rel tup)) tuples

let get t name =
  match find t name with
  | Some rel -> rel
  | None -> invalid_arg (Printf.sprintf "Catalog.get: unknown relation %s" name)

let names t = List.map fst t.rels
