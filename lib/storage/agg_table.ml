module Vec = Dcd_util.Vec
module Bptree = Dcd_btree.Bptree

type kind =
  | Min
  | Max
  | Count
  | Sum

type backend =
  | Indexed
  | Scan

type entry = {
  gkey : Tuple.t;
  mutable value : int;
}

type store =
  | Tree of int Bptree.t
  | Flat of entry Vec.t

(* The (group ++ contributor) keys seen, Count and Sum only: one table
   per key width, because rules may emit contributors of different
   widths into one aggregate.  A Sum key carries its contributor's
   current partial value as an extra column. *)
type t = {
  kind : kind;
  group_arity : int;
  mutable store : store; (* reassigned only by checkpoint [restore] *)
  mutable contribs : Tuple_table.t list;
  mutable kbuf : int array; (* key scratch *)
}

let create ?(backend = Indexed) ~kind ~group_arity () =
  if group_arity < 0 then invalid_arg "Agg_table.create";
  let store =
    match backend with
    | Indexed -> Tree (Bptree.create ())
    | Scan -> Flat (Vec.create ())
  in
  { kind; group_arity; store; contribs = []; kbuf = [||] }

let kind t = t.kind

let group_arity t = t.group_arity

let length t =
  match t.store with
  | Tree tree -> Bptree.length tree
  | Flat v -> Vec.length v

let find t group =
  match t.store with
  | Tree tree -> Bptree.find_opt tree group
  | Flat v ->
    let found = ref None in
    Vec.iter (fun e -> if !found = None && Tuple.equal e.gkey group then found := Some e.value) v;
    !found

let better kind current candidate =
  match kind with
  | Min -> candidate < current
  | Max -> candidate > current
  | Count | Sum -> candidate <> 0 (* candidate is a non-zero delta to add *)

(* the contributor table for keys of [width] ints *)
let contrib_table t width =
  match List.find_opt (fun tb -> Tuple_table.arity tb = width) t.contribs with
  | Some tb -> tb
  | None ->
    let extra = if t.kind = Sum then 1 else 0 in
    let tb = Tuple_table.create ~extra ~arity:width () in
    t.contribs <- tb :: t.contribs;
    tb

(* [kbuf] := group ++ contributor; the table for that width *)
let contrib_key t (group : Tuple.t) (contributor : Tuple.t) =
  let g = Array.length group and c = Array.length contributor in
  if Array.length t.kbuf < g + c then t.kbuf <- Array.make (g + c) 0;
  Array.blit group 0 t.kbuf 0 g;
  Array.blit contributor 0 t.kbuf g c;
  contrib_table t (g + c)

(* Normalizes a candidate: applies contribution dedup/replacement and
   converts Count/Sum candidates into additive deltas.  [None] =
   absorbed.

   Sum keeps the current partial value per (group, contributor) — the
   paper's first PageRank index (§6.2.1) — so a changed contribution
   adds only the difference to the aggregate.  Count keeps set
   semantics: each (group, contributor) is counted exactly once. *)
let normalize t ~group ~contributor v =
  match t.kind with
  | Min | Max ->
    if contributor <> None then invalid_arg "Agg_table.merge: contributor not allowed for min/max";
    Some v
  | Count ->
    let contributor =
      match contributor with
      | Some c -> c
      | None -> invalid_arg "Agg_table.merge: contributor required for count"
    in
    let tb = contrib_key t group contributor in
    let n = Tuple_table.length tb in
    ignore (Tuple_table.add_slice tb t.kbuf 0);
    if Tuple_table.length tb > n then Some 1 else None
  | Sum ->
    let contributor =
      match contributor with
      | Some c -> c
      | None -> invalid_arg "Agg_table.merge: contributor required for sum"
    in
    let tb = contrib_key t group contributor in
    let s = Tuple_table.find_slice tb t.kbuf 0 in
    let old = if s < 0 then 0 else Tuple_table.get tb s 0 in
    if old = v && s >= 0 then None
    else begin
      let s = if s < 0 then Tuple_table.add_slice tb t.kbuf 0 else s in
      Tuple_table.set tb s 0 v;
      let delta = v - old in
      if delta = 0 then None else Some delta
    end

let apply_tree t tree group v =
  let changed = ref None in
  Bptree.upsert tree group (fun current ->
      match current with
      | None ->
        changed := Some v;
        v
      | Some cur ->
        if better t.kind cur v then begin
          let v' = match t.kind with Min | Max -> v | Count | Sum -> cur + v in
          changed := Some v';
          v'
        end
        else cur);
  !changed

let apply_flat t flat group v =
  let entry = ref None in
  Vec.iter (fun e -> if !entry = None && Tuple.equal e.gkey group then entry := Some e) flat;
  match !entry with
  | None ->
    Vec.push flat { gkey = Array.copy group; value = v };
    Some v
  | Some e ->
    if better t.kind e.value v then begin
      (match t.kind with
      | Min | Max -> e.value <- v
      | Count | Sum -> e.value <- e.value + v);
      Some e.value
    end
    else None

let merge t ~group ?contributor v =
  match normalize t ~group ~contributor v with
  | None -> None
  | Some v -> (
    match t.store with
    | Tree tree -> apply_tree t tree group v
    | Flat flat -> apply_flat t flat group v)

let normalize_candidate t ~group ?contributor v = normalize t ~group ~contributor v

let combine kind a b =
  match kind with
  | Min -> min a b
  | Max -> max a b
  | Count | Sum -> a + b

let apply_sorted t ~n ~group ~value ~changed =
  match t.store with
  | Tree tree ->
    (* one co-sequential leaf walk for the whole run: the group keys are
       strictly increasing, so the B⁺-tree merge does one descent per
       leaf segment instead of one upsert per group *)
    Bptree.merge_sorted_slice tree ~n ~key:group ~merge:(fun i cur ->
        let v = value i in
        match cur with
        | None ->
          changed i v;
          Some v
        | Some cur ->
          if better t.kind cur v then begin
            let v' = match t.kind with Min | Max -> v | Count | Sum -> cur + v in
            changed i v';
            Some v'
          end
          else None)
  | Flat flat ->
    (* unoptimized backend: per-group linear passes, the ablation's cost
       model — the batch path gains nothing here by design *)
    for i = 0 to n - 1 do
      match apply_flat t flat (group i) (value i) with
      | Some v' -> changed i v'
      | None -> ()
    done

let iter t f =
  match t.store with
  | Tree tree -> Bptree.iter tree (fun k v -> f k v)
  | Flat flat -> Vec.iter (fun e -> f e.gkey e.value) flat

let prefix_matches prefix (k : Tuple.t) =
  let lp = Array.length prefix in
  Array.length k >= lp
  &&
  let rec loop i = i = lp || (k.(i) = prefix.(i) && loop (i + 1)) in
  loop 0

let iter_prefix t ~prefix f =
  match t.store with
  | Tree tree -> Bptree.iter_prefix tree ~prefix (fun k v -> f k v)
  | Flat flat -> Vec.iter (fun e -> if prefix_matches prefix e.gkey then f e.gkey e.value) flat

let to_vec t =
  let out = Vec.create ~capacity:(length t) () in
  iter t (fun k v -> Vec.push out (k, v));
  out

(* --- checkpoint snapshot / restore --- *)

(* A deep value snapshot: group entries plus the contributor-dedup state
   that makes Count/Sum re-merges idempotent.  Restoring contributor
   state is a correctness requirement, not an optimization — a recovered
   worker re-derives contributions it already folded in before the cut,
   and without the restored (group, contributor) sets those would
   double-count.

   Key arrays are shared between the snapshot and the live table: stored
   keys are immutable by convention once adopted, and merges mutate only
   values, so sharing is safe and keeps the snapshot O(groups) shallow
   words.  Aggregate snapshots are therefore O(state) — unlike the O(1)
   watermark a set relation gets from its append-only log. *)
type snapshot = {
  sn_backend : backend;
  sn_entries : (Tuple.t * int) array; (* ascending group order for [Indexed] *)
  sn_contribs : (Tuple.t * int) array; (* (group ++ contributor, Sum partial) *)
}

let snapshot t =
  let entries = Array.make (length t) ([||], 0) in
  let i = ref 0 in
  iter t (fun k v ->
      entries.(!i) <- (k, v);
      incr i);
  let contribs = Vec.create () in
  List.iter
    (fun tb ->
      Tuple_table.iter tb (fun s ->
          Vec.push contribs (Tuple_table.key tb s, if t.kind = Sum then Tuple_table.get tb s 0 else 0)))
    t.contribs;
  {
    sn_backend = (match t.store with Tree _ -> Indexed | Flat _ -> Scan);
    sn_entries = entries;
    sn_contribs = Vec.to_array contribs;
  }

(* Rebuilds fresh structures from the snapshot (the snapshot itself is
   never adopted, so it stays valid for a second-level retry). *)
let restore t sn =
  (match sn.sn_backend with
  | Indexed ->
    (* [iter] on a Tree is ascending, so the snapshot is sorted and
       distinct: a pure bulk load. *)
    t.store <- Tree (Bptree.of_sorted sn.sn_entries)
  | Scan ->
    let v = Vec.create ~capacity:(Array.length sn.sn_entries) () in
    Array.iter (fun (gkey, value) -> Vec.push v { gkey; value }) sn.sn_entries;
    t.store <- Flat v);
  t.contribs <- [];
  Array.iter
    (fun (k, v) ->
      let tb = contrib_table t (Array.length k) in
      let s = Tuple_table.add tb k in
      if t.kind = Sum then Tuple_table.set tb s 0 v)
    sn.sn_contribs
