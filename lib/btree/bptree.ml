type key = int array

(* Top-level recursion: key comparison runs on every node descent, and
   a local [let rec] closure would be heap-allocated per comparison. *)
let rec compare_range (a : key) (b : key) i n =
  if i = n then 0
  else
    let c = Int.compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
    if c <> 0 then c else compare_range a b (i + 1) n

let compare_key (a : key) (b : key) =
  let la = Array.length a and lb = Array.length b in
  let n = if la < lb then la else lb in
  let c = compare_range a b 0 n in
  if c <> 0 then c else Int.compare la lb

type 'a leaf = {
  mutable lkeys : key array;
  mutable lvals : 'a array;
  mutable ln : int;
  mutable next : 'a leaf option;
}

type 'a internal = {
  mutable ikeys : key array; (* separators; children.(i+1) holds keys >= ikeys.(i) *)
  mutable ichildren : 'a node array;
  mutable ik : int; (* number of separators; children count = ik + 1 *)
}

and 'a node =
  | Leaf of 'a leaf
  | Internal of 'a internal

type 'a t = {
  branching : int;
  mutable root : 'a node;
  mutable count : int;
}

let dummy_key : key = [||]

let new_leaf b = { lkeys = Array.make b dummy_key; lvals = Array.make b (Obj.magic 0); ln = 0; next = None }

let new_internal b =
  { ikeys = Array.make b dummy_key; ichildren = Array.make (b + 1) (Obj.magic 0); ik = 0 }

let create ?(branching = 32) () =
  if branching < 4 then invalid_arg "Bptree.create: branching must be >= 4";
  { branching; root = Leaf (new_leaf branching); count = 0 }

let length t = t.count

let is_empty t = t.count = 0

(* Number of separators [<= k]: index of the child to descend into. *)
let child_index node k =
  let lo = ref 0 and hi = ref node.ik in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key node.ikeys.(mid) k <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Position of [k] in a leaf: [Ok i] if present at [i], [Error i] for the
   insertion point. *)
let leaf_search leaf k =
  let lo = ref 0 and hi = ref leaf.ln in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key leaf.lkeys.(mid) k < 0 then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  if i < leaf.ln && compare_key leaf.lkeys.(i) k = 0 then Ok i else Error i

let rec find_leaf node k =
  match node with
  | Leaf l -> l
  | Internal n -> find_leaf n.ichildren.(child_index n k) k

let find_opt t k =
  let l = find_leaf t.root k in
  match leaf_search l k with
  | Ok i -> Some l.lvals.(i)
  | Error _ -> None

let mem t k =
  let l = find_leaf t.root k in
  match leaf_search l k with Ok _ -> true | Error _ -> false

(* --- insertion (preemptive splitting on the way down) --- *)

let leaf_full t l = l.ln = t.branching

let internal_full t n = n.ik = t.branching - 1

(* Splits full leaf [l]; returns (separator, right sibling). *)
let split_leaf t l =
  let b = t.branching in
  let left_n = b / 2 in
  let right_n = b - left_n in
  let r = new_leaf b in
  Array.blit l.lkeys left_n r.lkeys 0 right_n;
  Array.blit l.lvals left_n r.lvals 0 right_n;
  Array.fill l.lkeys left_n right_n dummy_key;
  Array.fill l.lvals left_n right_n (Obj.magic 0);
  r.ln <- right_n;
  l.ln <- left_n;
  r.next <- l.next;
  l.next <- Some r;
  (r.lkeys.(0), r)

(* Splits full internal [n]; returns (separator moved up, right sibling). *)
let split_internal t n =
  let mid = n.ik / 2 in
  let sep = n.ikeys.(mid) in
  let r = new_internal t.branching in
  let right_keys = n.ik - mid - 1 in
  Array.blit n.ikeys (mid + 1) r.ikeys 0 right_keys;
  Array.blit n.ichildren (mid + 1) r.ichildren 0 (right_keys + 1);
  Array.fill n.ikeys mid (n.ik - mid) dummy_key;
  Array.fill n.ichildren (mid + 1) (n.ik - mid) (Obj.magic 0);
  r.ik <- right_keys;
  n.ik <- mid;
  (sep, r)

let insert_sep parent i sep child =
  Array.blit parent.ikeys i parent.ikeys (i + 1) (parent.ik - i);
  Array.blit parent.ichildren (i + 1) parent.ichildren (i + 2) (parent.ik - i);
  parent.ikeys.(i) <- sep;
  parent.ichildren.(i + 1) <- child;
  parent.ik <- parent.ik + 1

let split_root t =
  match t.root with
  | Leaf l when leaf_full t l ->
    let sep, r = split_leaf t l in
    let root = new_internal t.branching in
    root.ikeys.(0) <- sep;
    root.ichildren.(0) <- Leaf l;
    root.ichildren.(1) <- Leaf r;
    root.ik <- 1;
    t.root <- Internal root
  | Internal n when internal_full t n ->
    let sep, r = split_internal t n in
    let root = new_internal t.branching in
    root.ikeys.(0) <- sep;
    root.ichildren.(0) <- Internal n;
    root.ichildren.(1) <- Internal r;
    root.ik <- 1;
    t.root <- Internal root
  | _ -> ()

let upsert t k f =
  split_root t;
  let rec descend node =
    match node with
    | Leaf l -> begin
      match leaf_search l k with
      | Ok i -> l.lvals.(i) <- f (Some l.lvals.(i))
      | Error i ->
        (* run the callback before touching the leaf: if it raises, the
           tree must remain intact *)
        let v = f None in
        Array.blit l.lkeys i l.lkeys (i + 1) (l.ln - i);
        Array.blit l.lvals i l.lvals (i + 1) (l.ln - i);
        l.lkeys.(i) <- Array.copy k;
        l.lvals.(i) <- v;
        l.ln <- l.ln + 1;
        t.count <- t.count + 1
    end
    | Internal n ->
      let i = child_index n k in
      let child = n.ichildren.(i) in
      let child =
        match child with
        | Leaf l when leaf_full t l ->
          let sep, r = split_leaf t l in
          insert_sep n i sep (Leaf r);
          if compare_key k sep >= 0 then Leaf r else child
        | Internal c when internal_full t c ->
          let sep, r = split_internal t c in
          insert_sep n i sep (Internal r);
          if compare_key k sep >= 0 then Internal r else child
        | _ -> child
      in
      descend child
  in
  descend t.root

let insert t k v = upsert t k (fun _ -> v)

(* A single descent with preemptive splitting, like [upsert], but an
   existing binding is left untouched and reported via the return value
   — the primitive behind set-semantics merging, which otherwise needs
   a [mem] probe followed by an [insert] (two descents per candidate). *)
let add_if_absent t k v =
  split_root t;
  let rec descend node =
    match node with
    | Leaf l -> begin
      match leaf_search l k with
      | Ok _ -> false
      | Error i ->
        Array.blit l.lkeys i l.lkeys (i + 1) (l.ln - i);
        Array.blit l.lvals i l.lvals (i + 1) (l.ln - i);
        l.lkeys.(i) <- Array.copy k;
        l.lvals.(i) <- v;
        l.ln <- l.ln + 1;
        t.count <- t.count + 1;
        true
    end
    | Internal n ->
      let i = child_index n k in
      let child = n.ichildren.(i) in
      let child =
        match child with
        | Leaf l when leaf_full t l ->
          let sep, r = split_leaf t l in
          insert_sep n i sep (Leaf r);
          if compare_key k sep >= 0 then Leaf r else child
        | Internal c when internal_full t c ->
          let sep, r = split_internal t c in
          insert_sep n i sep (Internal r);
          if compare_key k sep >= 0 then Internal r else child
        | _ -> child
      in
      descend child
  in
  descend t.root

(* --- traversal --- *)

let rec leftmost_leaf = function
  | Leaf l -> l
  | Internal n -> leftmost_leaf n.ichildren.(0)

let iter t f =
  let rec walk = function
    | None -> ()
    | Some l ->
      for i = 0 to l.ln - 1 do
        f l.lkeys.(i) l.lvals.(i)
      done;
      walk l.next
  in
  walk (Some (leftmost_leaf t.root))

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let rec prefix_loop (prefix : key) (k : key) i lp =
  i = lp || (k.(i) = prefix.(i) && prefix_loop prefix k (i + 1) lp)

let prefix_matches prefix k =
  let lp = Array.length prefix in
  Array.length k >= lp && prefix_loop prefix k 0 lp

let iter_prefix t ~prefix f =
  let l = find_leaf t.root prefix in
  let start = match leaf_search l prefix with Ok i -> i | Error i -> i in
  let rec walk l i =
    if i < l.ln then begin
      let k = l.lkeys.(i) in
      if prefix_matches prefix k then begin
        f k l.lvals.(i);
        walk l (i + 1)
      end
    end
    else match l.next with None -> () | Some l' -> walk l' 0
  in
  walk l start

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

(* --- bulk construction (of_sorted, merge_sorted_slice) --- *)

(* The group count is clamped so that even spreading can neither
   overflow capacity nor underflow the minimum fill (a single group is
   always legal: it becomes the root or hangs under one). *)
let clamp_groups ~items ~target ~cap ~min_fill =
  let lo = (items + cap - 1) / cap in
  let hi = max 1 (items / min_fill) in
  max lo (min hi (max 1 ((items + target - 1) / target)))

(* Builds internal levels at ~3/4 fill over [entries] — ascending
   (subtree min key, node) pairs — until one node remains.  The first
   entry's min key is never consulted (only entries [> 0] supply
   separators), so callers may pass [dummy_key] for it. *)
let build_internal_levels ~branching entries =
  let per_node = max ((branching + 1) / 2) (branching * 3 / 4) in
  (* min children of a non-root internal node = internal_min + 1 *)
  let min_children = ((branching - 2) / 2) + 1 in
  let level = ref entries in
  while Array.length !level > 1 do
    let cur = !level in
    let m = Array.length cur in
    let nparents = clamp_groups ~items:m ~target:per_node ~cap:branching ~min_fill:min_children in
    let parents = Array.make nparents (dummy_key, Leaf (new_leaf branching)) in
    let pos = ref 0 in
    for pi = 0 to nparents - 1 do
      let node = new_internal branching in
      let remaining = m - !pos in
      let parents_left = nparents - pi in
      let take = (remaining + parents_left - 1) / parents_left in
      for j = 0 to take - 1 do
        let min_k, child = cur.(!pos + j) in
        node.ichildren.(j) <- child;
        if j > 0 then node.ikeys.(j - 1) <- min_k
      done;
      node.ik <- take - 1;
      parents.(pi) <- (fst cur.(!pos), Internal node);
      pos := !pos + take
    done;
    level := parents
  done;
  snd (!level).(0)

let of_sorted ?(branching = 32) entries =
  if branching < 4 then invalid_arg "Bptree.of_sorted";
  let n = Array.length entries in
  for i = 1 to n - 1 do
    if compare_key (fst entries.(i - 1)) (fst entries.(i)) >= 0 then
      invalid_arg "Bptree.of_sorted: keys must be strictly increasing"
  done;
  let t = create ~branching () in
  if n = 0 then t
  else begin
    (* Build the leaf level at ~3/4 fill, then internal levels on top. *)
    let per_leaf = max (branching / 2) (branching * 3 / 4) in
    let nleaves =
      clamp_groups ~items:n ~target:per_leaf ~cap:branching ~min_fill:(max 1 (branching / 2))
    in
    let leaves = Array.make nleaves (new_leaf branching) in
    let pos = ref 0 in
    for li = 0 to nleaves - 1 do
      let l = new_leaf branching in
      let remaining = n - !pos in
      let leaves_left = nleaves - li in
      (* spread remainder so no leaf underflows *)
      let take = (remaining + leaves_left - 1) / leaves_left in
      for j = 0 to take - 1 do
        let k, v = entries.(!pos + j) in
        l.lkeys.(j) <- Array.copy k;
        l.lvals.(j) <- v
      done;
      l.ln <- take;
      pos := !pos + take;
      leaves.(li) <- l;
      if li > 0 then leaves.(li - 1).next <- Some l
    done;
    (* minimum key of each node, used as separators one level up *)
    t.root <- build_internal_levels ~branching (Array.map (fun l -> (l.lkeys.(0), Leaf l)) leaves);
    t.count <- n;
    t
  end

(* Batch-sorted merge: folds a strictly-increasing run of keys into the
   tree with ONE root descent per leaf *segment* (the maximal run prefix
   that belongs to the current leaf), instead of one descent per key.
   Each descent records the internal path and the tightest right-hand
   separator bound seen on the way down — run keys at or past that bound
   belong to a later leaf and must re-descend even if they would
   physically fit here, or the separator invariant breaks.  A segment is
   merged co-sequentially with the leaf's entries into scratch; if the
   result overflows, the leaf is rebuilt as k siblings at ~3/4 fill and
   the new (min key, leaf) pairs are spliced into the parent path with
   cascading bulk internal splits ([of_sorted]-style level building when
   the root itself overflows). *)
let merge_sorted_slice t ~n ~key:keyf ~merge =
  if n < 0 then invalid_arg "Bptree.merge_sorted_slice";
  if n > 0 then begin
    let b = t.branching in
    let per_leaf = max (b / 2) (b * 3 / 4) in
    let leaf_min_fill = max 1 (b / 2) in
    let internal_min_children = ((b - 2) / 2) + 1 in
    let per_node_children = max internal_min_children (b * 3 / 4) in
    (* descent path, root first: internal node + child index taken *)
    let path_nodes : 'a internal array = Array.make 64 (Obj.magic 0) in
    let path_idx = Array.make 64 0 in
    (* Splice [news] — ascending (separator, node) pairs — as new right
       siblings after child [path_idx.(d)] of [path_nodes.(d)],
       rebuilding (and bulk-splitting) upward as needed.  [d = -1] grows
       the tree above the current root. *)
    let rec splice_up d (news : (key * 'a node) array) =
      let added = Array.length news in
      if added = 0 then ()
      else if d < 0 then begin
        let entries = Array.make (1 + added) (dummy_key, t.root) in
        Array.blit news 0 entries 1 added;
        t.root <- build_internal_levels ~branching:b entries
      end
      else begin
        let p = path_nodes.(d) and ci = path_idx.(d) in
        if p.ik + added <= b - 1 then begin
          (* fits: shift the tail right and write the new entries *)
          Array.blit p.ikeys ci p.ikeys (ci + added) (p.ik - ci);
          Array.blit p.ichildren (ci + 1) p.ichildren (ci + 1 + added) (p.ik - ci);
          for j = 0 to added - 1 do
            let sep, node = news.(j) in
            p.ikeys.(ci + j) <- sep;
            p.ichildren.(ci + 1 + j) <- node
          done;
          p.ik <- p.ik + added
        end
        else begin
          (* overflow: regroup the spliced child list into sibling
             internals at ~3/4 fill; [p] keeps the first group (its
             subtree min key is unchanged), the rest are promoted *)
          let old_ik = p.ik in
          let c_total = old_ik + 1 + added in
          let children = Array.make c_total (Obj.magic 0 : 'a node) in
          (* seps.(i) separates children.(i-1) and children.(i); (0) unused *)
          let seps = Array.make c_total dummy_key in
          Array.blit p.ichildren 0 children 0 (ci + 1);
          Array.blit p.ikeys 0 seps 1 ci;
          for j = 0 to added - 1 do
            let sep, node = news.(j) in
            seps.(ci + 1 + j) <- sep;
            children.(ci + 1 + j) <- node
          done;
          Array.blit p.ichildren (ci + 1) children (ci + 1 + added) (old_ik - ci);
          Array.blit p.ikeys ci seps (ci + 1 + added) (old_ik - ci);
          let ngroups =
            clamp_groups ~items:c_total ~target:per_node_children ~cap:b
              ~min_fill:internal_min_children
          in
          let promoted = Array.make (ngroups - 1) (dummy_key, (Obj.magic 0 : 'a node)) in
          let pos = ref 0 in
          for g = 0 to ngroups - 1 do
            let remaining = c_total - !pos in
            let groups_left = ngroups - g in
            let take = (remaining + groups_left - 1) / groups_left in
            if g = 0 then begin
              for j = 0 to take - 1 do
                p.ichildren.(j) <- children.(!pos + j);
                if j > 0 then p.ikeys.(j - 1) <- seps.(!pos + j)
              done;
              for j = take - 1 to old_ik - 1 do
                p.ikeys.(j) <- dummy_key
              done;
              for j = take to old_ik do
                p.ichildren.(j) <- (Obj.magic 0 : 'a node)
              done;
              p.ik <- take - 1
            end
            else begin
              let node = new_internal b in
              for j = 0 to take - 1 do
                node.ichildren.(j) <- children.(!pos + j);
                if j > 0 then node.ikeys.(j - 1) <- seps.(!pos + j)
              done;
              node.ik <- take - 1;
              promoted.(g - 1) <- (seps.(!pos), Internal node)
            end;
            pos := !pos + take
          done;
          splice_up (d - 1) promoted
        end
      end
    in
    let inserted = ref 0 in
    let i = ref 0 in
    while !i < n do
      let k0 = keyf !i in
      let depth = ref 0 in
      let ub = ref dummy_key in
      let has_ub = ref false in
      let rec down = function
        | Leaf l -> l
        | Internal nd ->
          let ci = child_index nd k0 in
          path_nodes.(!depth) <- nd;
          path_idx.(!depth) <- ci;
          incr depth;
          (* deeper bounds nest inside shallower ones, so the last
             assignment is the tightest *)
          if ci < nd.ik then begin
            ub := nd.ikeys.(ci);
            has_ub := true
          end;
          down nd.ichildren.(ci)
      in
      let leaf = down t.root in
      (* segment end: the first run index whose key falls past the bound *)
      let stop = ref (!i + 1) in
      if !has_ub then begin
        let u = !ub in
        while !stop < n && compare_key (keyf !stop) u < 0 do
          incr stop
        done
      end
      else stop := n;
      let stop = !stop in
      (* co-sequential merge of leaf entries and the run segment *)
      let ln = leaf.ln in
      let mk = Array.make (ln + (stop - !i)) dummy_key in
      let mv = Array.make (ln + (stop - !i)) (Obj.magic 0 : 'a) in
      let m = ref 0 in
      let p = ref 0 and q = ref !i in
      while !p < ln && !q < stop do
        let kq = keyf !q in
        let c = compare_key leaf.lkeys.(!p) kq in
        if c < 0 then begin
          mk.(!m) <- leaf.lkeys.(!p);
          mv.(!m) <- leaf.lvals.(!p);
          incr m;
          incr p
        end
        else if c = 0 then begin
          let v0 = leaf.lvals.(!p) in
          let v = match merge !q (Some v0) with Some v -> v | None -> v0 in
          mk.(!m) <- leaf.lkeys.(!p);
          mv.(!m) <- v;
          incr m;
          incr p;
          incr q
        end
        else begin
          (match merge !q None with
          | Some v ->
            mk.(!m) <- kq;
            mv.(!m) <- v;
            incr m;
            incr inserted
          | None -> ());
          incr q
        end
      done;
      while !p < ln do
        mk.(!m) <- leaf.lkeys.(!p);
        mv.(!m) <- leaf.lvals.(!p);
        incr m;
        incr p
      done;
      while !q < stop do
        (match merge !q None with
        | Some v ->
          mk.(!m) <- keyf !q;
          mv.(!m) <- v;
          incr m;
          incr inserted
        | None -> ());
        incr q
      done;
      let m = !m in
      if m <= b then begin
        (* fits in place; [m >= ln] always (no removals), so slots past
           [m] are already clear *)
        Array.blit mk 0 leaf.lkeys 0 m;
        Array.blit mv 0 leaf.lvals 0 m;
        leaf.ln <- m
      end
      else begin
        (* bulk leaf split: rebuild this leaf plus fresh right siblings
           at ~3/4 fill, relink the chain, splice the new (min key,
           leaf) pairs into the parent path *)
        let nl = clamp_groups ~items:m ~target:per_leaf ~cap:b ~min_fill:leaf_min_fill in
        let old_next = leaf.next in
        let news = Array.make (nl - 1) (dummy_key, (Obj.magic 0 : 'a node)) in
        let pos = ref 0 in
        let prev = ref leaf in
        for li = 0 to nl - 1 do
          let l = if li = 0 then leaf else new_leaf b in
          let remaining = m - !pos in
          let leaves_left = nl - li in
          let take = (remaining + leaves_left - 1) / leaves_left in
          Array.blit mk !pos l.lkeys 0 take;
          Array.blit mv !pos l.lvals 0 take;
          if li = 0 then
            for x = take to b - 1 do
              l.lkeys.(x) <- dummy_key;
              l.lvals.(x) <- (Obj.magic 0 : 'a)
            done;
          l.ln <- take;
          if li > 0 then begin
            (!prev).next <- Some l;
            news.(li - 1) <- (l.lkeys.(0), Leaf l)
          end;
          prev := l;
          pos := !pos + take
        done;
        (!prev).next <- old_next;
        splice_up (!depth - 1) news
      end;
      i := stop
    done;
    t.count <- t.count + !inserted
  end

(* --- invariant checking --- *)

(* Minimum fills of non-root nodes: the bulk builders spread entries so
   that no node falls below them. *)
let leaf_min t = t.branching / 2

let internal_min t = (t.branching - 2) / 2

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let counted = ref 0 in
  let is_root n = n == t.root in
  (* returns (depth, min_key, max_key) *)
  let rec check node lo hi =
    match node with
    | Leaf l ->
      if l.ln = 0 && not (is_root node) then fail "empty non-root leaf";
      if (not (is_root node)) && l.ln < leaf_min t then
        fail "leaf underflow: %d < %d" l.ln (leaf_min t);
      if l.ln > t.branching then fail "leaf overflow";
      for i = 0 to l.ln - 1 do
        incr counted;
        if i > 0 && compare_key l.lkeys.(i - 1) l.lkeys.(i) >= 0 then fail "leaf keys out of order";
        (match lo with
        | Some b when compare_key l.lkeys.(i) b < 0 -> fail "leaf key below lower bound"
        | _ -> ());
        match hi with
        | Some b when compare_key l.lkeys.(i) b >= 0 -> fail "leaf key above upper bound"
        | _ -> ()
      done;
      1
    | Internal n ->
      if n.ik < 1 then fail "internal node without separators";
      if (not (is_root node)) && n.ik < internal_min t then
        fail "internal underflow: %d < %d" n.ik (internal_min t);
      if n.ik > t.branching - 1 then fail "internal overflow";
      for i = 1 to n.ik - 1 do
        if compare_key n.ikeys.(i - 1) n.ikeys.(i) >= 0 then fail "separators out of order"
      done;
      let depth = ref 0 in
      for i = 0 to n.ik do
        let lo_i = if i = 0 then lo else Some n.ikeys.(i - 1) in
        let hi_i = if i = n.ik then hi else Some n.ikeys.(i) in
        let d = check n.ichildren.(i) lo_i hi_i in
        if i = 0 then depth := d
        else if d <> !depth then fail "non-uniform depth"
      done;
      !depth + 1
  in
  ignore (check t.root None None);
  if !counted <> t.count then fail "count mismatch: counted %d, recorded %d" !counted t.count;
  (* the leaf chain must enumerate exactly the same number of keys in order *)
  let chain = ref 0 in
  let prev = ref None in
  let rec walk = function
    | None -> ()
    | Some l ->
      for i = 0 to l.ln - 1 do
        (match !prev with
        | Some p when compare_key p l.lkeys.(i) >= 0 -> fail "leaf chain out of order"
        | _ -> ());
        prev := Some l.lkeys.(i);
        incr chain
      done;
      walk l.next
  in
  walk (Some (leftmost_leaf t.root));
  if !chain <> t.count then fail "leaf chain length mismatch"
