(* Reference answers from textbook graph algorithms, independent of the
   engine: breadth-first search for transitive closure and per-source
   reach counts, Dijkstra for single-source shortest paths.  Used only
   outside timed regions. *)

(* out-neighbours per vertex, each list sorted *)
let adjacency ~n (arcs : (int * int) array) =
  let deg = Array.make n 0 in
  Array.iter (fun (a, _) -> deg.(a) <- deg.(a) + 1) arcs;
  let adj = Array.init n (fun v -> Array.make deg.(v) 0) in
  let fill = Array.make n 0 in
  Array.iter
    (fun (a, b) ->
      adj.(a).(fill.(a)) <- b;
      fill.(a) <- fill.(a) + 1)
    arcs;
  Array.iter (Array.sort Int.compare) adj;
  adj

(* [reach adj src]: every [y] with a path of length >= 1 from [src] —
   the [tc(src, y)] facts — in ascending order.  [src] itself appears
   only when it lies on a cycle. *)
let reach adj src =
  let n = Array.length adj in
  let seen = Bytes.make n '\000' in
  let queue = Array.make n 0 in
  let tail = ref 0 in
  let visit v =
    if Bytes.get seen v = '\000' then begin
      Bytes.set seen v '\001';
      queue.(!tail) <- v;
      incr tail
    end
  in
  Array.iter visit adj.(src);
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    Array.iter visit adj.(u)
  done;
  let out = Array.sub queue 0 !tail in
  Array.sort Int.compare out;
  out

(* The whole closure as ascending codes [a * n + b]. *)
let closure_codes adj =
  let n = Array.length adj in
  let parts = Array.init n (fun a -> Array.map (fun b -> (a * n) + b) (reach adj a)) in
  Array.concat (Array.to_list parts)

(* [reach(X, count<Y>) <- tc(X, Y).]: one [(x, |reach x|)] per source
   with a non-empty closure, ascending. *)
let reach_counts adj =
  let out = ref [] in
  for a = Array.length adj - 1 downto 0 do
    let k = Array.length (reach adj a) in
    if k > 0 then out := (a, k) :: !out
  done;
  Array.of_list !out

(* Dijkstra over a binary heap of (distance, vertex); [max_int] marks
   unreachable vertices. *)
let dijkstra ~n (warcs : (int * int * int) array) ~src =
  let out = Array.make n [] in
  Array.iter (fun (a, b, w) -> out.(a) <- (b, w) :: out.(a)) warcs;
  let dist = Array.make n max_int in
  let heap = Dcd_util.Heap.create ~cmp:compare () in
  dist.(src) <- 0;
  Dcd_util.Heap.push heap (0, src);
  let rec settle () =
    match Dcd_util.Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
      if d = dist.(u) then
        List.iter
          (fun (v, w) ->
            if d + w < dist.(v) then begin
              dist.(v) <- d + w;
              Dcd_util.Heap.push heap (d + w, v)
            end)
          out.(u);
      settle ()
  in
  settle ();
  dist

(* Answers are compared as ascending integer codes [a * base + b] of
   binary tuples, with [base] above every second column: here, the codes
   of an engine relation. *)
let codes_of_relation rel ~base =
  let out = Array.make (Dcdatalog.Relation.length rel) 0 in
  let i = ref 0 in
  Dcdatalog.Relation.iter_slices rel (fun d off ->
      out.(!i) <- (d.(off) * base) + d.(off + 1);
      incr i);
  Array.sort Int.compare out;
  out

(* first index of the ascending [codes] whose code is >= [key] *)
let lower_bound codes key =
  let lo = ref 0 and hi = ref (Array.length codes) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if codes.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

(* the [b]s of the codes with first column [a], ascending *)
let codes_with_prefix codes ~base a =
  let i = lower_bound codes (a * base) and j = lower_bound codes ((a + 1) * base) in
  Array.init (j - i) (fun k -> codes.(i + k) - (a * base))

let codes_mem codes ~base a b =
  let key = (a * base) + b in
  let i = lower_bound codes key in
  i < Array.length codes && codes.(i) = key
