(* The serving workload's arc stream.  A fixed universe of distinct RMAT
   arcs is split into a present half and an absent half; every step
   deletes [k] random present arcs and inserts [k] random absent ones,
   so the present count never changes and the closure stays near one
   level.  The generator is deterministic in its seed and draws only the
   update stream: readers take their own generator, so changing the read
   mix never changes the updates. *)

module Rng = Dcd_util.Rng

type t = {
  vertices : int;
  arcs : (int * int) array;  (** the universe; positions [0, present) are present *)
  present : int;
  rng : Rng.t;
}

let create ~seed ~scale ~universe ~present =
  if present < 1 || present >= universe then invalid_arg "Churn.create: present";
  let g = Dcdatalog.Gen.rmat ~seed ~scale ~edges:(universe + (universe / 4)) () in
  let seen = Hashtbl.create (2 * universe) in
  let distinct = ref [] in
  Dcdatalog.Vec.iter
    (fun (a, b, _) ->
      if a <> b && not (Hashtbl.mem seen (a, b)) then begin
        Hashtbl.add seen (a, b) ();
        distinct := (a, b) :: !distinct
      end)
    (Dcdatalog.Graph.edges g);
  let arcs = Array.of_list (List.rev !distinct) in
  if Array.length arcs < universe then
    failwith
      (Printf.sprintf "Churn.create: RMAT gave %d distinct arcs, %d needed" (Array.length arcs)
         universe);
  let rng = Rng.create seed in
  Rng.shuffle rng arcs;
  { vertices = 1 lsl scale; arcs = Array.sub arcs 0 universe; present; rng }

let present_arcs t = Array.sub t.arcs 0 t.present

(* One step: returns [(deleted, inserted)], [k] arcs each, all distinct. *)
let step t ~k =
  let n = Array.length t.arcs and p = t.present in
  if k > p || k > n - p then invalid_arg "Churn.step: k";
  let swap i j =
    let x = t.arcs.(i) in
    t.arcs.(i) <- t.arcs.(j);
    t.arcs.(j) <- x
  in
  for r = 0 to k - 1 do
    (* chosen deletions gather at [p-k, p), insertions at [p, p+k) *)
    swap (Rng.int t.rng (p - r)) (p - 1 - r);
    swap (p + r + Rng.int t.rng (n - p - r)) (p + r)
  done;
  let deleted = Array.sub t.arcs (p - k) k and inserted = Array.sub t.arcs p k in
  for r = 0 to k - 1 do
    swap (p - 1 - r) (p + r)
  done;
  (deleted, inserted)
