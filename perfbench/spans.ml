(* Spans around the calls the benchmark makes into the engine's layers.
   Each span has a name, start and end, its parent span, and an
   operation id shared by everything one rep or one request did.  Parts
   of a call that the program times itself (stratum phases inside a
   run, maintenance inside an update request) are attached as
   [measured] children, so a span's self time — its duration minus what
   its children cover — isolates the layer it wraps.  Spans stay in
   memory and are written out when the run ends.  Off, [with_span] costs
   one branch. *)

module Vec = Dcd_util.Vec

type span = {
  name : string;
  op : int;
  parent : int;  (** index of the enclosing span, [-1] at top level *)
  start_ns : int;
  mutable stop_ns : int;
  mutable child_ns : int;  (** time covered by children *)
  measured : bool;  (** timed by the program: [start_ns] is the parent's *)
}

type t = {
  mutable on : bool;
  spans : span Vec.t;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable last : int;  (** most recently closed span *)
}

let create () = { on = false; spans = Vec.create (); stack = []; last = -1 }

let duration_ns s = s.stop_ns - s.start_ns

let self_ns s = duration_ns s - s.child_ns

let with_span t ~op name f =
  if not t.on then f ()
  else begin
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let id = Vec.length t.spans in
    let s =
      { name; op; parent; start_ns = Nclock.now (); stop_ns = 0; child_ns = 0; measured = false }
    in
    Vec.push t.spans s;
    t.stack <- id :: t.stack;
    let close () =
      s.stop_ns <- Nclock.now ();
      t.stack <- List.tl t.stack;
      t.last <- id;
      if parent >= 0 then begin
        let p = Vec.get t.spans parent in
        p.child_ns <- p.child_ns + duration_ns s
      end
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

(* [measured t ~parent name secs] attaches a child of [secs] seconds
   that the program timed itself to the recorded span [parent]; returns
   its index ([-1] when [parent] was not recorded). *)
let measured t ~parent name secs =
  if parent < 0 then -1
  else begin
    let p = Vec.get t.spans parent in
    let ns = int_of_float (secs *. 1e9) in
    let id = Vec.length t.spans in
    Vec.push t.spans
      { name; op = p.op; parent; start_ns = p.start_ns; stop_ns = p.start_ns + ns; child_ns = 0;
        measured = true };
    p.child_ns <- p.child_ns + ns;
    id
  end

(* self times in seconds of every span called [name], in record order *)
let self_s t name =
  Vec.fold
    (fun acc s -> if String.equal s.name name then Nclock.s_of_ns (self_ns s) :: acc else acc)
    [] t.spans
  |> List.rev

let write_json t path =
  let oc = open_out path in
  output_string oc "[\n";
  Vec.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"name\": %S, \"op\": %d, \"parent\": %d, \"start_ns\": %d, \"end_ns\": \
         %d, \"self_ns\": %d, \"measured\": %b}"
        (if i = 0 then "" else ",\n")
        i s.name s.op s.parent s.start_ns s.stop_ns (self_ns s) s.measured)
    t.spans;
  output_string oc "\n]\n";
  close_out oc
