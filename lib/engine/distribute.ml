module Ast = Dcd_datalog.Ast
module Tuple = Dcd_storage.Tuple
module Tuple_table = Dcd_storage.Tuple_table
module Partition = Dcd_storage.Partition
module Frame = Dcd_concurrent.Frame

type t = {
  me : int;
  exch : Exchange.t;
  h : Partition.t;
  partial_agg : bool;
  stores : Rec_store.t array; (* the owner's own store row, by copy id *)
  ws : Run_stats.worker;
  outbuf : Frame.t array array; (* outbuf.(copy).(dest) *)
}

let fresh_frame exch cid =
  Frame.create ~arity:(Exchange.copies exch).(cid).Exchange.ci_arity
    ~contrib:(Exchange.contrib exch cid) ()

let create ~exch ~me ~h ~partial_agg ~stores ~ws =
  let outbuf =
    Array.init (Array.length (Exchange.copies exch)) (fun cid ->
        Array.init (Exchange.workers exch) (fun _ -> fresh_frame exch cid))
  in
  { me; exch; h; partial_agg; stores; ws; outbuf }

(* Local delivery: one hash probe into the owner's own set store, in
   place of the frame push, the flush's dedup table, the queue and the
   drain.  The fold waits in the store for the owner's next
   [Worker.drain_and_merge] to report it into the deltas. *)
let fold_local t cid tuple =
  t.ws.Run_stats.tuples_local <- t.ws.Run_stats.tuples_local + 1;
  Rec_store.stage_slice t.stores.(cid) ~data:tuple ~off:0 ~cdata:tuple ~coff:0 ~clen:0

(* [tuple]/[contributor] are Eval's emission scratch: Frame.push and the
   local fold copy them before returning.  The single-target case (the
   overwhelmingly common one) is specialized so the emit path allocates
   nothing and does no list traversal — [targets] is the head's copy-id
   array, resolved once at rule-compile time.  Only that case delivers
   locally: a multi-copy head ships every copy. *)
let emitter t ~targets ~local =
  let copies = Exchange.copies t.exch in
  if Array.length targets = 1 then begin
    let cid = targets.(0) in
    let bufs = t.outbuf.(cid) and route = copies.(cid).Exchange.ci_route in
    if local && copies.(cid).Exchange.ci_local then
      fun ~tuple ~contributor ->
        let dest = Partition.of_slice t.h ~cols:route tuple 0 in
        if dest = t.me then fold_local t cid tuple else Frame.push bufs.(dest) tuple contributor
    else
      fun ~tuple ~contributor ->
        Frame.push bufs.(Partition.of_slice t.h ~cols:route tuple 0) tuple contributor
  end
  else
    fun ~tuple ~contributor ->
      for k = 0 to Array.length targets - 1 do
        let cid = Array.unsafe_get targets k in
        let dest = Partition.of_slice t.h ~cols:copies.(cid).Exchange.ci_route tuple 0 in
        Frame.push t.outbuf.(cid).(dest) tuple contributor
      done

let flush t =
  let ws = t.ws in
  let copies = Exchange.copies t.exch in
  let n = Exchange.workers t.exch in
  for cid = 0 to Array.length copies - 1 do
    let ci = copies.(cid) in
    for dest = 0 to n - 1 do
      let buf = t.outbuf.(cid).(dest) in
      if not (Frame.is_empty buf) then begin
        match (t.partial_agg, ci.Exchange.ci_agg) with
        | true, Some (pos, ((Ast.Min | Ast.Max) as kind)) ->
          (* partial aggregation: keep only the best record per group
             within this outgoing frame (paper §5.2.3).  Group identity
             is every column but the value; candidates are hashed and
             compared in place in the frame buffer, so no boxed group
             keys exist. *)
          let arity = ci.Exchange.ci_arity in
          let gcols = Array.init (arity - 1) (fun i -> if i < pos then i else i + 1) in
          let rec pow2 p need = if p >= need then p else pow2 (p * 2) need in
          let cap = pow2 16 (2 * Frame.count buf) in
          let mask = cap - 1 in
          let table = Array.make cap 0 (* record toff + 1; 0 = empty *) in
          let data = Frame.data buf in
          let glen = Array.length gcols in
          (* one closure per flush, not per record: hoisted out of the
             [Frame.iter] callback and driven by a while loop *)
          let group_eq a b =
            let rec loop i =
              i = glen
              ||
              let c = Array.unsafe_get gcols i in
              data.(a + c) = data.(b + c) && loop (i + 1)
            in
            loop 0
          in
          Frame.iter buf (fun _ ~toff ~clen:_ ~coff:_ ->
              let i = ref (Tuple.hash_cols data ~base:toff gcols land mask) in
              let placed = ref false in
              while not !placed do
                match table.(!i) with
                | 0 ->
                  table.(!i) <- toff + 1;
                  placed := true
                | e ->
                  let cur = e - 1 in
                  if group_eq cur toff then begin
                    let keep =
                      if kind = Ast.Min then data.(toff + pos) < data.(cur + pos)
                      else data.(toff + pos) > data.(cur + pos)
                    in
                    if keep then table.(!i) <- toff + 1;
                    placed := true
                  end
                  else i := (!i + 1) land mask
              done);
          let out = Frame.create ~capacity:(Frame.count buf) ~arity ~contrib:true () in
          Array.iter
            (fun e -> if e <> 0 then Frame.push_slice out data ~toff:(e - 1) ~clen:0 ~coff:0)
            table;
          Frame.clear buf;
          Exchange.send t.exch ~ws ~src:t.me ~dest ~copy:cid out
        | true, None ->
          (* set semantics: drop duplicates within the frame, probing
             straight out of the packed records *)
          let arity = ci.Exchange.ci_arity in
          let seen = Tuple_table.create ~capacity:(Frame.count buf) ~arity () in
          let out = Frame.create ~capacity:(Frame.count buf) ~arity ~contrib:false () in
          Frame.iter buf (fun data ~toff ~clen:_ ~coff:_ ->
              let n = Tuple_table.length seen in
              ignore (Tuple_table.add_slice seen data toff);
              if Tuple_table.length seen > n then Frame.push_slice out data ~toff ~clen:0 ~coff:0);
          Frame.clear buf;
          Exchange.send t.exch ~ws ~src:t.me ~dest ~copy:cid out
        | _ ->
          (* ship the accumulation frame itself — ownership passes to
             the consumer, the producer starts a fresh one *)
          t.outbuf.(cid).(dest) <- fresh_frame t.exch cid;
          Exchange.send t.exch ~ws ~src:t.me ~dest ~copy:cid buf
      end
    done
  done
