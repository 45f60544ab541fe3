module Cq = Dcd_concurrent.Chunk_queue

let test_fifo_within_chunk () =
  let q = Cq.create ~chunk:8 () in
  for i = 1 to 5 do
    Cq.push q i
  done;
  for i = 1 to 5 do
    Alcotest.(check (option int)) "fifo" (Some i) (Cq.try_pop q)
  done;
  Alcotest.(check (option int)) "empty" None (Cq.try_pop q)

let test_cross_chunk () =
  let q = Cq.create ~chunk:4 () in
  let n = 23 in
  (* several chunk boundaries *)
  for i = 1 to n do
    Cq.push q i
  done;
  Alcotest.(check int) "size" n (Cq.size q);
  for i = 1 to n do
    Alcotest.(check (option int)) "fifo across chunks" (Some i) (Cq.try_pop q)
  done;
  Alcotest.(check bool) "empty after" true (Cq.is_empty q)

let test_interleaved_push_pop () =
  let q = Cq.create ~chunk:2 () in
  Cq.push q 1;
  Alcotest.(check (option int)) "pop" (Some 1) (Cq.try_pop q);
  Cq.push q 2;
  Cq.push q 3;
  Cq.push q 4;
  Alcotest.(check (option int)) "pop" (Some 2) (Cq.try_pop q);
  Cq.push q 5;
  Alcotest.(check (list int)) "drain rest"
    [ 3; 4; 5 ]
    (let out = ref [] in
     ignore (Cq.drain q (fun x -> out := x :: !out));
     List.rev !out)

let test_drain_counts () =
  let q = Cq.create ~chunk:4 () in
  for i = 1 to 9 do
    Cq.push q i
  done;
  Alcotest.(check int) "drain count" 9 (Cq.drain q (fun _ -> ()));
  Alcotest.(check int) "second drain empty" 0 (Cq.drain q (fun _ -> ()))

let test_create_rejects_empty_chunk () =
  Alcotest.check_raises "chunk 0" (Invalid_argument "Chunk_queue.create") (fun () ->
      ignore (Cq.create ~chunk:0 ()));
  Alcotest.check_raises "negative chunk" (Invalid_argument "Chunk_queue.create") (fun () ->
      ignore (Cq.create ~chunk:(-3) ()))

let test_chunk_of_one () =
  (* every push after the first opens a fresh chunk *)
  let q = Cq.create ~chunk:1 () in
  for i = 1 to 10 do
    Cq.push q i
  done;
  Alcotest.(check int) "size" 10 (Cq.size q);
  for i = 1 to 10 do
    Alcotest.(check (option int)) "fifo" (Some i) (Cq.try_pop q)
  done;
  Alcotest.(check (option int)) "empty" None (Cq.try_pop q);
  Cq.push q 11;
  Alcotest.(check (option int)) "push after empty" (Some 11) (Cq.try_pop q)

let test_size_and_is_empty () =
  let q = Cq.create ~chunk:3 () in
  Alcotest.(check bool) "fresh empty" true (Cq.is_empty q);
  Alcotest.(check int) "fresh size" 0 (Cq.size q);
  for i = 1 to 7 do
    Cq.push q i;
    Alcotest.(check int) "size after push" i (Cq.size q)
  done;
  Alcotest.(check bool) "not empty" false (Cq.is_empty q);
  for i = 1 to 7 do
    ignore (Cq.try_pop q);
    Alcotest.(check int) "size after pop" (7 - i) (Cq.size q)
  done;
  Alcotest.(check bool) "empty again" true (Cq.is_empty q);
  Alcotest.(check (option int)) "pop on empty" None (Cq.try_pop q);
  Alcotest.(check int) "size stays 0" 0 (Cq.size q)

let test_boundary_rounds () =
  (* one in, one out, many times the chunk size: the consumer hops a
     chunk link with the queue empty each time *)
  let q = Cq.create ~chunk:4 () in
  for round = 0 to 99 do
    Cq.push q round;
    Alcotest.(check (option int)) "pop" (Some round) (Cq.try_pop q);
    Alcotest.(check bool) "empty between rounds" true (Cq.is_empty q)
  done;
  (* two in, one out: the backlog grows across boundaries *)
  for i = 0 to 49 do
    Cq.push q (2 * i);
    Cq.push q ((2 * i) + 1);
    Alcotest.(check (option int)) "fifo" (Some i) (Cq.try_pop q)
  done;
  Alcotest.(check int) "backlog" 50 (Cq.size q);
  let out = ref [] in
  Alcotest.(check int) "drain backlog" 50 (Cq.drain q (fun x -> out := x :: !out));
  Alcotest.(check (list int)) "backlog order" (List.init 50 (fun i -> 50 + i)) (List.rev !out)

let test_drain_after_partial_pop () =
  let q = Cq.create ~chunk:4 () in
  for i = 1 to 10 do
    Cq.push q i
  done;
  (* consume into the middle of the second chunk, then drain the rest *)
  for i = 1 to 6 do
    Alcotest.(check (option int)) "pop" (Some i) (Cq.try_pop q)
  done;
  let out = ref [] in
  Alcotest.(check int) "drain count" 4 (Cq.drain q (fun x -> out := x :: !out));
  Alcotest.(check (list int)) "drain order" [ 7; 8; 9; 10 ] (List.rev !out);
  Alcotest.(check bool) "empty" true (Cq.is_empty q)

(* The exchange queues whole frames: a popped one must not stay
   reachable from the queue's chunk, or it is pinned until the chunk is
   dropped. *)
let[@inline never] push_tracked q w i =
  let b = Bytes.make 64 'x' in
  Weak.set w i (Some b);
  Cq.push q b

let test_popped_not_retained () =
  let q = Cq.create ~chunk:8 () in
  let w = Weak.create 6 in
  for i = 0 to 5 do
    push_tracked q w i
  done;
  ignore (Cq.try_pop q);
  ignore (Cq.try_pop q);
  Gc.full_major ();
  Alcotest.(check bool) "try_pop releases" true (Weak.get w 0 = None && Weak.get w 1 = None);
  Alcotest.(check bool) "queued values kept" true (Weak.check w 2 && Weak.check w 5);
  Alcotest.(check int) "drain rest" 4 (Cq.drain q ignore);
  Gc.full_major ();
  Alcotest.(check bool) "drain releases" true
    (List.for_all (fun i -> Weak.get w i = None) [ 2; 3; 4; 5 ])

let test_unbounded_two_domains () =
  let q = Cq.create ~chunk:16 () in
  let n = 100_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          Cq.push q i (* never blocks: unbounded *)
        done)
  in
  let received = ref 0 in
  let in_order = ref true in
  while !received < n do
    match Cq.try_pop q with
    | Some x ->
      incr received;
      if x <> !received then in_order := false
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check bool) "all values in order" true !in_order

let test_batched_producer_consumer () =
  (* consumer uses drain while producer pushes: totals must match *)
  let q = Cq.create ~chunk:8 () in
  let n = 30_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          Cq.push q i
        done)
  in
  let sum = ref 0 and got = ref 0 in
  while !got < n do
    let k = Cq.drain q (fun x -> sum := !sum + x) in
    got := !got + k;
    if k = 0 then Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check int) "checksum" (n * (n + 1) / 2) !sum

let test_chunk_of_one_two_domains () =
  (* every element sits in its own chunk, so each one is published
     through a fresh [next] link *)
  let q = Cq.create ~chunk:1 () in
  let n = 20_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          Cq.push q i
        done)
  in
  let received = ref 0 in
  let in_order = ref true in
  while !received < n do
    match Cq.try_pop q with
    | Some x ->
      incr received;
      if x <> !received then in_order := false
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check bool) "all values in order" true !in_order;
  Alcotest.(check bool) "queue drained" true (Cq.is_empty q)

let test_size_bounded_during_transfer () =
  (* [size] is approximate under concurrency, but never negative and
     never more than the producer has left to hand over *)
  let q = Cq.create ~chunk:8 () in
  let n = 20_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          Cq.push q i
        done)
  in
  let received = ref 0 in
  let bounded = ref true in
  while !received < n do
    let s = Cq.size q in
    if s < 0 || s > n - !received then bounded := false;
    match Cq.try_pop q with Some _ -> incr received | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check bool) "0 <= size <= outstanding" true !bounded;
  Alcotest.(check int) "size at rest" 0 (Cq.size q)

let () =
  Alcotest.run "chunk_queue"
    [
      ( "unit",
        [
          Alcotest.test_case "fifo within chunk" `Quick test_fifo_within_chunk;
          Alcotest.test_case "cross chunk" `Quick test_cross_chunk;
          Alcotest.test_case "interleaved" `Quick test_interleaved_push_pop;
          Alcotest.test_case "drain counts" `Quick test_drain_counts;
          Alcotest.test_case "empty chunk rejected" `Quick test_create_rejects_empty_chunk;
          Alcotest.test_case "chunk of one" `Quick test_chunk_of_one;
          Alcotest.test_case "size and is_empty" `Quick test_size_and_is_empty;
          Alcotest.test_case "boundary rounds" `Quick test_boundary_rounds;
          Alcotest.test_case "drain after partial pop" `Quick test_drain_after_partial_pop;
          Alcotest.test_case "popped values not retained" `Quick test_popped_not_retained;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "unbounded two-domain transfer" `Quick test_unbounded_two_domains;
          Alcotest.test_case "batched producer/consumer" `Quick test_batched_producer_consumer;
          Alcotest.test_case "chunk of one two-domain transfer" `Quick
            test_chunk_of_one_two_domains;
          Alcotest.test_case "size bounded during transfer" `Quick
            test_size_bounded_during_transfer;
        ] );
    ]
