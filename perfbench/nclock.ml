(* Monotonic nanosecond clock (CLOCK_MONOTONIC via bechamel's stub:
   no allocation, ~50 ns per call).  The engine's own clock is
   gettimeofday, which quantizes microsecond-scale requests and can step
   backwards, so every benchmark span and request is timed here. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let s_of_ns ns = float_of_int ns *. 1e-9
