(* Order statistics for latency samples.  Percentiles are nearest-rank:
   the [p]-th percentile of [n] sorted samples is the sample at 1-based
   rank [ceil (p * n / 100)]. *)

let sorted (xs : float list) =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* integer arithmetic on hundredths of a percent, so that e.g. p90 of
   300 samples is rank 270 and not 271 through float rounding *)
let rank ~n p =
  let p100 = int_of_float (Float.round (p *. 100.)) in
  max 1 (((p100 * n) + 9999) / 10000)

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.percentile: empty sample";
  a.(rank ~n p - 1)

(* the middle value, or the mean of the two middle values *)
let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.median: empty sample";
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* samples ranked strictly above the [p]-th percentile *)
let beyond ~n p = n - rank ~n p

(* A tail percentile is reported only when at least ten samples lie
   beyond it; fewer and it measures one or two outliers. *)
let supported ~n p = beyond ~n p >= 10

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n
