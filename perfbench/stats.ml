(* Order statistics over the benchmark's own samples.  Percentiles are
   exact nearest-rank values, never histogram bucket edges. *)

(* Nearest rank: the smallest sample with at least [p] of the samples at
   or below it.  [sorted] is ascending and non-empty. *)
let rank ~n p = Stdlib.max 1 (int_of_float (Float.ceil (p *. float_of_int n)))

let percentile sorted p = sorted.(rank ~n:(Array.length sorted) p - 1)

(* Samples strictly beyond the [p] percentile's rank — a percentile is
   reported only when at least ten lie beyond it. *)
let beyond ~n p = n - rank ~n p

let median floats =
  match List.sort Float.compare floats with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean floats = List.fold_left ( +. ) 0. floats /. float_of_int (List.length floats)
