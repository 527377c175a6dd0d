(* A host-speed probe that shares no code with the repository: random
   reads and writes over a 32 MB table outside the OCaml heap (so it
   moves no GC counter and no heap figure).  Its CPU time moves with the
   machine — clock, cache and memory-bandwidth contention from other
   tenants — and never with a change to the code under test, so host
   times divided by it measure the code rather than the neighbours.

   The walk is polymorphic in the table's element kind and layout, so
   every access goes through Bigarray's generic C accessor: a call and a
   dispatch per access as well as a likely cache miss.  That mix of
   call-heavy code and memory stalls follows the workloads under load
   more closely than a walk with inlined accesses, which slows down less
   than the workloads do on a loaded host. *)

let words = 1 lsl 22

let table =
  lazy (Bigarray.Array1.init Bigarray.int Bigarray.c_layout words (fun i -> (i * 7919) land 0xFFFF))

(* CPU seconds one pass takes on a quiet 2-core x86 container; host
   times are reported in these units. *)
let nominal_s = 0.02

let walk : type k l. (int, k, l) Bigarray.Array1.t -> float =
 fun a ->
  let x = ref 12345 and acc = ref 0 in
  let c = Sys.time () in
  for _ = 1 to 250_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = !x land (words - 1) in
    acc := !acc + Bigarray.Array1.unsafe_get a i;
    Bigarray.Array1.unsafe_set a ((i * 31) land (words - 1)) (!acc land 0xFFFF)
  done;
  ignore (Sys.opaque_identity !acc);
  Sys.time () -. c

(* CPU seconds of one pass. *)
let pass () = walk (Lazy.force table)
