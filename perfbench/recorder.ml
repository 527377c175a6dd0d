(* Per-op samples, timed from the benchmark's own client processes.

   Every client is a closed loop: it issues its next operation only when
   the previous one has returned.  An operation is sampled when it both
   starts and completes inside the measurement window; a failed output
   check or an exception counts as a failure whenever it happens (warm-up
   included), so a defect can never hide outside the window. *)

type t = {
  engine : Sim.Engine.t;
  kinds : string array;  (** op kinds: the measured mix *)
  groups : string array;  (** structure / scheme an op belongs to *)
  mutable lat : int array;  (** latency, ns *)
  mutable tag : int array;  (** kind * |groups| + group *)
  mutable n : int;
  mutable window : (Sim.Time.t * Sim.Time.t) option;
  mutable stopping : bool;
  mutable active : int;
  mutable failed : int;
  mutable messages : string list;  (** the first few failures *)
  mutable done_ops : int;  (** every sampled-or-not success, for warm-up *)
  mutable done_ns : int;
}

let create engine ~kinds ~groups =
  {
    engine;
    kinds = Array.of_list kinds;
    groups = Array.of_list groups;
    lat = Array.make 4096 0;
    tag = Array.make 4096 0;
    n = 0;
    window = None;
    stopping = false;
    active = 0;
    failed = 0;
    messages = [];
    done_ops = 0;
    done_ns = 0;
  }

let index names name =
  let rec go i =
    if i >= Array.length names then invalid_arg ("Recorder: unknown " ^ name)
    else if String.equal names.(i) name then i
    else go (i + 1)
  in
  go 0

let kind t name = index t.kinds name
let now t = Sim.Engine.now t.engine

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.messages < 5 then t.messages <- msg :: t.messages

(* A detail for the report, without counting another failure. *)
let note t msg = if List.length t.messages < 5 then t.messages <- msg :: t.messages

let record t ~kind ~group ~start ~finish =
  t.done_ops <- t.done_ops + 1;
  t.done_ns <- t.done_ns + Sim.Time.diff finish start;
  match t.window with
  | Some (lo, hi) when Sim.Time.(start >= lo && finish <= hi) ->
      if t.n = Array.length t.lat then begin
        let grow a = Array.append a (Array.make (Array.length a) 0) in
        t.lat <- grow t.lat;
        t.tag <- grow t.tag
      end;
      t.lat.(t.n) <- Sim.Time.diff finish start;
      t.tag.(t.n) <- (kind * Array.length t.groups) + group;
      t.n <- t.n + 1
  | _ -> ()

(* Run one operation; [f] returns whether its output passed the
   workload's check. *)
let op t ~kind ~group f =
  let start = now t in
  match f () with
  | true -> record t ~kind ~group ~start ~finish:(now t)
  | false -> fail t (t.kinds.(kind) ^ ": output check failed")
  | exception e -> fail t (t.kinds.(kind) ^ ": " ^ Printexc.to_string e)

(* A client process body: loop until the run stops. *)
let client t body =
  t.active <- t.active + 1;
  (try
     while not t.stopping do
       body ()
     done
   with e -> fail t ("client died: " ^ Printexc.to_string e));
  t.active <- t.active - 1

(* A warm-up drift probe: the mean latency (ns) of the operations that
   completed since its previous call. *)
let mean_latency t =
  let ops = ref t.done_ops and ns = ref t.done_ns in
  fun () ->
    let n = t.done_ops - !ops and d = t.done_ns - !ns in
    ops := t.done_ops;
    ns := t.done_ns;
    float_of_int d /. float_of_int (Stdlib.max 1 n)

let open_window t ~start ~stop = t.window <- Some (start, stop)
let stop t = t.stopping <- true
let active t = t.active
let completed t = t.n
let failed t = t.failed
let messages t = List.rev t.messages

(* Latencies (ns, ascending) of the samples matching [keep kind group]. *)
let latencies ?(keep = fun _ _ -> true) t =
  let g = Array.length t.groups in
  let out = ref [] in
  for i = t.n - 1 downto 0 do
    if keep (t.tag.(i) / g) (t.tag.(i) mod g) then out := t.lat.(i) :: !out
  done;
  let a = Array.of_list !out in
  Array.sort Int.compare a;
  a

let kind_counts t =
  let g = Array.length t.groups in
  let counts = Array.make (Array.length t.kinds) 0 in
  for i = 0 to t.n - 1 do
    let k = t.tag.(i) / g in
    counts.(k) <- counts.(k) + 1
  done;
  Array.to_list (Array.mapi (fun i c -> (t.kinds.(i), c)) counts)

let group_names t = Array.to_list t.groups
