(* What every workload hands the measurement loop in [Bench], and the
   helpers the workloads share: set-up phase timing, the steady-state
   warm-up, Zipf draws and the engine drive loop. *)

(* A workload whose testbed is built, populated and warmed: its client
   processes are spawned and looping, and the next simulated instant
   opens the measurement window. *)
type prepared = {
  testbed : Cluster.Testbed.t;
  recorder : Recorder.t;
  servers : Cluster.Node.t list;  (** the nodes that serve the clients *)
  clients : Cluster.Node.t list;
  rmems : Rmem.Remote_memory.t list;  (** every attached remote memory *)
  counters : unit -> (string * float) list;
      (** cumulative workload-level counters, sampled at both window
          edges; their deltas are reported *)
  on_window : start:Sim.Time.t -> stop:Sim.Time.t -> unit;
      (** schedule events inside the window (e.g. a mid-run split) *)
  drain : unit -> unit;
      (** spawn end-of-run work once the clients have stopped *)
  checks : unit -> string list;  (** end-of-run output checks *)
  facts : unit -> (string * float) list;
      (** end-of-run per-layer values that are not counter deltas *)
  warmup : Sim.Time.t;  (** simulated time the warm-up took *)
}

(* Times one named set-up phase in host CPU seconds, returning its
   result. *)
type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

type spec = {
  name : string;
  sim_per_host_s : Sim.Time.t;
      (** simulated time one host second covers, roughly, on a 2-core
          x86 container — turns --seconds into a fixed simulated horizon
          so simulated metrics depend on (workload, seed, seconds) only *)
  trace_horizon : Sim.Time.t;
      (** the traced run's horizon: fixed, and short enough that every
          span of it fits in memory *)
  prepare : seed:int -> timer:timer -> prepared;
}

(* Host CPU seconds of the process: steadier than wall time on a shared
   machine, and what an optimisation of the simulator moves. *)
let cpu_s () = Sys.time ()

(* ------------------------------------------------------------------ *)
(* Engine drive.                                                       *)

let rec drive ?(sample = fun () -> ()) ?(step = Sim.Time.us 25) engine ~until =
  let now = Sim.Engine.now engine in
  if Sim.Time.(now < until) then begin
    Sim.Engine.run ~until:(Sim.Time.min until (Sim.Time.add now step)) engine;
    sample ();
    drive ~sample ~step engine ~until
  end

(* Run until [cond] holds, in [step] slices, giving up after [limit]. *)
let drive_while engine ~step ~limit cond =
  let deadline = Sim.Time.add (Sim.Engine.now engine) limit in
  while cond () && Sim.Time.(Sim.Engine.now engine < deadline) do
    Sim.Engine.run ~until:(Sim.Time.add (Sim.Engine.now engine) step) engine
  done;
  not (cond ())

(* The steady-state warm-up: run the loaded system in [window] slices
   until the drift probes stop moving — until, for every probe, the mean
   over the last [span] windows is within [tol] (relative) of the mean
   over the [span] before — after at least [min_windows] and at most
   [max_windows] windows.  Comparing means, not single windows, keeps
   window-to-window noise from reading as drift.  Deterministic: the
   stopping point depends only on simulated state. *)
let warm_up engine ~window ~min_windows ~max_windows ?(span = 3) ?(tol = 0.05) probe =
  let t0 = Sim.Engine.now engine in
  let mean rows =
    let n = float_of_int (List.length rows) in
    List.fold_left (List.map2 ( +. )) (List.map (fun _ -> 0.) (List.hd rows)) rows
    |> List.map (fun x -> x /. n)
  in
  let close a b =
    let scale = Float.max (Float.abs a) (Float.abs b) in
    scale = 0. || Float.abs (a -. b) <= tol *. scale
  in
  let rec loop w history =
    Sim.Engine.run ~until:(Sim.Time.add (Sim.Engine.now engine) window) engine;
    let history = probe () :: history in
    let settled () =
      match List.filteri (fun i _ -> i < 2 * span) history with
      | recent when List.length recent = 2 * span ->
          let last = List.filteri (fun i _ -> i < span) recent
          and before = List.filteri (fun i _ -> i >= span) recent in
          List.for_all2 close (mean last) (mean before)
      | _ -> false
    in
    if w < max_windows && (w < min_windows || not (settled ())) then loop (w + 1) history
  in
  ignore (probe () : float list);
  loop 1 [];
  Sim.Time.diff (Sim.Engine.now engine) t0

(* ------------------------------------------------------------------ *)
(* Inputs.                                                             *)

(* Zipf(s) over ranks 0..n-1 by inverse CDF, rank 0 hottest. *)
let zipf ~n ~s =
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for r = 0 to n - 1 do
    total := !total +. (float_of_int (r + 1) ** -.s);
    cdf.(r) <- !total
  done;
  fun prng ->
    let u = Sim.Prng.float prng *. !total in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then search (mid + 1) hi else search lo mid
    in
    search 0 (n - 1)

(* A client's think time between operations, in ns: small and jittered
   so closed-loop clients do not run in lockstep. *)
let think_times prng ~n ~max_us =
  Array.init n (fun _ -> Sim.Time.ns (1000 + Sim.Prng.int prng (max_us * 1000)))

(* Cycle through a pre-generated input array. *)
let cycle a i = a.(i mod Array.length a)
