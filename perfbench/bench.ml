(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   builds the named workload from the seed, warms it to steady state and
   measures a fixed simulated horizon (S host seconds' worth, roughly),
   checking every operation's output.  With --trace 0 it prints the
   end-to-end metrics; with --trace 1 the per-layer breakdown, from an
   untraced run and a traced run of the same (shorter) horizon whose
   simulated results must match bit for bit.  The last line of stdout is
   one JSON object: {"correct", "attempted", "failed", "metrics"}. *)

let specs =
  [ Bulk_stream.spec; Name_lookup.spec; File_service.spec; Dds_contended.spec ]

(* Separate set-ups per run, so set-up time is a median. *)
let min_setups = 3
let max_setups = 31
let setup_budget_s = 1.5

(* The window runs in slices, each followed by a reference pass, so the
   passes sample the machine's speed all through the window. *)
let slices = 40

(* Mix kinds across every workload, so each run reports the same
   mix.<kind>_share keys. *)
let all_kinds =
  Bulk_stream.kinds @ Name_lookup.kinds @ File_service.kinds @ Dds_contended.kinds

let p99_tail = 10

type setup = {
  prepared : Harness.prepared;
  total_s : float;
  phase_s : (string * float) list;
}

(* Build, populate and warm one workload, timing each phase. *)
let setup (spec : Harness.spec) ~seed =
  let phases = ref [] in
  let timer =
    {
      Harness.time =
        (fun name f ->
          let c = Harness.cpu_s () in
          let x = f () in
          phases := (name, Harness.cpu_s () -. c) :: !phases;
          x);
    }
  in
  let c = Harness.cpu_s () in
  let prepared = spec.prepare ~seed ~timer in
  { prepared; total_s = Harness.cpu_s () -. c; phase_s = List.rev !phases }

type run = {
  p : Harness.prepared;
  horizon : Sim.Time.t;
  before : Layers.snap;
  after : Layers.snap;
  lat : int array;  (** sorted, ns *)
  ops : int;
  failed : int;
  problems : string list;
  host_s : float;  (** CPU seconds of the timed phase *)
  host_rates : float list;  (** per-slice ops per CPU second *)
  ref_s : float;  (** mean {!Reference.pass} time after the slices *)
  profile : Obs.Profile.sample;
  gc_minor : int;
  gc_major : int;
  queue_max : int;
  peak_heap_words : int;  (** process peak, read when the window closes *)
}

let measure (p : Harness.prepared) ~horizon =
  let engine = Cluster.Testbed.engine p.testbed in
  let switches = Atm.Network.switches (Cluster.Testbed.network p.testbed) in
  let queue_max = ref 0 in
  let sample () =
    List.iter (fun sw -> queue_max := Stdlib.max !queue_max (Atm.Switch.queue_depth sw)) switches
  in
  let t0 = Sim.Engine.now engine in
  let t_end = Sim.Time.add t0 horizon in
  Recorder.open_window p.recorder ~start:t0 ~stop:t_end;
  p.on_window ~start:t0 ~stop:t_end;
  let before = Layers.snapshot p in
  let rates = ref [] and refs = ref [] in
  let gc0 = Gc.quick_stat () in
  let profile = Obs.Profile.create () in
  let c0 = Harness.cpu_s () in
  Obs.Profile.record profile "timed" (fun () ->
      for s = 1 to slices do
        let c = Harness.cpu_s () and n = Recorder.completed p.recorder in
        let until = Sim.Time.add t0 (horizon * s / slices) in
        Harness.drive ~sample engine ~until;
        let dt = Harness.cpu_s () -. c in
        if dt > 0. then
          rates := float_of_int (Recorder.completed p.recorder - n) /. dt :: !rates;
        refs := Reference.pass () :: !refs
      done);
  let host_s = Harness.cpu_s () -. c0 -. List.fold_left ( +. ) 0. !refs in
  let gc1 = Gc.quick_stat () in
  let peak_heap_words = gc1.Gc.top_heap_words in
  let after = Layers.snapshot p in
  (* Stop the closed loops, let in-flight operations finish, then run
     the workload's end-of-run work (outside the window). *)
  Recorder.stop p.recorder;
  let stopped =
    Harness.drive_while engine ~step:(Sim.Time.us 100) ~limit:(Sim.Time.sec 1) (fun () ->
        Recorder.active p.recorder > 0)
  in
  p.drain ();
  Sim.Engine.run ~until:(Sim.Time.add (Sim.Engine.now engine) (Sim.Time.sec 1)) engine;
  let problems =
    (if stopped then [] else [ "clients did not stop within 1 s of simulated time" ])
    @ p.checks () @ Recorder.messages p.recorder
  in
  {
    p;
    horizon;
    before;
    after;
    lat = Recorder.latencies p.recorder;
    ops = Recorder.completed p.recorder;
    failed = Recorder.failed p.recorder;
    problems;
    host_s;
    host_rates = !rates;
    ref_s = Stats.mean !refs;
    profile = Option.get (Obs.Profile.phase profile "timed");
    gc_minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    queue_max = !queue_max;
    peak_heap_words;
  }

(* ------------------------------------------------------------------ *)
(* Metrics.                                                            *)

let per_op r x = if r.ops = 0 then 0. else x /. float_of_int r.ops

(* Window ops per CPU second, reference passes excluded. *)
let host_rate r = float_of_int r.ops /. r.host_s
let ns_to_us ns = float_of_int ns /. 1000.
let error_rate r = float_of_int r.failed /. float_of_int (Stdlib.max 1 (r.ops + r.failed))

(* The simulated end-to-end metrics: a pure function of (workload,
   seed, horizon). *)
let simulated r =
  let n = Array.length r.lat in
  let pct p = if n = 0 then 0. else ns_to_us (Stats.percentile r.lat p) in
  let busy =
    Array.fold_left ( + ) 0
      (Array.mapi (fun i b -> b - r.before.server_busy.(i)) r.after.server_busy)
  in
  [
    ("sim_p50_us", pct 0.50, "us");
    ("sim_p99_us", pct 0.99, "us");
    ("sim_ops_per_s", float_of_int r.ops /. Sim.Time.to_sec r.horizon, "1/s");
    ("sim_server_cpu_us_per_op", per_op r (ns_to_us busy), "us");
    ("error_rate", error_rate r, "ratio");
  ]

(* error_rate can be 0, so the JSON carries it as success_ratio. *)
let end_to_end ~setup_s r =
  let get k = List.find (fun (n, _, _) -> String.equal n k) (simulated r) in
  [
    ("setup_s", setup_s, "s");
    ("host_ops_per_s", host_rate r *. r.ref_s /. Reference.nominal_s, "1/s");
    ("alloc_words_per_op", per_op r (Obs.Profile.total_words r.profile), "words");
    ("peak_heap_mb", float_of_int (r.peak_heap_words * (Sys.word_size / 8)) /. 1e6, "MB");
    get "sim_p50_us";
    get "sim_p99_us";
    get "sim_ops_per_s";
    get "sim_server_cpu_us_per_op";
    ("success_ratio", 1. -. error_rate r, "ratio");
  ]

let per_layer ~setup r =
  let b = r.before and a = r.after in
  let d f = float_of_int (f a - f b) in
  let horizon_ns = float_of_int r.horizon in
  let max_util before after =
    let m = ref 0. in
    Array.iteri (fun i x -> m := Float.max !m (float_of_int (x - before.(i)) /. horizon_ns)) after;
    !m
  in
  let cats which after before =
    List.mapi
      (fun i (name, _) ->
        ( Printf.sprintf "cluster.%s_cpu_us_per_op.%s" which name,
          per_op r (after.(i) -. before.(i)),
          "us" ))
      Layers.categories
  in
  let rm k = Layers.assoc a.rmem k -. Layers.assoc b.rmem k in
  let ex k = Layers.assoc a.extra k -. Layers.assoc b.extra k in
  let facts = r.p.facts () in
  let fact k = Layers.assoc facts k in
  let ratio x y = if y = 0. then 0. else x /. y in
  let events = d (fun s -> s.Layers.events) in
  let group_p50 g =
    match List.find_index (String.equal g) (Recorder.group_names r.p.recorder) with
    | None -> 0.
    | Some gi ->
        let l = Recorder.latencies ~keep:(fun _ grp -> grp = gi) r.p.recorder in
        if Array.length l = 0 then 0. else ns_to_us (Stats.percentile l 0.5)
  in
  let counts = Recorder.kind_counts r.p.recorder in
  let phase k = Layers.assoc setup.phase_s k in
  let cas = rm "cas" in
  [
    ("sim.samples", float_of_int (Array.length r.lat), "count");
    ("sim.events_per_op", per_op r events, "events");
    ("sim.host_ns_per_event", ratio (r.host_s *. 1e9) events, "ns");
    ("sim.warmup_ms", Sim.Time.to_ms r.p.warmup, "ms");
    ("atm.cells_per_op", per_op r (d (fun s -> s.Layers.cells)), "cells");
    ("atm.wire_bytes_per_op", per_op r (d (fun s -> s.Layers.wire_bytes)), "bytes");
    ("atm.link_busy_max", max_util b.link_busy a.link_busy, "ratio");
    ("atm.switch_queue_max", float_of_int r.queue_max, "frames");
    ("atm.drops", d (fun s -> s.Layers.drops), "count");
  ]
  @ cats "server" a.server_cpu b.server_cpu
  @ cats "client" a.client_cpu b.client_cpu
  @ [
      ("cluster.server_util_max", max_util b.server_busy a.server_busy, "ratio");
      ("rmem.reads_per_op", per_op r (rm "reads"), "ops");
      ("rmem.writes_per_op", per_op r (rm "writes"), "ops");
      ("rmem.bursts_per_op", per_op r (rm "bursts"), "ops");
      ("rmem.cas_per_op", per_op r cas, "ops");
      ("rmem.notifications_per_op", per_op r (rm "notifications"), "ops");
      ("rmem.errors_per_op", per_op r (rm "errors"), "ops");
      ("rmem.write_mbps_unbatched", fact "rmem.write_mbps_unbatched", "Mb/s");
      ("rmem.table2_error_pct", fact "rmem.table2_error_pct", "%");
      ("model.validated", fact "model.validated", "bool");
      ("names.reads_per_lookup", ratio (ex "names.reads") (ex "names.lookups"), "reads");
      ("names.stale_refetches", ex "names.stale_refetches", "count");
      ("names.forward_patches", ex "names.forward_patches", "count");
      ("names.lost", fact "names.lost", "count");
      ("names.stale_served", fact "names.stale_served", "count");
      ("dfs.dx.p50_us", group_p50 "dx", "us");
      ("dfs.hybrid1.p50_us", group_p50 "hybrid1", "us");
      ("dfs.rpc.p50_us", group_p50 "rpc", "us");
      ("rpckit.calls_per_op", per_op r (ex "rpckit.calls"), "calls");
      ("amsg.sent_per_op", per_op r (ex "amsg.sent"), "msgs");
      ("amsg.handler_cpu_us_per_op", per_op r (ex "amsg.handler_us"), "us");
      ("dds.rpc_fallbacks_per_op", per_op r (ex "dds.fallbacks"), "ops");
      ( "dds.cas_success_ratio",
        (if cas = 0. then 0. else 1. -. (ex "dds.cas_losses" /. cas)),
        "ratio" );
      ("dds.hashtable.p50_us", group_p50 "hashtable", "us");
      ("dds.queue.p50_us", group_p50 "queue", "us");
      ("dds.register.p50_us", group_p50 "register", "us");
      ("dds.call_timeouts", ex "dds.call_timeouts", "count");
      ("host.setup.testbed_s", phase "testbed", "s");
      ("host.setup.populate_s", phase "populate", "s");
      ("host.setup.warmup_s", phase "warmup", "s");
      ("host.gen_s", phase "gen", "s");
      ("host.raw_ops_per_s", host_rate r, "1/s");
      ("host.ref_pass_s", r.ref_s, "s");
      ("host.minor_gcs_per_kop", per_op r (1000. *. float_of_int r.gc_minor), "count");
      ("host.major_gcs", float_of_int r.gc_major, "count");
      ("host.promoted_words_per_op", per_op r r.profile.Obs.Profile.promoted_words, "words");
    ]
  @ List.map
      (fun k ->
        let c = Option.value ~default:0 (List.assoc_opt k counts) in
        (Printf.sprintf "mix.%s_share" k, per_op r (float_of_int c), "ratio"))
      all_kinds

(* A p99 is reported only with at least [p99_tail] samples beyond it. *)
let sample_problems r =
  let n = Array.length r.lat in
  if n = 0 then [ "no operation completed inside the window" ]
  else if Stats.beyond ~n 0.99 < p99_tail then
    [ Printf.sprintf "%d samples leave fewer than %d beyond the p99" n p99_tail ]
  else []

(* ------------------------------------------------------------------ *)
(* Output.                                                             *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let emit ~correct ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> Printf.printf "  %-44s %16.6f %s\n" n v u) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n) (json_number v)
             (json_string u))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed body

let report_problems ps = List.iter (fun p -> Printf.printf "  CHECK FAILED: %s\n" p) ps

let all_finite metrics =
  List.for_all (fun (_, v, _) -> Float.is_finite v) metrics

let horizon_of (spec : Harness.spec) ~seconds =
  Sim.Time.scale spec.sim_per_host_s (float_of_int seconds)

(* The measured set-up comes first, so no other set-up's garbage counts
   towards the run's peak heap; more set-ups follow for the median.  They
   use seeds derived from the run's, because warm-up length depends on
   the seed: the median then spans several seeds' set-ups rather than
   repeating one.  Each is followed by a reference pass, and set-up time
   is reported in reference units, like host throughput.  A failed
   operation during an extra set-up's warm-up fails the run. *)
let untraced spec ~seed ~seconds =
  let first = setup spec ~seed in
  let refs = ref [ Reference.pass () ] in
  let r = measure first.prepared ~horizon:(horizon_of spec ~seconds) in
  let times = ref [ first.total_s ] and spent = ref first.total_s and extra = ref [] in
  while
    List.length !times < min_setups
    || (List.length !times < max_setups && !spent < setup_budget_s)
  do
    let seed' = seed + List.length !times in
    let s = setup spec ~seed:seed' in
    refs := Reference.pass () :: !refs;
    spent := !spent +. s.total_s;
    times := s.total_s :: !times;
    let failed = Recorder.failed s.prepared.Harness.recorder in
    if failed > 0 then
      extra :=
        Printf.sprintf "set-up with seed %d: %d operations failed in warm-up" seed' failed
        :: !extra
  done;
  let raw = Stats.median !times and ref_s = Stats.mean !refs in
  Printf.printf "workload %s, seed %d: %d set-ups, median %.4f s CPU, reference pass %.4f s\n"
    spec.Harness.name seed (List.length !times) raw ref_s;
  ({ r with problems = r.problems @ List.rev !extra }, raw *. Reference.nominal_s /. ref_s)

let describe r =
  let n = Array.length r.lat in
  Printf.printf
    "  horizon %.1f ms simulated, %d ops sampled (%d beyond p99), %d failed, %.2f s host CPU\n"
    (Sim.Time.to_ms r.horizon) n (Stats.beyond ~n 0.99) r.failed r.host_s;
  Printf.printf "  reference pass %.4f s (nominal %.4f s)\n" r.ref_s Reference.nominal_s;
  match List.sort Float.compare r.host_rates with
  | [] -> ()
  | rates ->
      Printf.printf "  host ops/s over %d slices: min %.0f, median %.0f, max %.0f\n"
        (List.length rates) (List.hd rates) (Stats.median rates)
        (List.nth rates (List.length rates - 1))

let validation r =
  if Layers.assoc (r.p.facts ()) "model.validated" = 0. then
    print_endline "  model accuracy: unvalidated against any reference on this workload"

let main_untraced spec ~seed ~seconds =
  let r, setup_s = untraced spec ~seed ~seconds in
  describe r;
  validation r;
  let metrics = end_to_end ~setup_s r in
  Printf.printf "  %-44s %16.6f ratio\n" "error_rate" (error_rate r);
  let problems = sample_problems r @ r.problems in
  report_problems problems;
  let correct = problems = [] && r.failed = 0 && all_finite metrics in
  emit ~correct ~attempted:(r.ops + r.failed) ~failed:r.failed metrics

(* The traced run: same workload, seed and horizon as an untraced run
   made just before it, with Obs.Trace attached for the window. *)
let main_traced spec ~seed ~seconds =
  let horizon = Sim.Time.min spec.Harness.trace_horizon (horizon_of spec ~seconds) in
  let s0 = setup spec ~seed in
  let r0 = measure s0.prepared ~horizon in
  describe r0;
  let s1 = setup spec ~seed in
  let p = s1.prepared in
  let engine = Cluster.Testbed.engine p.testbed in
  let trace = Obs.Trace.create engine in
  let lo = Sim.Engine.now engine in
  Obs.Trace.attach trace;
  let r1 = Fun.protect ~finally:Obs.Trace.detach (fun () -> measure p ~horizon) in
  Obs.Trace.finalize trace;
  let summary =
    Spans.summarise trace ~lo ~hi:(Sim.Time.add lo horizon) ~settle:(Sim.Time.ms 5)
  in
  let identical =
    List.filter_map
      (fun ((n, v0, _), (_, v1, _)) ->
        if Int64.equal (Int64.bits_of_float v0) (Int64.bits_of_float v1) then None
        else Some (Printf.sprintf "traced %s = %.17g, untraced %.17g" n v1 v0))
      (List.combine (simulated r0) (simulated r1))
  in
  let overhead = 100. *. (r1.host_s -. r0.host_s) /. r0.host_s in
  let metrics =
    per_layer ~setup:s0 r0
    @ Spans.metrics summary
    @ [
        ("trace.spans", float_of_int summary.Spans.spans, "count");
        ("host.trace_overhead_pct", overhead, "%");
      ]
  in
  validation r0;
  let problems =
    sample_problems r0 @ r0.problems @ r1.problems @ summary.Spans.problems @ identical
  in
  report_problems problems;
  let correct = problems = [] && r0.failed = 0 && r1.failed = 0 && all_finite metrics in
  emit ~correct ~attempted:(r0.ops + r0.failed) ~failed:r0.failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured host seconds (roughly)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun (s : Harness.spec) -> s.name = !workload) specs with
  | None ->
      Printf.eprintf "unknown workload %S; valid: %s\n" !workload
        (String.concat ", " (List.map (fun (s : Harness.spec) -> s.name) specs));
      exit 2
  | Some _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
      exit 2
  | Some spec ->
      if !trace = 1 then main_traced spec ~seed:!seed ~seconds:!seconds
      else main_untraced spec ~seed:!seed ~seconds:!seconds
