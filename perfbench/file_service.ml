(* file_service: the distributed file service (Study 2) — the shared
   experimental fixture's cluster (file server on node 0, name service,
   server caches warmed) with three clients, one per transfer scheme:
   pure data transfer (DX), the paper's Hybrid-1 (write with
   notification, then a server procedure) and classic RPC.  Each runs the
   Table 1a NFS mix over the Zipf file tree through the clerk's remote
   path, so every operation reaches the server — whose CPU is the shared
   resource Figure 3 is about.

   The file tree is the fixture's own (its default seed): the system's
   data stays fixed while the benchmark seed draws the operation streams.
   Writes go to a file private to each client, so the shared tree stays
   read-only and every READ result can be checked against the server's
   file store.

   BENCHMARK.json does not list this workload: DX READs that run past the
   end of a file return the slot's zero padding, so its READ check fails
   on every run (NOTES.md, Findings). *)

let clients = 3
let schemes = [| Dfs.Clerk.Dx; Dfs.Clerk.Hybrid1; Dfs.Clerk.Rpc_baseline |]
let groups = [ "dx"; "hybrid1"; "rpc" ]

(* Table 1a activities, as mix kinds. *)
let labels =
  [
    ("Get File Attribute", "nfs_getattr");
    ("Lookup File Name", "nfs_lookup");
    ("Read File Data", "nfs_read");
    ("Null Ping Call", "nfs_null");
    ("Read Symbolic Link", "nfs_readlink");
    ("Read Directory Contents", "nfs_readdir");
    ("Read File System Stats.", "nfs_statfs");
    ("Write File Data", "nfs_write");
    ("Other", "nfs_other");
  ]

let kinds = List.map snd labels

let prepare ~seed ~(timer : Harness.timer) =
  let fx = timer.time "testbed" (fun () -> Experiments.Fixture.create ~clients ()) in
  let store = fx.Experiments.Fixture.store in
  let engine = fx.Experiments.Fixture.engine in
  let recorder = Recorder.create engine ~kinds ~groups in
  let private_files =
    timer.time "populate" (fun () ->
        let root = Dfs.File_store.root store in
        Array.iteri (fun c s -> Dfs.Clerk.set_scheme (Experiments.Fixture.clerk fx c) s) schemes;
        Array.init clients (fun c ->
            let fh =
              Dfs.File_store.create_file store ~dir:root ~name:(Printf.sprintf "private.%d" c) ()
            in
            Dfs.File_store.write store fh ~off:0 (Bytes.make Dfs.File_store.block_bytes 'p');
            fh))
  in
  let events, thinks =
    timer.time "gen" (fun () ->
      let root = Sim.Prng.create seed in
      let sample = Workload.Mix.sampler () in
      let events =
        Array.init clients (fun c ->
            let prng = Sim.Prng.split root in
            Array.init 32768 (fun _ ->
                let e = Workload.Trace.event_for fx.Experiments.Fixture.tree prng (sample prng) in
                let op =
                  match e.Workload.Trace.op with
                  | Dfs.Nfs_ops.Write w -> Dfs.Nfs_ops.Write { w with fh = private_files.(c) }
                  | op -> op
                in
                (Recorder.kind recorder (List.assoc e.Workload.Trace.label labels), op)))
      in
      ( events,
        Array.init clients (fun _ ->
            Harness.think_times (Sim.Prng.split root) ~n:1024 ~max_us:40) ))
  in
  let check op result =
    match (op, result) with
    | _, Dfs.Nfs_ops.R_error _ -> false
    | Dfs.Nfs_ops.Read { fh; off; count }, Dfs.Nfs_ops.R_data data ->
        let want = Dfs.File_store.read store fh ~off ~count in
        Bytes.equal data want
        || begin
             Recorder.note recorder
               (Printf.sprintf "READ fh %d off %d count %d: %d bytes returned, the store holds %d"
                  fh off count (Bytes.length data) (Bytes.length want));
             false
           end
    | Dfs.Nfs_ops.Read _, _ -> false
    | _ -> true
  in
  for c = 0 to clients - 1 do
    let clerk = Experiments.Fixture.clerk fx c in
    let i = ref 0 in
    Cluster.Node.spawn (Dfs.Clerk.node clerk) ~name:(Printf.sprintf "nfs.%d" c) (fun () ->
        Recorder.client recorder (fun () ->
            incr i;
            Sim.Proc.wait (Harness.cycle thinks.(c) !i);
            let kind, op = Harness.cycle events.(c) !i in
            Recorder.op recorder ~kind ~group:c (fun () ->
                check op (Dfs.Clerk.remote_fetch clerk op))))
  done;
  let dx_stats = Dfs.Clerk.stats (Experiments.Fixture.clerk fx 0) in
  let stat k = Metrics.Account.total_of dx_stats k in
  (* Drift: the server's direct-mapped slot caches lose entries to
     collisions, which sends DX operations to the control path; warm up
     until that miss rate and the mean latency settle. *)
  let latency = Recorder.mean_latency recorder in
  let last = ref (0., 0.) in
  let probe () =
    let m0, o0 = !last in
    let m = stat "dx misses -> control" and o = stat "dx ops" in
    last := (m, o);
    [ latency (); (m -. m0) /. Float.max 1. (o -. o0) ]
  in
  let warmup =
    timer.time "warmup" (fun () ->
        Harness.warm_up engine ~window:(Sim.Time.ms 50) ~min_windows:6 ~max_windows:40 ~tol:0.1
          probe)
  in
  let nodes = Cluster.Testbed.nodes fx.Experiments.Fixture.testbed in
  {
    Harness.testbed = fx.Experiments.Fixture.testbed;
    recorder;
    servers = [ Experiments.Fixture.server_node fx ];
    clients = List.tl nodes;
    rmems = Array.to_list fx.Experiments.Fixture.rmems;
    counters =
      (fun () ->
        [
          ( "rpckit.calls",
            Array.fold_left
              (fun a t -> a +. Metrics.Account.grand_total (Rpckit.Transport.call_counts t))
              0. fx.Experiments.Fixture.transports );
        ]);
    on_window = (fun ~start:_ ~stop:_ -> ());
    drain = (fun () -> ());
    checks = (fun () -> []);
    facts = (fun () -> []);
    warmup;
  }

let spec =
  {
    Harness.name = "file_service";
    sim_per_host_s = Sim.Time.sec 9;
    trace_horizon = Sim.Time.sec 2;
    prepare;
  }
