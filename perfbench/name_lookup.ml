(* name_lookup: the sharded name service scaled out (Study 1) — a
   4x8x16 Clos of 128 hosts.  Node 0 hosts the shard map, node 1 the
   reconciler, nodes 2..9 one shard each; 48 clients run Zipf(1.5)
   lookups over 256 names, each a pure remote-READ probe chain.  One
   more client registers a fresh name every couple of milliseconds
   through the reconciler (control transfer), and halfway through the
   window the reconciler splits the hottest shard while lookups flow.

   Every lookup is checked against the reference registration map: the
   coordinates it returns must be the ones registered. *)

let spines = 4
let leaves = 8
let hosts_per_leaf = 16
let shard_hosts = 8
let lookup_clients = 48
let names = 256
let zipf_s = 1.5
let slots = 1024
let first_client = 2 + shard_hosts
let registrar = first_client + lookup_clients
let report_every = 16
let kinds = [ "lookup"; "register" ]

let svc_name i = Printf.sprintf "svc.%04d" i
let reg_name i = Printf.sprintf "reg.%06d" i

let record ~name ~node ~segment_id =
  Names.Record.make ~name ~node ~segment_id
    ~generation:(Rmem.Generation.of_int 1)
    ~size:4096 ~rights:Rmem.Rights.read_only

let svc_record i = record ~name:(svc_name i) ~node:(2 + (i mod shard_hosts)) ~segment_id:(1000 + i)

let reg_record i =
  record ~name:(reg_name i) ~node:(2 + (i mod shard_hosts)) ~segment_id:(100_000 + i)

let matches (got : Names.Record.t) (want : Names.Record.t) =
  got.Names.Record.node = want.Names.Record.node
  && got.Names.Record.segment_id = want.Names.Record.segment_id
  && Rmem.Generation.equal got.Names.Record.generation want.Names.Record.generation

let prepare ~seed ~(timer : Harness.timer) =
  let ranks, thinks =
    timer.time "gen" (fun () ->
        let root = Sim.Prng.create seed in
        let draw = Harness.zipf ~n:names ~s:zipf_s in
        let ranks =
          Array.init lookup_clients (fun _ ->
              let prng = Sim.Prng.split root in
              Array.init 16384 (fun _ -> draw prng))
        in
        ( ranks,
          Array.init (lookup_clients + 1) (fun _ ->
              Harness.think_times (Sim.Prng.split root) ~n:1024 ~max_us:40) ))
  in
  let testbed =
    timer.time "testbed" (fun () ->
        Cluster.Testbed.create ~seed
          ~topology:(Atm.Network.Clos { spines; leaves; hosts_per_leaf })
          ~nodes:(leaves * hosts_per_leaf) ())
  in
  let engine = Cluster.Testbed.engine testbed in
  let node = Cluster.Testbed.node testbed in
  let recorder = Recorder.create engine ~kinds ~groups:[ "names" ] in
  let k_lookup = Recorder.kind recorder "lookup"
  and k_register = Recorder.kind recorder "register" in
  let rmems = Array.init (registrar + 1) (fun i -> Rmem.Remote_memory.attach (node i)) in
  let reconciler, scs =
    timer.time "populate" (fun () ->
      Cluster.Testbed.run testbed (fun () ->
          let clerks = Array.map (fun r -> Names.Clerk.create r) rmems in
          let reconciler =
            Names.Reconciler.create ~slots ~max_clients:(leaves * hosts_per_leaf)
              ~pace:(Sim.Time.us 150) ~map_clerk:clerks.(0)
              ~hosts:(Array.init shard_hosts (fun k -> clerks.(2 + k)))
              clerks.(1)
          in
          Names.Reconciler.serve_registrations reconciler;
          (* One shard per host before the run opens. *)
          while Names.Reconciler.shard_count reconciler < shard_hosts do
            for id = 0 to Names.Reconciler.shard_count reconciler - 1 do
              if Names.Reconciler.shard_count reconciler < shard_hosts then
                ignore (Names.Reconciler.split reconciler id : int option)
            done
          done;
          let scs =
            Array.init (lookup_clients + 1) (fun k ->
                Names.Shard_clerk.create ~map_hint:(Atm.Addr.of_int 0)
                  ~reconciler_hint:(Atm.Addr.of_int 1)
                  clerks.(first_client + k))
          in
          for i = 0 to names - 1 do
            Names.Shard_clerk.register scs.(i mod lookup_clients) (svc_record i)
          done;
          (reconciler, scs)))
  in
  let lost = ref 0 and stale = ref 0 in
  let registered = ref 0 in
  (* The reference map: what each lookup must return. *)
  let expected = Hashtbl.create 1024 in
  for i = 0 to names - 1 do
    Hashtbl.replace expected (svc_name i) (svc_record i)
  done;
  let lookup sc name =
    let want = Hashtbl.find expected name in
    match Names.Shard_clerk.lookup sc name with
    | exception Names.Clerk.Name_not_found _ ->
        incr lost;
        false
    | got ->
        if matches got want then true
        else begin
          incr stale;
          false
        end
  in
  for k = 0 to lookup_clients - 1 do
    let i = ref 0 in
    Cluster.Node.spawn (node (first_client + k)) ~name:(Printf.sprintf "lookup.%d" k) (fun () ->
        Recorder.client recorder (fun () ->
            incr i;
            Sim.Proc.wait (Harness.cycle thinks.(k) !i);
            let name = svc_name (Harness.cycle ranks.(k) !i) in
            Recorder.op recorder ~kind:k_lookup ~group:0 (fun () -> lookup scs.(k) name);
            if !i mod report_every = 0 then Names.Shard_clerk.report_load scs.(k)))
  done;
  (* The registration stream: register, then look the new name up. *)
  let reg_sc = scs.(lookup_clients) in
  Cluster.Node.spawn (node registrar) ~name:"registrar" (fun () ->
      Recorder.client recorder (fun () ->
          Sim.Proc.wait (Sim.Time.ms 2);
          let i = !registered in
          incr registered;
          let r = reg_record i in
          Recorder.op recorder ~kind:k_register ~group:0 (fun () ->
              Names.Shard_clerk.register reg_sc r;
              Hashtbl.replace expected r.Names.Record.name r;
              lookup reg_sc r.Names.Record.name)));
  let sum f = Array.fold_left (fun a sc -> a +. float_of_int (f sc)) 0. scs in
  let reads () =
    let total = ref 0. in
    for k = 0 to lookup_clients - 1 do
      total :=
        !total
        +. Metrics.Account.total_of (Rmem.Remote_memory.ops rmems.(first_client + k)) "read"
    done;
    !total
  in
  (* Drift: per-window mean lookup latency and READs per lookup settle
     once every client holds the current map and the registry slots it
     probes. *)
  let latency = Recorder.mean_latency recorder in
  let last = ref (0., 0.) in
  let probe () =
    let n0, r0 = !last in
    let n = sum Names.Shard_clerk.lookups and r = reads () in
    last := (n, r);
    let current =
      Array.for_all (fun sc -> Names.Shard_clerk.epoch sc = Names.Reconciler.epoch reconciler) scs
    in
    [ latency (); (r -. r0) /. Float.max 1. (n -. n0); (if current then 1. else 0.) ]
  in
  let warmup =
    timer.time "warmup" (fun () ->
        Harness.warm_up engine ~window:(Sim.Time.ms 5) ~min_windows:6 ~max_windows:40 probe)
  in
  let split = ref 0 in
  {
    Harness.testbed;
    recorder;
    servers = List.init (2 + shard_hosts) node;
    clients = List.init (lookup_clients + 1) (fun k -> node (first_client + k));
    rmems = Array.to_list rmems;
    counters =
      (fun () ->
        [
          ("names.reads", reads ());
          ("names.lookups", sum Names.Shard_clerk.lookups);
          ("names.stale_refetches", sum Names.Shard_clerk.stale_refetches);
          ("names.forward_patches", sum Names.Shard_clerk.forward_patches);
        ]);
    on_window =
      (fun ~start ~stop ->
        (* The mid-run split: act on the load verdict, or split the hot
           key's shard outright when the skew is under threshold. *)
        Sim.Proc.spawn engine ~name:"rebalance"
          ~after:(Sim.Time.diff stop start / 2)
          (fun () ->
            match Names.Reconciler.rebalance_once reconciler with
            | Names.Reconciler.Split _ -> incr split
            | Names.Reconciler.Balanced ->
                Option.iter
                  (fun id -> if Names.Reconciler.split reconciler id <> None then incr split)
                  (Names.Reconciler.shard_id_of_bucket reconciler
                     (Names.Shardmap.bucket_of_name (svc_name 0)))));
    drain = (fun () -> ());
    checks =
      (fun () ->
        (if !split = 1 then [] else [ Printf.sprintf "%d mid-run splits, expected 1" !split ])
        @
        let live = Names.Reconciler.live reconciler in
        if live = Hashtbl.length expected then []
        else [ Printf.sprintf "%d live records, %d registered" live (Hashtbl.length expected) ]);
    facts =
      (fun () ->
        [ ("names.lost", float_of_int !lost); ("names.stale_served", float_of_int !stale) ]);
    warmup;
  }

let spec =
  {
    Harness.name = "name_lookup";
    sim_per_host_s = Sim.Time.ms 850;
    trace_horizon = Sim.Time.ms 100;
    prepare;
  }
