(* dds_contended: the distributed data structures under contention — a
   2x8x4 Clos of 32 hosts.  Node 0 is home to the hash table (8 keys in
   16 slots), node 1 to the ticket queue, and nodes 0..2 hold the ABD
   register's replicas.  Twelve closed-loop clients, four each of the DX,
   RPC and hybrid structurings, pick a structure per operation from a
   fixed mix, with Zipf(1.5) keys and 80% mutations on the hash table and
   register (the queue alternates enqueue and dequeue).

   Output checks: every value read back encodes its own key (hash table)
   or a write some client issued (register); every dequeued value was
   enqueued and is dequeued once; at the end, enqueues equal dequeues
   plus what remains in the queue. *)

let spines = 2
let leaves = 8
let hosts_per_leaf = 4
let clients = 12
let keys = 8
let slots = 16
let zipf_s = 1.5
let mutate_pct = 80
let capacity = 1 lsl 20
let first_client = 3

let kinds =
  [ "ht_lookup"; "ht_insert"; "ht_delete"; "q_enqueue"; "q_dequeue"; "reg_read"; "reg_write" ]

let groups = [ "hashtable"; "queue"; "register" ]

(* Per-op input: (structure 0..2, mutate, key rank). The fixed mix: half
   the operations on the hash table, a quarter each on queue and
   register. *)
let gen prng =
  let draw = Harness.zipf ~n:keys ~s:zipf_s in
  Array.init 16384 (fun _ ->
      let u = Sim.Prng.int prng 4 in
      let structure = if u < 2 then 0 else u - 1 in
      (structure, Sim.Prng.int prng 100 < mutate_pct, draw prng))

let key_of rank = Int32.of_int (1 + rank)

(* One client's handles, all of the client's structuring. *)
type handles = { ht : Dds.Hashtable.t; q : Dds.Queue.t; reg : Dds.Register.t }

(* Values carry who wrote them: the key (hash table) or the client and
   its sequence number (queue, register) in the high bits. *)
let ht_value key seq = Int32.logor (Int32.shift_left key 16) (Int32.of_int (1 + (seq land 0x7FFF)))
let tagged ~client seq = Int32.of_int (((client + 1) lsl 20) lor (seq land 0xFFFFF))

(* The hash table's drift probe: tombstones and the mean probe-chain
   length over the key space, read straight out of the home segment. *)
let table_state seg =
  let space = Rmem.Segment.space seg and base = Rmem.Segment.base seg in
  let key_at i = Cluster.Address_space.read_word space ~addr:(base + (8 * i)) in
  let tombstones = ref 0 in
  for i = 0 to slots - 1 do
    if Int32.equal (key_at i) Int32.minus_one then incr tombstones
  done;
  let chain = ref 0 in
  for r = 0 to keys - 1 do
    let key = key_of r in
    let rec walk i steps =
      let k = key_at ((Dds.Hashtable.home_index ~slots key + i) land (slots - 1)) in
      if steps >= slots || Int32.equal k key || Int32.equal k 0l then steps
      else walk (i + 1) (steps + 1)
    in
    chain := !chain + walk 0 1
  done;
  (float_of_int !tombstones, float_of_int !chain /. float_of_int keys)

let prepare ~seed ~(timer : Harness.timer) =
  let inputs, thinks =
    timer.time "gen" (fun () ->
        let root = Sim.Prng.create seed in
        let inputs = Array.init clients (fun _ -> gen (Sim.Prng.split root)) in
        ( inputs,
          Array.init clients (fun _ ->
              Harness.think_times (Sim.Prng.split root) ~n:1024 ~max_us:10) ))
  in
  let testbed =
    timer.time "testbed" (fun () ->
        Cluster.Testbed.create ~seed
          ~topology:(Atm.Network.Clos { spines; leaves; hosts_per_leaf })
          ~nodes:(leaves * hosts_per_leaf) ())
  in
  let engine = Cluster.Testbed.engine testbed in
  let node = Cluster.Testbed.node testbed in
  let n = first_client + clients in
  let rmems = Array.init n (fun i -> Rmem.Remote_memory.attach (node i)) in
  let amsgs = Array.init n (fun i -> Amsg.attach (node i)) in
  let recorder = Recorder.create engine ~kinds ~groups in
  let kind = Recorder.kind recorder in
  let ht, handles =
    timer.time "populate" (fun () ->
      Cluster.Testbed.run testbed (fun () ->
          let ht = Dds.Hashtable.server ~rmem:rmems.(0) ~amsg:amsgs.(0) ~slots () in
          for r = 0 to keys - 1 do
            let key = key_of r in
            ignore (Dds.Hashtable.local_insert ht ~key ~value:(ht_value key 0) : bool)
          done;
          let q = Dds.Queue.server ~rmem:rmems.(1) ~amsg:amsgs.(1) ~capacity () in
          let reps =
            Array.init 3 (fun r -> Dds.Register.replica ~rmem:rmems.(r) ~amsg:amsgs.(r) ())
          in
          let handles =
            Array.init clients (fun k ->
                let c = first_client + k in
                let kind = List.nth Dds.Kind.all (k mod 3) in
                {
                  ht = Dds.Hashtable.client ~rmem:rmems.(c) ~amsg:amsgs.(c) ~kind ht;
                  q = Dds.Queue.client ~rmem:rmems.(c) ~amsg:amsgs.(c) ~kind q;
                  reg =
                    Dds.Register.client ~rmem:rmems.(c) ~amsg:amsgs.(c) ~kind ~rank:(1 + k) reps;
                })
          in
          (ht, handles)))
  in
  let endpoints = Array.map Dds.Call.endpoint amsgs in
  (* Queue bookkeeping: a value counts as enqueued before its enqueue is
     issued, since a concurrent dequeue may see it before the enqueue
     returns. *)
  let in_queue = Hashtbl.create 1024 in
  let enqueued = ref 0 and dequeued = ref 0 and drained = ref (-1) in
  let take v =
    match Hashtbl.find_opt in_queue v with
    | Some () ->
        Hashtbl.remove in_queue v;
        incr dequeued;
        true
    | None -> false
  in
  let reg_writes = Array.make clients 0 in
  let reg_ok v =
    Int32.equal v 0l
    ||
    let w = Int32.to_int v in
    let client = (w lsr 20) - 1 and seq = w land 0xFFFFF in
    client >= 0 && client < clients && seq <= reg_writes.(client)
  in
  let k_ht_lookup = kind "ht_lookup" and k_ht_insert = kind "ht_insert"
  and k_ht_delete = kind "ht_delete" and k_enq = kind "q_enqueue" and k_deq = kind "q_dequeue"
  and k_reg_read = kind "reg_read" and k_reg_write = kind "reg_write" in
  for k = 0 to clients - 1 do
    let { ht = ht_c; q = q_c; reg = reg_c } = handles.(k) in
    let i = ref 0 and mutations = ref 0 and queue_ops = ref 0 in
    Cluster.Node.spawn (node (first_client + k)) ~name:(Printf.sprintf "dds.%d" k) (fun () ->
        Recorder.client recorder (fun () ->
            incr i;
            Sim.Proc.wait (Harness.cycle thinks.(k) !i);
            let structure, mutate, rank = Harness.cycle inputs.(k) !i in
            let key = key_of rank in
            (match structure with
            | 0 when mutate ->
                incr mutations;
                if !mutations mod 2 = 0 then
                  Recorder.op recorder ~kind:k_ht_delete ~group:0 (fun () ->
                      ignore (Dds.Hashtable.delete ht_c key : bool);
                      true)
                else
                  Recorder.op recorder ~kind:k_ht_insert ~group:0 (fun () ->
                      Dds.Hashtable.insert ht_c ~key ~value:(ht_value key !i);
                      true)
            | 0 ->
                Recorder.op recorder ~kind:k_ht_lookup ~group:0 (fun () ->
                    match Dds.Hashtable.lookup ht_c key with
                    | None -> true
                    | Some v -> Int32.equal (Int32.shift_right_logical v 16) key)
            | 1 ->
                incr queue_ops;
                if !queue_ops mod 2 = 1 then
                  Recorder.op recorder ~kind:k_enq ~group:1 (fun () ->
                      let v = tagged ~client:k !queue_ops in
                      Hashtbl.replace in_queue v ();
                      incr enqueued;
                      ignore (Dds.Queue.enqueue q_c v : int);
                      true)
                else
                  Recorder.op recorder ~kind:k_deq ~group:1 (fun () ->
                      match Dds.Queue.try_dequeue q_c with None -> true | Some v -> take v)
            | _ when mutate ->
                Recorder.op recorder ~kind:k_reg_write ~group:2 (fun () ->
                    reg_writes.(k) <- !i;
                    ignore (Dds.Register.write reg_c (tagged ~client:k !i) : Dds.Tag.t);
                    true)
            | _ ->
                Recorder.op recorder ~kind:k_reg_read ~group:2 (fun () ->
                    reg_ok (Dds.Register.read reg_c)))))
  done;
  let seg = Dds.Hashtable.server_segment ht in
  (* Drift: DX deletes leave tombstones that lengthen every probe chain
     (the DX hash table's low-contention mean in Experiments.Dds_bench
     reads 82.6 us at 24 ops/client and 264 us at 1000); warm up until
     tombstones, chain length and mean latency settle. *)
  let latency = Recorder.mean_latency recorder in
  let probe () =
    let tombstones, chain = table_state seg in
    [ tombstones; chain; latency () ]
  in
  let warmup =
    timer.time "warmup" (fun () ->
        Harness.warm_up engine ~window:(Sim.Time.ms 5) ~min_windows:16 ~max_windows:80 ~span:4
          ~tol:0.1 probe)
  in
  let sum f = Array.fold_left (fun a h -> a +. float_of_int (f h)) 0. handles in
  {
    Harness.testbed;
    recorder;
    servers = [ node 0; node 1; node 2 ];
    clients = List.init clients (fun k -> node (first_client + k));
    rmems = Array.to_list rmems;
    counters =
      (fun () ->
        [
          ("amsg.sent", Array.fold_left (fun a m -> a +. float_of_int (Amsg.sent m)) 0. amsgs);
          ( "amsg.handler_us",
            Array.fold_left (fun a m -> a +. Sim.Time.to_us (Amsg.handler_cpu m)) 0. amsgs );
          ( "dds.fallbacks",
            sum (fun h ->
                Dds.Hashtable.rpc_fallbacks h.ht + Dds.Queue.rpc_fallbacks h.q
                + Dds.Register.rpc_fallbacks h.reg) );
          ( "dds.cas_losses",
            sum (fun h ->
                Dds.Hashtable.cas_losses h.ht + Dds.Queue.cas_losses h.q
                + Dds.Register.cas_losses h.reg) );
          ( "dds.call_timeouts",
            Array.fold_left (fun a e -> a +. float_of_int (Dds.Call.timeouts e)) 0. endpoints );
        ]);
    on_window = (fun ~start:_ ~stop:_ -> ());
    drain =
      (fun () ->
        (* Empty the queue from one client once every loop has stopped. *)
        Cluster.Node.spawn (node first_client) ~name:"dds.drain" (fun () ->
            let rest = ref 0 and bad = ref 0 in
            let rec loop () =
              match Dds.Queue.try_dequeue handles.(0).q with
              | None -> ()
              | Some v ->
                  incr rest;
                  if not (take v) then incr bad;
                  loop ()
            in
            loop ();
            drained := if !bad = 0 then !rest else -1 - !bad));
    checks =
      (fun () ->
        if !drained < 0 then [ "queue drain failed or returned values never enqueued" ]
        else if !enqueued <> !dequeued then
          (* take() counted the drained values as dequeues too. *)
          [
            Printf.sprintf "queue: %d enqueued, %d dequeued (%d drained)" !enqueued !dequeued
              !drained;
          ]
        else []);
    facts = (fun () -> []);
    warmup;
  }

let spec =
  {
    Harness.name = "dds_contended";
    sim_per_host_s = Sim.Time.ms 1300;
    trace_horizon = Sim.Time.ms 200;
    prepare;
  }
