(* bulk_stream: the paper's testbed — two workstations on one switch —
   and one client streaming 4 KB blocks to the other's exported segment.

   Each round of the client's closed loop is
   - a stream of 8..24 unbatched 4 KB WRITEs ("write"),
   - 1..3 pipelined WRITE bursts of [burst_ops] 4 KB blocks each, staged
     through an [Rmem.Pipeline] with window 8 and 32 KB batches
     ("write_burst"),
   - READ-backs of every block written this round ("read"), [window] at
     a time in flight, each checked byte for byte against what was
     written.
   The seed draws each round's shape, the blocks' contents and the
   client's short pauses before each burst and READ, which set how the
   READs queue behind each other at the target.
   A write is timed from issue to deposit at the target (the delivery
   probe), as the paper's Table 2 times it; the unbatched stream's
   first-issue-to-last-deposit throughput is the Table 2 calibration
   point, 35.4 Mb/s; its absolute error against that figure is reported. *)

let block = 4096
let max_stream = 24
let max_bursts = 3
let burst_ops = 8
let window = 8
let region = 32 * block (* each round writes two regions *)
let segment_len = 1 lsl 21
let table2_mbps = 35.4

let kinds = [ "write"; "write_burst"; "read" ]

let prepare ~seed ~(timer : Harness.timer) =
  let blocks, picks, shapes, thinks =
    timer.time "gen" (fun () ->
        let prng = Sim.Prng.create seed in
        let blocks =
          Array.init 64 (fun _ -> Bytes.init block (fun _ -> Char.chr (Sim.Prng.int prng 256)))
        in
        let picks = Array.init 4096 (fun _ -> Sim.Prng.int prng 64) in
        let shapes =
          Array.init 4096 (fun _ ->
              (8 + Sim.Prng.int prng (max_stream - 7), 1 + Sim.Prng.int prng max_bursts))
        in
        (blocks, picks, shapes, Harness.think_times prng ~n:4096 ~max_us:20))
  in
  let pause = ref 0 in
  let think () =
    incr pause;
    Sim.Proc.wait (Harness.cycle thinks !pause)
  in
  let testbed =
    timer.time "testbed" (fun () ->
        Cluster.Testbed.create ~topology:Atm.Network.Star ~seed ~nodes:2 ())
  in
  let engine = Cluster.Testbed.engine testbed in
  let n0 = Cluster.Testbed.node testbed 0 and n1 = Cluster.Testbed.node testbed 1 in
  let r0 = Rmem.Remote_memory.attach n0 and r1 = Rmem.Remote_memory.attach n1 in
  let recorder =
    Recorder.create engine ~kinds ~groups:[ "rmem" ]
  in
  let k_write = Recorder.kind recorder "write"
  and k_burst = Recorder.kind recorder "write_burst"
  and k_read = Recorder.kind recorder "read" in
  let shadow = Bytes.make segment_len '\000' in
  (* Deposits retire issued writes in order: the delivery probe counts
     bytes landed, and each pending write waits for its cumulative
     threshold. *)
  let landed = ref 0 and issued = ref 0 in
  let pending = Queue.create () in
  let unbatched_bits = ref 0. and unbatched_us = ref 0. in
  let stream_start = ref Sim.Time.zero and stream_bytes = ref 0 in
  Rmem.Remote_memory.set_delivery_probe r1
    (Some
       (fun _ ~count ->
         landed := !landed + count;
         let now = Sim.Engine.now engine in
         while
           (not (Queue.is_empty pending))
           && !landed >= (let t, _, _, _ = Queue.peek pending in t)
         do
           let _, kind, start, last = Queue.pop pending in
           Recorder.record recorder ~kind ~group:0 ~start ~finish:now;
           if last then
             (* The round's unbatched stream has fully landed. *)
             match recorder.Recorder.window with
             | Some (lo, hi) when Sim.Time.(!stream_start >= lo && now <= hi) ->
                 unbatched_bits := !unbatched_bits +. float_of_int (!stream_bytes * 8);
                 unbatched_us :=
                   !unbatched_us +. Sim.Time.to_us (Sim.Time.diff now !stream_start)
             | _ -> ()
         done));
  let expect ~start ~kind ~last bytes =
    issued := !issued + bytes;
    Queue.push (!issued, kind, start, last) pending
  in
  let space0, desc =
    timer.time "populate" (fun () ->
      Cluster.Testbed.run testbed (fun () ->
          let space0 = Cluster.Node.new_address_space n0 in
          let space1 = Cluster.Node.new_address_space n1 in
          let seg =
            Rmem.Remote_memory.export r1 ~space:space1 ~base:0 ~len:segment_len
              ~rights:Rmem.Rights.all ~name:"bulk.target" ()
          in
          let desc =
            Rmem.Remote_memory.import r0 ~remote:(Cluster.Node.addr n1)
              ~segment_id:(Rmem.Segment.id seg)
              ~generation:(Rmem.Segment.generation seg)
              ~size:segment_len ~rights:Rmem.Rights.all ()
          in
          (space0, desc)))
  in
  let buf = Rmem.Remote_memory.buffer ~space:space0 ~base:0 ~len:(window * block) in
  let pipe =
    Rmem.Pipeline.create
      ~config:(Rmem.Pipeline.pipelined_config ~window:8 ~max_batch_bytes:32768 ())
      r0
  in
  let pick = ref 0 in
  let next_block () =
    incr pick;
    blocks.(Harness.cycle picks !pick)
  in
  let round = ref 0 in
  let one_round () =
    let base = 2 * region * (!round mod (segment_len / (2 * region))) in
    let stream, bursts = Harness.cycle shapes !round in
    incr round;
    stream_start := Sim.Engine.now engine;
    stream_bytes := stream * block;
    for j = 0 to stream - 1 do
      let data = next_block () in
      let off = base + (j * block) in
      Bytes.blit data 0 shadow off block;
      let start = Sim.Engine.now engine in
      match Rmem.Remote_memory.write r0 desc ~off data with
      | () -> expect ~start ~kind:k_write ~last:(j = stream - 1) block
      | exception e -> Recorder.fail recorder ("write: " ^ Printexc.to_string e)
    done;
    for b = 0 to bursts - 1 do
      think ();
      let start = Sim.Engine.now engine in
      match
        for j = 0 to burst_ops - 1 do
          let data = next_block () in
          let off = base + region + (((b * burst_ops) + j) * block) in
          Bytes.blit data 0 shadow off block;
          Rmem.Pipeline.write pipe desc ~off data
        done;
        Rmem.Pipeline.flush pipe desc
      with
      | () -> expect ~start ~kind:k_burst ~last:false (burst_ops * block)
      | exception e -> Recorder.fail recorder ("burst: " ^ Printexc.to_string e)
    done;
    (* READ-backs, windowed: [window] READs in flight into distinct
       stripes of the local buffer, each retired when the window
       drains, each stripe checked against what was written. *)
    let written j = if j < stream then j else 32 + j - stream in
    let total = stream + (bursts * burst_ops) in
    let j = ref 0 in
    while !j < total do
      let first = !j in
      let last = Stdlib.min total (first + window) - 1 in
      let issued =
        Array.init (last - first + 1) (fun k ->
            think ();
            let start = Sim.Engine.now engine in
            match
              Rmem.Pipeline.read_submit pipe desc ~soff:(base + (written (first + k) * block))
                ~count:block ~dst:buf ~doff:(k * block) ()
            with
            | () -> Some start
            | exception e ->
                Recorder.fail recorder ("read: " ^ Printexc.to_string e);
                None)
      in
      (match Rmem.Pipeline.drain pipe with
      | () ->
          let finish = Sim.Engine.now engine in
          Array.iteri
            (fun k start ->
              Option.iter
                (fun start ->
                  let off = base + (written (first + k) * block) in
                  let got = Cluster.Address_space.read space0 ~addr:(k * block) ~len:block in
                  if Bytes.equal got (Bytes.sub shadow off block) then
                    Recorder.record recorder ~kind:k_read ~group:0 ~start ~finish
                  else Recorder.fail recorder "read: READ-back differs from what was written")
                start)
            issued
      | exception e -> Recorder.fail recorder ("read window: " ^ Printexc.to_string e));
      j := last + 1
    done
  in
  Cluster.Node.spawn n0 ~name:"bulk.client" (fun () -> Recorder.client recorder one_round);
  let warmup =
    (* No state drifts here; two milliseconds take the stream through its
       first rounds so the window opens mid-stream. *)
    timer.time "warmup" (fun () ->
        Harness.warm_up engine ~window:(Sim.Time.ms 1) ~min_windows:2 ~max_windows:2 (fun () -> []))
  in
  {
    Harness.testbed;
    recorder;
    servers = [ n1 ];
    clients = [ n0 ];
    rmems = [ r0; r1 ];
    counters = (fun () -> []);
    on_window = (fun ~start:_ ~stop:_ -> ());
    drain = (fun () -> ());
    checks = (fun () -> []);
    facts =
      (fun () ->
        let mbps = if !unbatched_us > 0. then !unbatched_bits /. !unbatched_us else 0. in
        [
          ("rmem.write_mbps_unbatched", mbps);
          ("rmem.table2_error_pct", 100. *. Float.abs (mbps -. table2_mbps) /. table2_mbps);
          ("model.validated", 1.);
        ]);
    warmup;
  }

let spec =
  {
    Harness.name = "bulk_stream";
    sim_per_host_s = Sim.Time.sec 18;
    trace_horizon = Sim.Time.sec 3;
    prepare;
  }
