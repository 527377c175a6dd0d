(* The pipelined issue engine: the differential suite (batched ==
   unbatched), the burst codec properties, ordering/fence semantics,
   and the lint interaction with policied retries.

   The differential trick: the same call sequence runs through a
   Pipeline twice, once with a disabled config (pure passthrough — the
   synchronous path) and once enabled (batching, windowing,
   coalescing).  Final segment contents must be identical; notification
   counts must respect the coalescing policy; the race detector and
   lint must return the same verdicts. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let ms = Sim.Time.ms

(* ---------------- The scripted differential workload -------------- *)

(* A mixed meta-instruction script: adjacent writes (merge), an
   overlapping rewrite (last-writer-wins), a distant extent, a notify
   write, a windowed read-back, a CAS, a fence.  Returns the final
   destination segment image, what the read observed, the CAS witness,
   the notification count, and the race/lint verdicts. *)
let scripted ~plan ~config () =
  let d = Rig.duo () in
  (match plan with
  | None -> ()
  | Some plan ->
      let (_ : Faults.Plane.t) =
        Faults.Plane.create ~plan ~seed:11 d.Rig.testbed
      in
      ());
  let monitor = Analysis.Monitor.create d.Rig.engine in
  Analysis.Monitor.attach_rmem monitor d.Rig.rmem0;
  Analysis.Monitor.attach_rmem monitor d.Rig.rmem1;
  let image = ref Bytes.empty in
  let observed = ref Bytes.empty in
  let cas_witness = ref 0l in
  let notified = ref 0 in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      let p = Rmem.Pipeline.create ~config d.Rig.rmem0 in
      let buf = Rig.buffer0 d in
      Rmem.Pipeline.write p desc ~off:8 (Bytes.make 24 'a');
      Rmem.Pipeline.write p desc ~off:96 (Bytes.make 32 'b');
      Rmem.Pipeline.write p desc ~off:32 (Bytes.make 64 'c');
      Rmem.Pipeline.write p desc ~off:1000 (Bytes.make 40 'd');
      Rmem.Pipeline.write p desc ~off:0 ~notify:true (Bytes.make 8 'e');
      let ok, witness =
        Rmem.Pipeline.cas p desc ~doff:2048 ~old_value:0l ~new_value:7l ()
      in
      check_bool "cas applied" true ok;
      cas_witness := witness;
      Rmem.Pipeline.read_submit p desc ~soff:0 ~count:128 ~dst:buf ~doff:0 ();
      Rmem.Pipeline.drain p;
      observed := Cluster.Address_space.read d.Rig.space0 ~addr:0 ~len:128;
      Rmem.Pipeline.fence p desc;
      image := Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len:4096;
      notified := Rmem.Notification.posted (Rmem.Segment.notification segment));
  let races = Analysis.Race.find monitor in
  let findings = Analysis.Lint.check monitor in
  (!image, !observed, !cas_witness, !notified, races, findings)

let digest b = Digest.to_hex (Digest.bytes b)

(* The reference image the script must produce, whatever the mode. *)
let expected_image () =
  let b = Bytes.make 4096 '\000' in
  Bytes.blit (Bytes.make 24 'a') 0 b 8 24;
  Bytes.blit (Bytes.make 32 'b') 0 b 96 32;
  Bytes.blit (Bytes.make 64 'c') 0 b 32 64;
  Bytes.blit (Bytes.make 40 'd') 0 b 1000 40;
  Bytes.blit (Bytes.make 8 'e') 0 b 0 8;
  Bytes.set_int32_le b 2048 7l;
  b

let differential ?(compare_observed = true) ~plan () =
  let image_u, observed_u, witness_u, notified_u, races_u, findings_u =
    scripted ~plan ~config:Rmem.Pipeline.default_config ()
  in
  let image_p, observed_p, witness_p, notified_p, races_p, findings_p =
    scripted ~plan ~config:(Rmem.Pipeline.pipelined_config ()) ()
  in
  check_string "final segment contents identical" (digest image_u)
    (digest image_p);
  check_string "both match the reference image"
    (digest (expected_image ()))
    (digest image_u);
  if compare_observed then
    check_string "read-back observed program order in both modes"
      (digest observed_u) (digest observed_p);
  check_bool "cas witness identical" true (Int32.equal witness_u witness_p);
  (* One notify request, one coalescing flush: both modes post exactly
     once.  Coalescing may only ever reduce the count. *)
  check_int "unbatched posts the notify" 1 notified_u;
  check_bool "coalescing posts at least once, never more" true
    (notified_p >= 1 && notified_p <= notified_u);
  check_int "no races either mode" 0
    (List.length races_u + List.length races_p);
  check_int "identical lint verdicts" (List.length findings_u)
    (List.length findings_p);
  check_int "clean lint report" 0 (List.length findings_u)

let differential_fault_free () = differential ~plan:None ()

(* Same script under an active fault plane (delay jitter on half the
   frames: reordering pressure on the windows without loss, so no
   recovery policy is needed and the final-image check stays exact).
   The mid-script read-back is NOT compared across modes here — jitter
   legitimately reorders frames differently for each mode's wire
   schedule, so only the fenced final state is mode-invariant. *)
let differential_under_jitter () =
  differential ~compare_observed:false
    ~plan:(Some (Faults.Plan.make ~link:(Faults.Plan.link_faults ~jitter:0.5 ()) ()))
    ()

(* ---------------- Campaign differentials --------------------------- *)

let outcome_ok (o : Faults.Campaign.outcome) = o.survived && o.converged

(* Every campaign workload, fault-free: the pipelined build must pass
   the same convergence checks as the legacy one. *)
let campaigns_fault_free () =
  List.iter
    (fun workload ->
      let a = Faults.Campaign.run ~pipelined:false ~seed:7 workload in
      let b = Faults.Campaign.run ~pipelined:true ~seed:7 workload in
      check_bool (workload ^ " unbatched converges") true (outcome_ok a);
      check_bool (workload ^ " pipelined converges") true (outcome_ok b))
    Faults.Campaign.workloads

(* Under chaos: both modes converge, and the pipelined mode keeps the
   determinism/replay contract (same plan+seed => same digest). *)
let campaigns_under_chaos () =
  let plan = Faults.Campaign.chaos_plan 0.10 in
  List.iter
    (fun workload ->
      let a = Faults.Campaign.run ~plan ~pipelined:false ~seed:42 workload in
      let b = Faults.Campaign.run ~plan ~pipelined:true ~seed:42 workload in
      let b' = Faults.Campaign.run ~plan ~pipelined:true ~seed:42 workload in
      check_bool (workload ^ " unbatched converges under chaos") true
        (outcome_ok a);
      check_bool (workload ^ " pipelined converges under chaos") true
        (outcome_ok b);
      check_bool (workload ^ " pipelined replays the digest") true
        (b.digest = b'.digest && b.events = b'.events))
    [ "quickstart"; "producer_consumer"; "replica" ];
  let o = Faults.Campaign.run ~pipelined:true ~seed:42 "crash_restart" in
  check_bool "crash_restart pipelined heals the generation bump" true
    (outcome_ok o)

(* ---------------- Ordering and the window -------------------------- *)

(* Staged writes are invisible until their flush; an overlapping read
   forces the flush (program order); a fence proves deposit. *)
let visibility_and_fence () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let p =
        Rmem.Pipeline.create ~config:(Rmem.Pipeline.pipelined_config ()) d.Rig.rmem0
      in
      let buf = Rig.buffer0 d in
      Rmem.Pipeline.write p desc ~off:0 (Bytes.make 64 'x');
      (* Staged only: nothing on the wire, the destination still sees
         zeros — the in-flight window the race detector models (the
         write's visibility witness is its flush). *)
      Sim.Proc.wait (ms 1);
      check_string "staged write not yet visible"
        (String.make 64 '\000')
        (Bytes.to_string
           (Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len:64));
      (* The overlapping read flushes first and observes program order. *)
      Rmem.Pipeline.read_submit p desc ~soff:0 ~count:64 ~dst:buf ~doff:0 ();
      Rmem.Pipeline.drain p;
      check_string "read observes the staged write"
        (String.make 64 'x')
        (Bytes.to_string
           (Cluster.Address_space.read d.Rig.space0 ~addr:0 ~len:64));
      (* Fence: staged bytes are deposited when it returns. *)
      Rmem.Pipeline.write p desc ~off:128 (Bytes.make 32 'y');
      Rmem.Pipeline.fence p desc;
      check_string "fence proves deposit"
        (String.make 32 'y')
        (Bytes.to_string
           (Cluster.Address_space.read d.Rig.space1 ~addr:128 ~len:32)))

(* The read window: full window stalls the submitter; everything
   retires at drain; adjacent staged writes merge into one burst. *)
let window_and_merge () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let p =
        Rmem.Pipeline.create
          ~config:(Rmem.Pipeline.pipelined_config ~window:2 ())
          d.Rig.rmem0
      in
      let buf = Rig.buffer0 d in
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 4096 'r');
      for i = 0 to 5 do
        Rmem.Pipeline.read_submit p desc ~soff:(i * 512) ~count:512 ~dst:buf
          ~doff:(i * 512) ()
      done;
      Rmem.Pipeline.drain p;
      check_string "windowed reads all landed"
        (String.make 3072 'r')
        (Bytes.to_string
           (Cluster.Address_space.read d.Rig.space0 ~addr:0 ~len:3072));
      let stats = Rmem.Pipeline.stats p in
      check_bool "a window of 2 stalled on 6 submits" true
        (stats.Rmem.Pipeline.window_stalls > 0);
      (* Adjacent extents merge: three touching writes, one flush, one
         burst, two merges. *)
      Rmem.Pipeline.write p desc ~off:8192 (Bytes.make 100 'm');
      Rmem.Pipeline.write p desc ~off:8292 (Bytes.make 100 'm');
      Rmem.Pipeline.write p desc ~off:8392 (Bytes.make 100 'm');
      Rmem.Pipeline.flush p desc;
      let stats = Rmem.Pipeline.stats p in
      check_bool "adjacent writes merged" true
        (stats.Rmem.Pipeline.merged_extents >= 2);
      Rmem.Pipeline.fence p desc;
      check_string "merged burst deposited"
        (String.make 300 'm')
        (Bytes.to_string
           (Cluster.Address_space.read d.Rig.space1 ~addr:8192 ~len:300)))

(* ---------------- Burst coalescing against its model ------------- *)

(* The quadratic coalescing the engine used to run, kept as the model:
   every merge copies all touched extents and the new bytes into a
   fresh buffer, and a write that touches nothing is held by
   reference. *)
let model_insert extents ~off data =
  let lo = off and hi = off + Bytes.length data in
  let before, rest =
    List.partition (fun (o, d) -> o + Bytes.length d < lo) extents
  in
  let touching, after = List.partition (fun (o, _) -> o <= hi) rest in
  match touching with
  | [] -> (before @ ((off, data) :: after), 0)
  | _ ->
      let new_lo = List.fold_left (fun acc (o, _) -> Int.min acc o) lo touching in
      let new_hi =
        List.fold_left
          (fun acc (o, d) -> Int.max acc (o + Bytes.length d))
          hi touching
      in
      let buf = Bytes.create (new_hi - new_lo) in
      List.iter
        (fun (o, d) -> Bytes.blit d 0 buf (o - new_lo) (Bytes.length d))
        touching;
      Bytes.blit data 0 buf (lo - new_lo) (Bytes.length data);
      (before @ ((new_lo, buf) :: after), List.length touching)

(* One step of a staging script.  A write's offset is placed relative
   to the previous write: [0] appends, [1] prepends, [2] overlaps it,
   [3] covers it, [4] lands anywhere (usually disjoint).  [scribble]
   overwrites the caller's buffer right after staging, so a copy taken
   at a different instant from the model's shows up as different
   bytes. *)
type step =
  | Put of { shape : int; len : int; pick : int; fill : int; scribble : bool }
  | Flush

let coalesce_segment = 4096

let step_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Flush);
        ( 9,
          map
            (fun (shape, len, pick, (fill, scribble)) ->
              Put { shape; len; pick; fill; scribble })
            (quad (int_bound 4) (int_range 1 300) (int_bound 100_000)
               (pair (int_bound 255) bool)) );
      ])

let print_step = function
  | Flush -> "flush"
  | Put { shape; len; pick; fill; scribble } ->
      Printf.sprintf "put(shape %d, len %d, pick %d, fill %d%s)" shape len pick
        fill (if scribble then ", scribble" else "")

(* Where a step's write lands, given the previous write's [lo, hi). *)
let place ~prev_lo ~prev_hi ~shape ~len ~pick =
  let off =
    match shape with
    | 0 -> prev_hi
    | 1 -> prev_lo - len
    | 2 -> prev_lo - len + 1 + (pick mod (prev_hi - prev_lo + len - 1))
    | 3 -> prev_lo - (pick mod 64)
    | _ -> pick mod coalesce_segment
  in
  let len = if shape = 3 then Int.max len (prev_hi - off + (pick mod 32)) else len in
  let len = Int.min len coalesce_segment in
  (Int.max 0 (Int.min off (coalesce_segment - len)), len)

let coalescing_matches_model =
  QCheck.Test.make ~name:"burst coalescing matches the quadratic model"
    ~count:200
    (QCheck.make
       ~print:(fun steps -> String.concat "; " (List.map print_step steps))
       QCheck.Gen.(list_size (int_range 1 60) step_gen))
    (fun steps ->
      let d = Rig.duo () in
      let served = ref [] in
      Rmem.Remote_memory.set_monitor d.Rig.rmem1
        (Some
           (function
           | Rmem.Remote_memory.Served { op = Rmem.Rights.Write_op; off; count; _ }
             ->
               served :=
                 (off, Cluster.Address_space.read d.Rig.space1 ~addr:off ~len:count)
                 :: !served
           | _ -> ()));
      let shadow = Bytes.make coalesce_segment '\000' in
      let ok = ref true in
      let expect what b = if not b then begin ok := false; prerr_endline what end in
      Rig.run d (fun () ->
          let _, desc = Rig.shared_segment ~len:coalesce_segment d in
          let p =
            Rmem.Pipeline.create
              ~config:
                (Rmem.Pipeline.pipelined_config ~max_batch_bytes:(1 lsl 20)
                   ~max_batch_ops:1000 ())
              d.Rig.rmem0
          in
          let model = ref [] and merged = ref 0 in
          let flush () =
            expect "staged extent count"
              (Rmem.Pipeline.staged_extents p = List.length !model);
            expect "merge count"
              ((Rmem.Pipeline.stats p).Rmem.Pipeline.merged_extents = !merged);
            served := [];
            Rmem.Pipeline.fence p desc;
            let sent = List.map (fun (o, b) -> (o, Bytes.copy b)) !model in
            expect "flushed extents and bytes" (List.rev !served = sent);
            List.iter (fun (o, b) -> Bytes.blit b 0 shadow o (Bytes.length b)) sent;
            model := []
          in
          let prev = ref (coalesce_segment / 2, (coalesce_segment / 2) + 1) in
          List.iter
            (function
              | Flush -> flush ()
              | Put { shape; len; pick; fill; scribble } ->
                  let prev_lo, prev_hi = !prev in
                  let off, len = place ~prev_lo ~prev_hi ~shape ~len ~pick in
                  let data =
                    Bytes.init len (fun i -> Char.chr ((fill + (7 * i)) land 0xFF))
                  in
                  Rmem.Pipeline.write p desc ~off data;
                  let m, k = model_insert !model ~off data in
                  model := m;
                  merged := !merged + k;
                  if scribble then Bytes.fill data 0 len (Char.chr (fill lxor 0x5A));
                  prev := (off, off + len))
            steps;
          flush ());
      expect "segment equals shadow"
        (Bytes.equal shadow
           (Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len:coalesce_segment));
      !ok)

(* Host allocation of one 32 KB burst built from eight contiguous 4 KB
   staged writes and flushed, run until the burst is deposited: minor
   words plus words allocated straight in the major heap (buffers above
   256 words go there).  The bound sits 15% above the level measured
   under the release profile; the quadratic coalescing it replaced
   measures 22,764.5.  Tighten it, never loosen it. *)
let burst_words_bound = 12625. (* measured 10977.5 *)

let burst_allocation () =
  let d = Rig.duo () in
  let blocks = Array.init 8 (fun i -> Bytes.make 4096 (Char.chr (65 + i))) in
  let desc = ref None in
  Rig.run d (fun () -> desc := Some (snd (Rig.shared_segment d)));
  let desc = Option.get !desc in
  let p =
    Rmem.Pipeline.create
      ~config:(Rmem.Pipeline.pipelined_config ~max_batch_bytes:32768 ())
      d.Rig.rmem0
  in
  let burst i =
    let base = 32768 * (i mod 2) in
    Array.iteri
      (fun j block -> Rmem.Pipeline.write p desc ~off:(base + (4096 * j)) block)
      blocks;
    Rmem.Pipeline.flush p desc
  in
  let words () =
    (* [Gc.counters]' own minor figure lags the allocation pointer;
       its promoted and major words are exact, and a promotion counts
       in both. *)
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let n = 32 in
  Rig.run d (fun () -> for i = 0 to n - 1 do burst i done);
  let before = words () in
  Rig.run d (fun () -> for i = 0 to n - 1 do burst i done);
  let per_burst = (words () -. before) /. float_of_int n in
  check_bool
    (Printf.sprintf "burst: %.1f words <= %.0f" per_burst burst_words_bound)
    true
    (per_burst <= burst_words_bound)

(* ---------------- Burst codec properties --------------------------- *)

let burst_gen =
  QCheck.make ~print:(fun b -> Printf.sprintf "burst of %d items" (List.length b.Rmem.Wire.items))
    QCheck.Gen.(
      let item =
        map2
          (fun off data ->
            { Rmem.Wire.off; data = Atm.Codec.view (Bytes.of_string data) })
          (int_bound 100_000)
          (string_size ~gen:char (1 -- 300))
      in
      map4
        (fun seg gen_ notify items ->
          {
            Rmem.Wire.seg;
            gen = Rmem.Generation.of_int gen_;
            notify;
            swab = false;
            items;
          })
        (int_bound 63) (int_bound 65535) bool
        (list_size (1 -- 12) item))

let burst_roundtrip =
  QCheck.Test.make ~name:"burst codec roundtrip is byte-exact" ~count:300
    burst_gen (fun b ->
      match Rmem.Wire.decode (Rmem.Wire.encode (Rmem.Wire.Write_burst b)) with
      | Ok (Rmem.Wire.Write_burst b') ->
          b'.Rmem.Wire.seg = b.Rmem.Wire.seg
          && Rmem.Generation.to_int b'.Rmem.Wire.gen
             = Rmem.Generation.to_int b.Rmem.Wire.gen
          && b'.Rmem.Wire.notify = b.Rmem.Wire.notify
          && List.length b'.Rmem.Wire.items = List.length b.Rmem.Wire.items
          && List.for_all2
               (fun (i : Rmem.Wire.burst_item) (j : Rmem.Wire.burst_item) ->
                 i.off = j.off && Atm.Codec.view_equal i.data j.data)
               b'.Rmem.Wire.items b.Rmem.Wire.items
      | _ -> false)

let burst_corruption_detected =
  QCheck.Test.make
    ~name:"AAL checksum catches every corrupted burst byte" ~count:300
    QCheck.(pair burst_gen (int_bound 1_000_000))
    (fun (b, byte) ->
      let frame =
        Atm.Frame.make
          ~src:(Atm.Addr.of_int 1)
          ~dst:(Atm.Addr.of_int 2)
          (Rmem.Wire.encode (Rmem.Wire.Write_burst b))
      in
      Atm.Frame.intact frame
      && not (Atm.Frame.intact (Atm.Frame.corrupted ~byte frame)))

let burst_frame_arithmetic =
  QCheck.Test.make ~name:"burst frame size arithmetic" ~count:300 burst_gen
    (fun b ->
      let items = b.Rmem.Wire.items in
      let encoded = Rmem.Wire.encode (Rmem.Wire.Write_burst b) in
      Bytes.length encoded = Rmem.Wire.burst_frame_bytes items
      && Rmem.Wire.burst_frame_bytes items
         = Rmem.Wire.burst_header_bytes
           + List.fold_left
               (fun acc (i : Rmem.Wire.burst_item) ->
                 acc + Rmem.Wire.burst_item_header_bytes + i.data.len)
               0 items)

(* ---------------- Lint vs policied retries ------------------------- *)

(* A tight unpolicied CAS spin is the anti-idiom lint flags; the same
   failures under a recovery policy are governed (bounded attempts,
   backoff) and must NOT be double-counted as an unbounded chain. *)
let policied_cas_not_flagged () =
  let spin ~policied =
    let d = Rig.duo () in
    let monitor = Analysis.Monitor.create d.Rig.engine in
    Analysis.Monitor.attach_rmem monitor d.Rig.rmem0;
    Analysis.Monitor.attach_rmem monitor d.Rig.rmem1;
    Rig.run d (fun () ->
        let _, desc = Rig.shared_segment d in
        let policy =
          Rmem.Recovery.policy ~attempts:2 ~timeout:(ms 2)
            ~backoff:(Sim.Time.us 10) ()
        in
        for _ = 1 to Analysis.Lint.poll_threshold + 2 do
          (* The word is 0, so old_value 9 always fails. *)
          if policied then
            ignore
              (Rmem.Remote_memory.cas_with d.Rig.rmem0 ~policy desc ~doff:4096
                 ~old_value:9l ~new_value:1l ()
                : bool * int32)
          else
            ignore
              (Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:4096
                 ~old_value:9l ~new_value:1l ()
                : bool * int32)
        done);
    List.filter
      (fun f -> String.equal f.Analysis.Lint.rule "unbounded-retry")
      (Analysis.Lint.check monitor)
  in
  check_bool "bare spin is flagged" true (spin ~policied:false <> []);
  check_int "policied retries are not an unbounded chain" 0
    (List.length (spin ~policied:true))

(* Failed CAS issues sharing one pipeline window cycle are ONE logical
   attempt (the client issued them before seeing any reply), not a
   retry chain: a full window of failures must not trip the
   unbounded-retry lint, and each window cycle counts once toward the
   unpolicied-issue tally. *)
let windowed_cas_failures_are_one_attempt () =
  let d = Rig.duo () in
  let monitor = Analysis.Monitor.create d.Rig.engine in
  Analysis.Monitor.attach_rmem monitor d.Rig.rmem0;
  Analysis.Monitor.attach_rmem monitor d.Rig.rmem1;
  let window = Analysis.Lint.poll_threshold in
  let cycles = 2 in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let p =
        Rmem.Pipeline.create
          ~config:(Rmem.Pipeline.pipelined_config ~window ())
          d.Rig.rmem0
      in
      for _ = 1 to cycles do
        (* The word is 0, so old_value 9 always fails; the window
           swallows every issue without blocking, so all [window] of
           them ride one batch. *)
        for _ = 1 to window do
          Rmem.Pipeline.cas_submit p desc ~doff:4096 ~old_value:9l
            ~new_value:1l ()
        done;
        Rmem.Pipeline.drain p
      done);
  let flagged =
    List.filter
      (fun f -> String.equal f.Analysis.Lint.rule "unbounded-retry")
      (Analysis.Lint.check monitor)
  in
  check_int "a window of async CAS failures is not an unbounded chain" 0
    (List.length flagged);
  List.iter
    (fun (_, worst) ->
      check_bool "worst chain counts batches, not issues" true
        (worst <= cycles))
    (Analysis.Monitor.worst_cas_retries monitor);
  let cas_issues =
    List.filter_map
      (fun ((_, _, op), n) ->
        if op = Rmem.Rights.Cas_op then Some n else None)
      (Analysis.Monitor.unpolicied_issues monitor)
  in
  check_int "one unpolicied tally per window cycle" cycles
    (List.fold_left ( + ) 0 cas_issues)

(* Burst writes issued inside a recovery policy count as policied for
   the fault-capable lint too. *)
let policied_flush_no_retry_finding () =
  let d = Rig.duo () in
  let monitor = Analysis.Monitor.create d.Rig.engine in
  Analysis.Monitor.attach_rmem monitor d.Rig.rmem0;
  Analysis.Monitor.attach_rmem monitor d.Rig.rmem1;
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let p =
        Rmem.Pipeline.create ~config:(Rmem.Pipeline.pipelined_config ()) d.Rig.rmem0
      in
      let policy =
        Rmem.Recovery.policy ~attempts:3 ~timeout:(ms 2)
          ~backoff:(Sim.Time.us 100) ()
      in
      Rmem.Pipeline.write p desc ~off:0 (Bytes.make 256 'p');
      Rmem.Pipeline.write p desc ~off:256 (Bytes.make 256 'q');
      Rmem.Pipeline.flush ~policy p desc;
      Rmem.Pipeline.fence ~policy p desc);
  let findings =
    List.filter
      (fun f -> String.equal f.Analysis.Lint.rule "no-retry-policy")
      (Analysis.Lint.check ~fault_capable:true monitor)
  in
  check_int "policied flush leaves no no-retry-policy finding" 0
    (List.length findings)

(* ---------------- BENCH artifact sanity ---------------------------- *)

(* The emitted JSON document parses (structural RFC 8259 validator) and
   the smoke sweep passes the PR's regression gates. *)
let bench_json_parses () =
  let samples =
    Experiments.Pipeline_bench.run ~ops:16 ~windows:[ 1; 4 ] ~batches:[ 4096 ]
      ~payloads:[ 4096 ] ()
  in
  let json = Experiments.Pipeline_bench.to_json samples in
  check_bool "emitted JSON parses" true
    (Experiments.Pipeline_bench.json_valid json);
  check_bool "known-bad JSON rejected" false
    (Experiments.Pipeline_bench.json_valid "{\"a\": [1, 2,}")

let suite =
  [
    Alcotest.test_case "differential: batched == unbatched (fault-free)"
      `Quick differential_fault_free;
    Alcotest.test_case "differential: batched == unbatched (under jitter)"
      `Quick differential_under_jitter;
    Alcotest.test_case "differential: campaigns fault-free" `Quick
      campaigns_fault_free;
    Alcotest.test_case "differential: campaigns under chaos" `Quick
      campaigns_under_chaos;
    Alcotest.test_case "visibility, program order, fence" `Quick
      visibility_and_fence;
    Alcotest.test_case "window stalls and extent merging" `Quick
      window_and_merge;
    QCheck_alcotest.to_alcotest coalescing_matches_model;
    Alcotest.test_case "burst coalescing allocation" `Quick burst_allocation;
    QCheck_alcotest.to_alcotest burst_roundtrip;
    QCheck_alcotest.to_alcotest burst_corruption_detected;
    QCheck_alcotest.to_alcotest burst_frame_arithmetic;
    Alcotest.test_case "policied CAS retries are not an unbounded chain"
      `Quick policied_cas_not_flagged;
    Alcotest.test_case "windowed CAS failures count as one attempt" `Quick
      windowed_cas_failures_are_one_attempt;
    Alcotest.test_case "policied flush satisfies fault-capable lint" `Quick
      policied_flush_no_retry_finding;
    Alcotest.test_case "bench JSON artifact parses" `Quick bench_json_parses;
  ]
