(* Tests for the remote memory model — the paper's core contribution. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Wire codec ---------------- *)

let gen_message =
  QCheck.Gen.(
    let bytes_gen =
      map (fun s -> Atm.Codec.view (Bytes.of_string s)) (string_size (0 -- 300))
    in
    let gen16 = map Rmem.Generation.of_int (1 -- 0xFFFF) in
    oneof
      [
        map
          (fun (seg, gen, off, notify, data) ->
            Rmem.Wire.Write
              { seg; gen; off; notify; swab = off mod 2 = 0; data })
          (tup5 (0 -- 255) gen16 (0 -- 0xFFFFFF) bool bytes_gen);
        map
          (fun (seg, gen, soff, count, reqid) ->
            Rmem.Wire.Read
              {
                seg;
                gen;
                soff;
                count;
                reqid;
                notify = count mod 2 = 0;
                swab = count mod 3 = 0;
              })
          (tup5 (0 -- 255) gen16 (0 -- 0xFFFFFF) (0 -- 0xFFFFF) (1 -- 0xFFFF));
        map
          (fun (reqid, chunk_off, data) ->
            Rmem.Wire.Read_reply
              {
                status = Rmem.Status.Ok;
                reqid;
                chunk_off;
                swab = chunk_off mod 2 = 0;
                data;
              })
          (tup3 (1 -- 0xFFFF) (0 -- 0xFFFFFF) bytes_gen);
        map
          (fun (seg, gen, doff, reqid) ->
            Rmem.Wire.Cas
              {
                seg;
                gen;
                doff;
                old_value = 5l;
                new_value = 6l;
                reqid;
                notify = false;
              })
          (tup4 (0 -- 255) gen16 (0 -- 0xFFFFFF) (1 -- 0xFFFF));
        map
          (fun (reqid, witness) ->
            Rmem.Wire.Cas_reply
              { status = Rmem.Status.Protection; reqid; witness = Int32.of_int witness })
          (tup2 (1 -- 0xFFFF) (0 -- 1000));
      ])

let wire_roundtrip =
  QCheck.Test.make ~name:"wire encode/decode roundtrip" ~count:300
    (QCheck.make gen_message) (fun message ->
      match Rmem.Wire.decode (Rmem.Wire.encode message) with
      | Ok decoded -> Rmem.Wire.equal decoded message
      | Error _ -> false)

let wire_write_header_size () =
  let encoded =
    Rmem.Wire.encode
      (Rmem.Wire.Write
         {
           seg = 1;
           gen = Rmem.Generation.initial;
           off = 0;
           notify = false;
           swab = false;
           data = Atm.Codec.view (Bytes.make 40 'x');
         })
  in
  (* 8-byte header + 40 data bytes = exactly one 48-byte cell payload. *)
  check_int "one cell exactly" 48 (Bytes.length encoded);
  check_int "single cell" 1 (Atm.Aal.cells_of_len (Bytes.length encoded))

let wire_data_cells () =
  check_int "zero" 1 (Rmem.Wire.data_cells 0);
  check_int "40" 1 (Rmem.Wire.data_cells 40);
  check_int "41" 2 (Rmem.Wire.data_cells 41);
  check_int "4K paper figure" 103 (Rmem.Wire.data_cells 4096)

(* ---------------- Wire fuzz ---------------- *)

(* Valid messages of all seven kinds, including failure statuses. *)
let gen_any_message =
  QCheck.Gen.(
    let view_gen =
      map (fun s -> Atm.Codec.view (Bytes.of_string s)) (string_size (0 -- 200))
    in
    let status = map Rmem.Status.of_code (0 -- 7) in
    let gen16 = map Rmem.Generation.of_int (1 -- 0xFFFF) in
    let nack =
      map
        (fun (status, seg, gen, off, count) ->
          Rmem.Wire.Write_nack { status; seg; gen; off; count })
        (tup5 status (0 -- 255) gen16 (0 -- 0xFFFFFF) (0 -- 0xFFFFF))
    in
    let burst =
      map
        (fun (seg, gen, notify, swab, items) ->
          Rmem.Wire.Write_burst
            {
              seg;
              gen;
              notify;
              swab;
              items =
                List.map (fun (off, data) -> { Rmem.Wire.off; data }) items;
            })
        (tup5 (0 -- 255) gen16 bool bool
           (list_size (0 -- 6) (pair (0 -- 0xFFFFFF) view_gen)))
    in
    let reply =
      map
        (fun (status, reqid, chunk_off, data) ->
          Rmem.Wire.Read_reply
            { status; reqid; chunk_off; swab = reqid mod 2 = 0; data })
        (tup4 status (1 -- 0xFFFF) (0 -- 0xFFFFFF) view_gen)
    in
    frequency [ (4, gen_message); (1, nack); (2, burst); (1, reply) ])

let print_message m = Printf.sprintf "%d-byte frame" (Rmem.Wire.encoded_bytes m)

let decodes_without_raising payload =
  match Rmem.Wire.decode payload with Ok _ | Error _ -> true

let wire_fuzz_random_bytes =
  QCheck.Test.make ~name:"wire decode is total on random bytes" ~count:2000
    QCheck.(
      pair (int_bound 0x3F) (string_of_size Gen.(0 -- 120)))
    (fun (tag, rest) ->
      (* Bias the first byte into (and around) the protocol's tag ranges. *)
      let payload = Bytes.of_string (String.make 1 (Char.chr (tag + 0x08)) ^ rest) in
      decodes_without_raising payload
      && decodes_without_raising (Bytes.of_string rest))

let wire_fuzz_damaged_frames =
  QCheck.Test.make
    ~name:"wire decode is total on truncated and bit-flipped frames"
    ~count:1000
    QCheck.(
      triple (make ~print:print_message gen_any_message) (int_bound 100_000)
        (int_bound 7))
    (fun (message, at, bit) ->
      let frame = Rmem.Wire.encode message in
      let len = Bytes.length frame in
      let truncated = Bytes.sub frame 0 (at mod len) in
      let flipped = Bytes.copy frame in
      let i = at mod len in
      Bytes.set_uint8 flipped i (Bytes.get_uint8 flipped i lxor (1 lsl bit));
      decodes_without_raising truncated && decodes_without_raising flipped)

let wire_roundtrip_all_kinds =
  QCheck.Test.make
    ~name:"wire roundtrip and exact sizing, all seven kinds" ~count:1000
    (QCheck.make ~print:print_message gen_any_message)
    (fun message ->
      let frame = Rmem.Wire.encode message in
      Bytes.length frame = Rmem.Wire.encoded_bytes message
      &&
      match Rmem.Wire.decode frame with
      | Ok decoded -> Rmem.Wire.equal decoded message
      | Error _ -> false)

(* A frame that passes the AAL check but does not parse is counted and
   dropped at the receiver; the run goes on and later traffic lands. *)
let malformed_frames_dropped () =
  let d = Rig.duo () in
  let garbage =
    [
      Bytes.of_string "\x12";  (* WRITE tag, header cut short *)
      Bytes.of_string "\x16\x09\x00\x00\x00\x00\x00\x00";  (* status 9 *)
      Bytes.of_string "\x10\x00";  (* op 0 *)
      Bytes.of_string "\x14\x01\x01\x00\x00\x00\x00\x00\x04\x00\x00\x00\x01\x00\xff";
      (* a READ with a trailing byte *)
    ]
  in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      List.iter
        (fun payload ->
          Cluster.Node.transmit d.Rig.node0 ~dst:(Cluster.Node.addr d.Rig.node1)
            payload)
        garbage;
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:64
        (Bytes.of_string "still alive");
      Rmem.Remote_memory.fence d.Rig.rmem0 desc);
  check_int "malformed frames counted" (List.length garbage)
    (Rmem.Remote_memory.malformed d.Rig.rmem1);
  check_int "sender saw none" 0 (Rmem.Remote_memory.malformed d.Rig.rmem0);
  Alcotest.(check string)
    "later write landed" "still alive"
    (Bytes.to_string
       (Cluster.Address_space.read d.Rig.space1 ~addr:64 ~len:11))

(* ---------------- Allocation regression ---------------- *)

(* Host allocation of the data path, in exact minor-heap words per
   operation on a two-node Star testbed once warm: a 4 KB unbatched
   WRITE and a 4 KB READ, each run to quiescence (every frame delivered
   and deposited).  The bounds sit 15% above the levels measured under
   the release profile (a dev-profile build, with -opaque, measures
   2651.1 and 2550.1, still inside them) and below those levels plus
   the 538 minor words one re-added copy of every chunk costs (twelve
   320-byte chunks of 42 words and a 256-byte one of 34), so such a copy
   fails here deterministically.  Tighten them, never loosen them. *)
let write_4k_words_bound = 2718. (* measured 2363.0 *)
let read_4k_words_bound = 2611. (* measured 2270.0 *)

let alloc_per_4k_op () =
  let testbed =
    Cluster.Testbed.create ~topology:Atm.Network.Star ~nodes:2 ()
  in
  let n0 = Cluster.Testbed.node testbed 0 and n1 = Cluster.Testbed.node testbed 1 in
  let r0 = Rmem.Remote_memory.attach n0 and r1 = Rmem.Remote_memory.attach n1 in
  let space0 = Cluster.Node.new_address_space n0 in
  let space1 = Cluster.Node.new_address_space n1 in
  let len = 65536 in
  let desc =
    Cluster.Testbed.run testbed (fun () ->
        let seg =
          Rmem.Remote_memory.export r1 ~space:space1 ~base:0 ~len
            ~rights:Rmem.Rights.all ~name:"alloc" ()
        in
        Rmem.Remote_memory.import r0 ~remote:(Cluster.Node.addr n1)
          ~segment_id:(Rmem.Segment.id seg)
          ~generation:(Rmem.Segment.generation seg)
          ~size:len ~rights:Rmem.Rights.all ())
  in
  let block = Bytes.init 4096 (fun i -> Char.chr (i land 0xFF)) in
  let dst = Rmem.Remote_memory.buffer ~space:space0 ~base:0 ~len:4096 in
  let write i = Rmem.Remote_memory.write r0 desc ~off:(4096 * (i mod 16)) block in
  let read i =
    Rmem.Remote_memory.read_wait r0 desc ~soff:(4096 * (i mod 16)) ~count:4096
      ~dst ~doff:0 ()
  in
  let words_per_op op =
    let n = 64 in
    (* Warm-up: touch every page and grow every table first. *)
    Cluster.Testbed.run testbed (fun () -> for i = 0 to n - 1 do op i done);
    let before = Gc.minor_words () in
    Cluster.Testbed.run testbed (fun () -> for i = 0 to n - 1 do op i done);
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let write_words = words_per_op write in
  let read_words = words_per_op read in
  Alcotest.(check bool)
    (Printf.sprintf "write: %.1f words <= %.0f" write_words write_4k_words_bound)
    true
    (write_words <= write_4k_words_bound);
  Alcotest.(check bool)
    (Printf.sprintf "read: %.1f words <= %.0f" read_words read_4k_words_bound)
    true
    (read_words <= read_4k_words_bound)

(* ---------------- Data transfer ---------------- *)

let write_then_read_identity =
  QCheck.Test.make ~name:"remote write then remote read is identity" ~count:40
    QCheck.(pair (int_bound 30000) (string_of_size Gen.(1 -- 20000)))
    (fun (off, payload) ->
      let d = Rig.duo () in
      let data = Bytes.of_string payload in
      Rig.run d (fun () ->
          let _, desc = Rig.shared_segment ~len:65536 d in
          Rmem.Remote_memory.write d.Rig.rmem0 desc ~off data;
          Sim.Proc.wait (Sim.Time.ms 50);
          let buf = Rig.buffer0 d in
          Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:off
            ~count:(Bytes.length data) ~dst:buf ~doff:100 ();
          Bytes.equal data
            (Cluster.Address_space.read d.Rig.space0 ~addr:100
               ~len:(Bytes.length data))))

let zero_length_write_doorbell () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      let fd = Rmem.Segment.notification segment in
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 ~notify:true Bytes.empty;
      let record = Rmem.Notification.wait fd in
      check_int "empty doorbell" 0 record.Rmem.Notification.count)

let cas_swaps_once () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let won, witness =
        Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:64 ~old_value:0l
          ~new_value:5l ()
      in
      check_bool "won" true won;
      Alcotest.(check int32) "witness 0" 0l witness;
      let won, witness =
        Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:64 ~old_value:0l
          ~new_value:6l ()
      in
      check_bool "lost" false won;
      Alcotest.(check int32) "witness 5" 5l witness;
      Alcotest.(check int32) "memory holds 5" 5l
        (Cluster.Address_space.read_word d.Rig.space1 ~addr:64))

let cas_result_deposit () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let buf = Rig.buffer0 d in
      let _, _ =
        Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:0 ~old_value:0l
          ~new_value:3l ~result:(buf, 12) ()
      in
      Alcotest.(check int32) "success word deposited" 1l
        (Cluster.Address_space.read_word d.Rig.space0 ~addr:12))

(* ---------------- Protection and failure paths ---------------- *)

let local_check tag expected body =
  check_bool tag true
    (try
       body ();
       false
     with Rmem.Status.Remote_error status -> status = expected)

let rights_enforced_locally () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment ~rights:Rmem.Rights.read_only d in
      local_check "write denied" Rmem.Status.Protection (fun () ->
          Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 4 'x'));
      local_check "cas denied" Rmem.Status.Protection (fun () ->
          ignore
            (Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:0 ~old_value:0l
               ~new_value:1l ())))

let rights_enforced_remotely () =
  (* Forge a descriptor claiming rights the exporter never granted: the
     receiving kernel rejects the op. *)
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, _ = Rig.shared_segment ~rights:Rmem.Rights.read_only d in
      let forged =
        Rmem.Remote_memory.import d.Rig.rmem0
          ~remote:(Cluster.Node.addr d.Rig.node1)
          ~segment_id:(Rmem.Segment.id segment)
          ~generation:(Rmem.Segment.generation segment)
          ~size:65536 ~rights:Rmem.Rights.all ()
      in
      (* The write is silently dropped (no reply path for writes); the
         destination's error counter ticks. *)
      Rmem.Remote_memory.write d.Rig.rmem0 forged ~off:0 (Bytes.make 4 'x');
      Sim.Proc.wait (Sim.Time.ms 1);
      Alcotest.(check (float 0.01)) "protection error recorded" 1.
        (Metrics.Account.total_of
           (Rmem.Remote_memory.errors d.Rig.rmem1)
           "protection violation");
      check_bool "memory untouched" true
        (Bytes.equal (Bytes.make 4 '\000')
           (Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len:4)))

let per_importer_grants () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, _ = Rig.shared_segment ~rights:Rmem.Rights.read_only d in
      Rmem.Segment.grant segment
        ~importer:(Cluster.Node.addr d.Rig.node0)
        Rmem.Rights.all;
      let desc =
        Rmem.Remote_memory.import d.Rig.rmem0
          ~remote:(Cluster.Node.addr d.Rig.node1)
          ~segment_id:(Rmem.Segment.id segment)
          ~generation:(Rmem.Segment.generation segment)
          ~size:65536 ~rights:Rmem.Rights.all ()
      in
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:8 (Bytes.of_string "ok");
      Sim.Proc.wait (Sim.Time.ms 1);
      check_bool "granted write landed" true
        (Bytes.equal (Bytes.of_string "ok")
           (Cluster.Address_space.read d.Rig.space1 ~addr:8 ~len:2)))

let bounds_checked () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment ~len:4096 d in
      local_check "off past end" Rmem.Status.Bounds (fun () ->
          Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:4095
            (Bytes.make 2 'x'));
      local_check "read past end" Rmem.Status.Bounds (fun () ->
          Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:5000
            ~dst:(Rig.buffer0 d) ~doff:0 ()))

let stale_generation_paths () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      (* A stale descriptor fails locally, before any network traffic. *)
      Rmem.Descriptor.mark_stale desc;
      local_check "local stale failure" Rmem.Status.Stale_generation (fun () ->
          Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:4
            ~dst:(Rig.buffer0 d) ~doff:0 ());
      (* Refresh it with a wrong generation: the destination rejects. *)
      Rmem.Descriptor.refresh desc
        ~generation:(Rmem.Generation.next (Rmem.Descriptor.generation desc));
      local_check "remote stale rejection" Rmem.Status.Stale_generation
        (fun () ->
          Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:4
            ~dst:(Rig.buffer0 d) ~doff:0 ()))

let revoked_segment_rejects () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      Rmem.Remote_memory.revoke d.Rig.rmem1 segment;
      local_check "revoked" Rmem.Status.Bad_segment (fun () ->
          Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:4
            ~dst:(Rig.buffer0 d) ~doff:0 ()))

let write_inhibit_drops () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      Rmem.Segment.set_write_inhibit segment true;
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.of_string "no");
      Sim.Proc.wait (Sim.Time.ms 1);
      check_bool "inhibited write dropped" true
        (Bytes.equal (Bytes.make 2 '\000')
           (Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len:2));
      (* Reads still work. *)
      Rmem.Segment.set_write_inhibit segment false;
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.of_string "ok");
      Sim.Proc.wait (Sim.Time.ms 1);
      check_bool "after uninhibit" true
        (Bytes.equal (Bytes.of_string "ok")
           (Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len:2)))

let timeout_on_crashed_node () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      Cluster.Node.set_down d.Rig.node1 true;
      check_bool "timeout raised" true
        (try
           Rmem.Remote_memory.read_wait ~timeout:(Sim.Time.ms 2) d.Rig.rmem0
             desc ~soff:0 ~count:4 ~dst:(Rig.buffer0 d) ~doff:0 ();
           false
         with Rmem.Status.Timeout -> true);
      (* Failure detection by timeout is the paper's recovery story:
         after the node comes back, the same descriptor works again. *)
      Cluster.Node.set_down d.Rig.node1 false;
      Rmem.Remote_memory.read_wait ~timeout:(Sim.Time.ms 2) d.Rig.rmem0 desc
        ~soff:0 ~count:4 ~dst:(Rig.buffer0 d) ~doff:0 ())

(* ---------------- Notification ---------------- *)

let notify_policies () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let run_policy policy ~notify =
        let segment, desc =
          Rig.shared_segment ~policy ~len:4096 d
        in
        Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 ~notify
          (Bytes.make 8 'x');
        Sim.Proc.wait (Sim.Time.ms 1);
        Rmem.Notification.posted (Rmem.Segment.notification segment)
      in
      check_int "never + notify bit" 0
        (run_policy Rmem.Segment.Never ~notify:true);
      check_int "always without bit" 1
        (run_policy Rmem.Segment.Always ~notify:false);
      check_int "conditional without bit" 0
        (run_policy Rmem.Segment.Conditional ~notify:false);
      check_int "conditional with bit" 1
        (run_policy Rmem.Segment.Conditional ~notify:true))

let notification_costs_and_queue () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      let fd = Rmem.Segment.notification segment in
      (* Two writes with notify, nobody reading: records queue. *)
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 ~notify:true
        (Bytes.make 4 'a');
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:8 ~notify:true
        (Bytes.make 4 'b');
      Sim.Proc.wait (Sim.Time.ms 2);
      check_int "two queued" 2 (Rmem.Notification.pending fd);
      let r1 = Rmem.Notification.wait fd in
      let r2 = Rmem.Notification.wait fd in
      check_int "fifo order by offset" 0 r1.Rmem.Notification.off;
      check_int "second" 8 r2.Rmem.Notification.off;
      check_bool "drained" true (Rmem.Notification.try_read fd = None))

let signal_handler_upcall () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      let fd = Rmem.Segment.notification segment in
      let upcalls = ref 0 in
      Rmem.Notification.set_signal_handler fd (Some (fun _ -> incr upcalls));
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 ~notify:true
        (Bytes.make 4 'x');
      Sim.Proc.wait (Sim.Time.ms 1);
      check_int "upcall ran" 1 !upcalls;
      check_int "nothing queued" 0 (Rmem.Notification.pending fd))

let read_completion_notification () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let fd = Rmem.Remote_memory.completion_fd d.Rig.rmem0 in
      Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:16
        ~dst:(Rig.buffer0 d) ~doff:0 ~notify:true ();
      Sim.Proc.wait (Sim.Time.ms 1);
      check_int "completion posted on reader's fd" 1
        (Rmem.Notification.posted fd))

(* ---------------- Segments and generations ---------------- *)

let export_pins_pages () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, _ = Rig.shared_segment ~len:10000 d in
      check_bool "pages pinned" true
        (Cluster.Address_space.is_pinned d.Rig.space1 ~addr:0 ~len:10000);
      Rmem.Remote_memory.revoke d.Rig.rmem1 segment;
      check_bool "unpinned after revoke" false
        (Cluster.Address_space.is_pinned d.Rig.space1 ~addr:0 ~len:10000))

let generations_increase_per_export () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let s1 =
        Rmem.Remote_memory.export d.Rig.rmem1 ~space:d.Rig.space1 ~base:0
          ~len:4096 ~name:"a" ()
      in
      let s2 =
        Rmem.Remote_memory.export d.Rig.rmem1 ~space:d.Rig.space1 ~base:8192
          ~len:4096 ~name:"b" ()
      in
      check_int "consecutive generations"
        (Rmem.Generation.to_int (Rmem.Segment.generation s1) + 1)
        (Rmem.Generation.to_int (Rmem.Segment.generation s2)))

let generation_wraps_past_invalid () =
  let g = ref (Rmem.Generation.of_int 0xFFFF) in
  g := Rmem.Generation.next !g;
  check_int "wraps to initial, skipping 0" 1 (Rmem.Generation.to_int !g)

let well_known_id_export () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let s =
        Rmem.Remote_memory.export d.Rig.rmem1 ~space:d.Rig.space1 ~base:0
          ~len:4096 ~id:77 ~name:"wk" ()
      in
      check_int "requested id" 77 (Rmem.Segment.id s);
      check_bool "collision rejected" true
        (try
           ignore
             (Rmem.Remote_memory.export d.Rig.rmem1 ~space:d.Rig.space1
                ~base:8192 ~len:4096 ~id:77 ~name:"wk2" ());
           false
         with Invalid_argument _ -> true))

(* ---------------- Accounting ---------------- *)

let fence_orders_writes () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment ~len:65536 d in
      (* A pile of writes, then a fence: all must be visible after. *)
      for i = 0 to 9 do
        Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:(i * 4096)
          (Bytes.make 4096 (Char.chr (97 + i)))
      done;
      Rmem.Remote_memory.fence d.Rig.rmem0 desc;
      for i = 0 to 9 do
        check_bool
          (Printf.sprintf "write %d deposited before fence returned" i)
          true
          (Bytes.equal
             (Cluster.Address_space.read d.Rig.space1 ~addr:(i * 4096)
                ~len:4096)
             (Bytes.make 4096 (Char.chr (97 + i))))
      done)

(* Read-backs borrow a per-call scratch space that the node never
   registers: a thousand fences, and verified writes and bursts, leave
   the node's registered-space count where it was. *)
let scratch_spaces_unregistered () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment ~len:65536 d in
      let before = Cluster.Node.address_spaces d.Rig.node0 in
      for _ = 1 to 1_000 do
        Rmem.Remote_memory.fence d.Rig.rmem0 desc
      done;
      let policy = Rmem.Recovery.default in
      Rmem.Remote_memory.write_with d.Rig.rmem0 ~policy desc ~off:0
        (Bytes.make 64 'w');
      Rmem.Remote_memory.write_burst_with d.Rig.rmem0 ~policy desc
        [ (128, Bytes.make 32 'a'); (256, Bytes.make 32 'b') ];
      check_int "registered spaces unchanged" before
        (Cluster.Node.address_spaces d.Rig.node0))

let stats_track_bytes () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 1000 'x');
      Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:500
        ~dst:(Rig.buffer0 d) ~doff:0 ();
      Alcotest.(check (float 0.01)) "write bytes" 1000.
        (Metrics.Account.total_of (Rmem.Remote_memory.data_bytes d.Rig.rmem0) "write");
      Alcotest.(check (float 0.01)) "read bytes" 500.
        (Metrics.Account.total_of (Rmem.Remote_memory.data_bytes d.Rig.rmem0) "read");
      Alcotest.(check (float 0.01)) "served at exporter" 1000.
        (Metrics.Account.total_of
           (Rmem.Remote_memory.data_bytes d.Rig.rmem1)
           "write served"))

(* ---------------- WRITE characterization ---------------- *)

(* Everything observable about one WRITE or WRITE burst, issued from a
   quiet node 0 into a segment on node 1 (in the server role) and run to
   quiescence, as one line: the instant the issue call returns, each
   node's CPU per category, the monitor's issue/serve sequence with its
   instants, the delivery probe's calls, the notification records, the
   byte accounts, a digest of the destination memory and the span tree
   (root phases in clear, every span's name, parent and interval in the
   digest).  The expected lines were recorded from the implementation
   with separate single and burst WRITE paths; any change to what a
   WRITE costs, when it lands or how it is traced shows up here. *)

type write_shape =
  | Single of { off : int; len : int }
  | Burst of (int * int) list (* (off, len) extents, in issue order *)

let shape_name = function
  | Single { len; _ } -> Printf.sprintf "write %d" len
  | Burst extents -> Printf.sprintf "burst x%d" (List.length extents)

let fill ~salt len = Bytes.init len (fun i -> Char.chr ((i * 7 + salt) land 0xFF))

let characterize ?(inhibit = false) ~notify ~swab ~crypto shape =
  let d = Rig.duo () in
  Rmem.Remote_memory.set_server_role d.Rig.rmem1;
  if crypto then begin
    Rmem.Remote_memory.set_crypto d.Rig.rmem0 (Some Rmem.Crypto.software_des);
    Rmem.Remote_memory.set_crypto d.Rig.rmem1 (Some Rmem.Crypto.software_des)
  end;
  let ns () = Sim.Time.to_ns (Sim.Engine.now d.Rig.engine) in
  let log = Buffer.create 256 in
  let note fmt = Printf.bprintf log fmt in
  let monitor node event =
    match (event : Rmem.Remote_memory.monitor_event) with
    | Issued { off; count; notify; _ } ->
        note " I%d@%d:%d+%d%s" node (ns ()) off count (if notify then "n" else "")
    | Served { off; count; notified; _ } ->
        note " S%d@%d:%d+%d%s" node (ns ()) off count (if notified then "n" else "")
    | Serve_rejected { off; count; status; _ } ->
        note " R%d@%d:%d+%d:%s" node (ns ()) off count
          (Rmem.Status.to_string status)
    | Nacked { nack; _ } ->
        note " N%d@%d:%d+%d" node (ns ()) nack.Rmem.Wire.off nack.Rmem.Wire.count
    | Exported _ | Issue_rejected _ | Completed _ -> ()
  in
  Rmem.Remote_memory.set_monitor d.Rig.rmem0 (Some (monitor 0));
  Rmem.Remote_memory.set_monitor d.Rig.rmem1 (Some (monitor 1));
  let probes = Buffer.create 16 in
  Rmem.Remote_memory.set_delivery_probe d.Rig.rmem1
    (Some (fun _ ~count -> Printf.bprintf probes " %d@%d" count (ns ())));
  let trace = Obs.Trace.create d.Rig.engine in
  let returned = ref 0 in
  let segment = ref None in
  Obs.Trace.attach trace;
  Fun.protect ~finally:Obs.Trace.detach (fun () ->
      Rig.run d (fun () ->
          let seg, desc = Rig.shared_segment ~len:8192 d in
          segment := Some seg;
          if inhibit then Rmem.Segment.set_write_inhibit seg true;
          List.iter
            (fun n -> Cluster.Cpu.reset_accounting (Cluster.Node.cpu n))
            [ d.Rig.node0; d.Rig.node1 ];
          Buffer.clear log;
          let t0 = ns () in
          (match shape with
          | Single { off; len } ->
              Rmem.Remote_memory.write d.Rig.rmem0 desc ~off ~notify ~swab
                (fill ~salt:off len)
          | Burst extents ->
              Rmem.Remote_memory.write_burst d.Rig.rmem0 desc ~notify ~swab
                (List.map (fun (off, len) -> (off, fill ~salt:off len)) extents));
          returned := ns () - t0));
  Obs.Trace.finalize trace;
  let seg = Option.get !segment in
  let fd = Rmem.Segment.notification seg in
  let records = Buffer.create 16 in
  let rec drain () =
    match Rmem.Notification.try_read fd with
    | None -> ()
    | Some r ->
        Printf.bprintf records " %d+%d" r.Rmem.Notification.off
          r.Rmem.Notification.count;
        drain ()
  in
  drain ();
  let account a =
    String.concat ","
      (List.map
         (fun (c, v) -> Printf.sprintf "%s=%.3f" c v)
         (Metrics.Account.to_list a))
  in
  let cpu n = account (Cluster.Cpu.account (Cluster.Node.cpu n)) in
  let spans =
    String.concat ";"
      (List.map
         (fun (s : Obs.Span.t) ->
           Printf.sprintf "%d/%d/%d %s %s n%d %d-%d" s.Obs.Span.id
             s.Obs.Span.trace s.Obs.Span.parent s.Obs.Span.name s.Obs.Span.cat
             s.Obs.Span.node (Sim.Time.to_ns s.Obs.Span.start)
             (Sim.Time.to_ns s.Obs.Span.finish))
         (Obs.Trace.spans trace))
  in
  let roots =
    String.concat ";"
      (List.map
         (fun (r : Obs.Span.t) ->
           r.Obs.Span.name ^ "["
           ^ String.concat ","
               (List.map
                  (fun (p, us) -> Printf.sprintf "%s=%.3f" p us)
                  (Obs.Trace.phase_totals trace r))
           ^ "]")
         (Obs.Trace.roots trace))
  in
  Printf.sprintf
    "%s%s%s%s%s | ret %d | cpu0 %s | cpu1 %s |%s | probe%s | notif %d%s | ops %s | bytes %s / %s | mem %s | trace %s %s"
    (shape_name shape)
    (if notify then " notify" else "")
    (if swab then " swab" else "")
    (if crypto then " crypto" else "")
    (if inhibit then " inhibited" else "")
    !returned (cpu d.Rig.node0) (cpu d.Rig.node1) (Buffer.contents log)
    (Buffer.contents probes)
    (Rmem.Notification.posted fd)
    (Buffer.contents records)
    (account (Rmem.Remote_memory.ops d.Rig.rmem0))
    (account (Rmem.Remote_memory.data_bytes d.Rig.rmem0))
    (account (Rmem.Remote_memory.data_bytes d.Rig.rmem1))
    (Digest.to_hex
       (Digest.bytes (Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len:8192)))
    roots
    (Digest.to_hex (Digest.string spans))

let write_shapes =
  let chunk = 8 * Rmem.Wire.data_bytes_per_cell in
  List.map
    (fun len -> Single { off = 12; len })
    [ 0; 1; 40; 41; chunk; chunk + 1; 4096 ]
  @ [ Burst [ (100, 200) ]; Burst [ (2000, 300); (64, 41); (1000, 500) ] ]

let write_cases =
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun crypto ->
          List.concat_map
            (fun swab ->
              List.map
                (fun notify () -> characterize ~notify ~swab ~crypto shape)
                [ false; true ])
            [ false; true ])
        [ false; true ])
    write_shapes
  @ [
      (fun () ->
        characterize ~inhibit:true ~notify:true ~swab:false ~crypto:false
          (Single { off = 12; len = 41 }));
      (fun () ->
        characterize ~inhibit:true ~notify:true ~swab:false ~crypto:false
          (Burst [ (2000, 300); (64, 41); (1000, 500) ]));
    ]

(* Recorded lines, one per case in [write_cases] order. *)
let write_expected () =
  In_channel.with_open_text "rmem_write.expected" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun line -> line <> "")

let write_characterization () =
  let expected = write_expected () in
  check_int "recorded cases" (List.length write_cases) (List.length expected);
  List.iteri
    (fun i (case, line) ->
      Alcotest.(check string) (Printf.sprintf "case %d" i) line (case ()))
    (List.combine write_cases expected)

(* ---------------- Burst rejection ---------------- *)

(* Issue [issue] against a segment of [len] bytes on node 1 through a
   descriptor claiming [size] bytes and generation [gen_skew] past the
   real one (so remote-only failures get past the local check), run to
   quiescence, and return the nacks node 0 received, the failure
   [take_write_failure] reports and whether any byte landed. *)
let rejected_write ?(len = 4096) ?(size = 65536) ?(gen_skew = 0)
    ?(inhibit = false) issue =
  let d = Rig.duo () in
  let nacks = ref [] in
  Rmem.Remote_memory.set_monitor d.Rig.rmem0
    (Some
       (function
       | Rmem.Remote_memory.Nacked { nack; _ } -> nacks := nack :: !nacks
       | _ -> ()));
  let failure = ref None in
  Rig.run d (fun () ->
      let segment =
        Rmem.Remote_memory.export d.Rig.rmem1 ~space:d.Rig.space1 ~base:0 ~len
          ~rights:Rmem.Rights.all ~name:"reject" ()
      in
      if inhibit then Rmem.Segment.set_write_inhibit segment true;
      let generation = ref (Rmem.Segment.generation segment) in
      for _ = 1 to gen_skew do
        generation := Rmem.Generation.next !generation
      done;
      let desc =
        Rmem.Remote_memory.import d.Rig.rmem0
          ~remote:(Cluster.Node.addr d.Rig.node1)
          ~segment_id:(Rmem.Segment.id segment) ~generation:!generation ~size
          ~rights:Rmem.Rights.all ()
      in
      issue d desc;
      Sim.Proc.wait (Sim.Time.ms 5);
      failure := Rmem.Remote_memory.take_write_failure d.Rig.rmem0 desc);
  let untouched =
    Bytes.equal (Bytes.make len '\000')
      (Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len)
  in
  (List.rev !nacks, !failure, untouched)

let three_extents = [ (64, 41); (5000, 100); (1000, 500) ]

let burst_of extents d desc =
  Rmem.Remote_memory.write_burst d.Rig.rmem0 desc ~notify:true
    (List.map (fun (off, len) -> (off, Bytes.make len 'b')) extents)

let check_rejection ~what ~status ~off ~count (nacks, failure, untouched) =
  check_bool (what ^ ": nothing deposited") true untouched;
  match nacks with
  | [ (n : Rmem.Wire.write_nack) ] ->
      check_bool (what ^ ": nack status") true (n.status = status);
      check_int (what ^ ": nack off") off n.off;
      check_int (what ^ ": nack count") count n.count;
      check_bool (what ^ ": take_write_failure") true (failure = Some status)
  | _ -> Alcotest.failf "%s: %d nacks, expected exactly one" what (List.length nacks)

let burst_rejections () =
  (* The second extent runs past the 4 KB segment: the burst is refused
     whole, and the one nack names that extent. *)
  check_rejection ~what:"bounds" ~status:Rmem.Status.Bounds ~off:5000
    ~count:100
    (rejected_write (burst_of three_extents));
  let in_bounds = [ (64, 41); (2000, 100); (1000, 500) ] in
  check_rejection ~what:"write inhibit" ~status:Rmem.Status.Write_inhibited
    ~off:64 ~count:41
    (rejected_write ~inhibit:true (burst_of in_bounds));
  check_rejection ~what:"stale generation" ~status:Rmem.Status.Stale_generation
    ~off:64 ~count:41
    (rejected_write ~gen_skew:1 (burst_of in_bounds));
  (* A zero-length doorbell is still a WRITE: refused, it nacks with a
     zero count. *)
  check_rejection ~what:"stale doorbell" ~status:Rmem.Status.Stale_generation
    ~off:128 ~count:0
    (rejected_write ~gen_skew:1 (fun d desc ->
         Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:128 ~notify:true
           Bytes.empty))

let suite =
  [
    Alcotest.test_case "wire write header is 8 bytes" `Quick wire_write_header_size;
    Alcotest.test_case "wire data-cell arithmetic" `Quick wire_data_cells;
    Alcotest.test_case "zero-length write doorbell" `Quick zero_length_write_doorbell;
    Alcotest.test_case "cas swaps exactly once" `Quick cas_swaps_once;
    Alcotest.test_case "cas deposits result word" `Quick cas_result_deposit;
    Alcotest.test_case "rights enforced locally" `Quick rights_enforced_locally;
    Alcotest.test_case "rights enforced remotely" `Quick rights_enforced_remotely;
    Alcotest.test_case "per-importer grants" `Quick per_importer_grants;
    Alcotest.test_case "bounds checked" `Quick bounds_checked;
    Alcotest.test_case "stale generations fail" `Quick stale_generation_paths;
    Alcotest.test_case "revoked segment rejects" `Quick revoked_segment_rejects;
    Alcotest.test_case "write inhibit drops writes" `Quick write_inhibit_drops;
    Alcotest.test_case "timeout detects crashed node" `Quick timeout_on_crashed_node;
    Alcotest.test_case "notification policies" `Quick notify_policies;
    Alcotest.test_case "notification queue order" `Quick notification_costs_and_queue;
    Alcotest.test_case "signal handler upcall" `Quick signal_handler_upcall;
    Alcotest.test_case "read completion notification" `Quick read_completion_notification;
    Alcotest.test_case "export pins pages" `Quick export_pins_pages;
    Alcotest.test_case "generations increase" `Quick generations_increase_per_export;
    Alcotest.test_case "generation wraparound" `Quick generation_wraps_past_invalid;
    Alcotest.test_case "well-known segment ids" `Quick well_known_id_export;
    Alcotest.test_case "fence orders writes" `Quick fence_orders_writes;
    Alcotest.test_case "byte accounting" `Quick stats_track_bytes;
    Alcotest.test_case "malformed frames counted and dropped" `Quick
      malformed_frames_dropped;
    Alcotest.test_case "data path allocation per 4 KB op" `Quick alloc_per_4k_op;
    QCheck_alcotest.to_alcotest wire_roundtrip;
    QCheck_alcotest.to_alcotest wire_roundtrip_all_kinds;
    QCheck_alcotest.to_alcotest wire_fuzz_random_bytes;
    QCheck_alcotest.to_alcotest wire_fuzz_damaged_frames;
    QCheck_alcotest.to_alcotest write_then_read_identity;
    Alcotest.test_case "read-back scratch spaces are not registered" `Quick
      scratch_spaces_unregistered;
    Alcotest.test_case "write and burst characterization" `Quick
      write_characterization;
    Alcotest.test_case "burst rejections nack once, deposit nothing" `Quick
      burst_rejections;
  ]
