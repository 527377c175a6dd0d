(* Tests for the ATM network layer. *)

let check_int = Alcotest.(check int)

(* ---------------- AAL arithmetic ---------------- *)

let aal_cells () =
  check_int "empty frame still one cell" 1 (Atm.Aal.cells_of_len 0);
  check_int "one byte" 1 (Atm.Aal.cells_of_len 1);
  check_int "exactly one payload" 1 (Atm.Aal.cells_of_len 48);
  check_int "49 bytes + trailer -> 2 cells" 2 (Atm.Aal.cells_of_len 49);
  (* 4096 + 8 trailer = 4104 -> ceil(4104/48) = 86 *)
  check_int "4K block" 86 (Atm.Aal.cells_of_len 4096);
  check_int "wire bytes" (86 * 53) (Atm.Aal.wire_bytes_of_len 4096);
  check_int "words" 3 (Atm.Aal.words_of_len 9)

let aal_monotone =
  QCheck.Test.make ~name:"cells_of_len is monotone" ~count:300
    QCheck.(pair (int_bound 20000) (int_bound 100))
    (fun (len, extra) ->
      Atm.Aal.cells_of_len len <= Atm.Aal.cells_of_len (len + extra))

(* Every single-bit flip and every single-byte substitution, at every
   position, must fail the receiving NIC's check.  The lengths 0-72
   cover zero, one and two 32-byte lane groups of the four-lane digest,
   with every count of leftover 8-byte words (0-3) and tail bytes (0-7)
   after zero and after one group; 328 is one 8-cell WRITE frame (ten
   groups and a leftover word) and 4099 a multi-cell frame with a tail.
   At 32,800 bytes (a 32 KB burst) every bit flip at every position is
   checked; its 255 substitutions per byte would take about 30 s, so
   they are left to the shorter lengths.  The damage is applied to the
   frame's own payload (which the fault plane never does: it copies)
   and undone after each check. *)
let checksum_catches_single_byte_damage () =
  let prng = Sim.Prng.create 17 in
  let src = Atm.Addr.of_int 1 and dst = Atm.Addr.of_int 2 in
  let rejected = ref 0 in
  let damage ~substitutions len =
    let payload = Bytes.init len (fun _ -> Char.chr (Sim.Prng.int prng 256)) in
    let frame = Atm.Frame.make ~src ~dst payload in
    Alcotest.(check bool) "undamaged frame intact" true (Atm.Frame.intact frame);
    let damaged_with i v =
      let original = Bytes.get_uint8 payload i in
      Bytes.set_uint8 payload i v;
      let intact = Atm.Frame.intact frame in
      Bytes.set_uint8 payload i original;
      if intact then
        Alcotest.failf "len %d: byte %d %02x -> %02x passed the checksum" len
          i original v;
      incr rejected
    in
    for i = 0 to len - 1 do
      let original = Bytes.get_uint8 payload i in
      for bit = 0 to 7 do
        damaged_with i (original lxor (1 lsl bit))
      done;
      if substitutions then
        for v = 0 to 255 do
          if v <> original then damaged_with i v
        done
    done;
    Alcotest.(check bool)
      "corrupted copy rejected" false
      (Atm.Frame.intact (Atm.Frame.corrupted ~byte:len frame))
  in
  List.iter (damage ~substitutions:true) (List.init 73 Fun.id @ [ 328; 4099 ]);
  damage ~substitutions:false 32_800;
  check_int "every damaged frame rejected"
    (((8 + 255) * ((72 * 73 / 2) + 328 + 4099)) + (8 * 32_800))
    !rejected

(* Any nonzero XOR mask confined to one 32-bit word of the payload —
   a whole word, or the bytes present in a short tail word — changes
   the digest.  The digest mixes 8-byte words, so this damages half of
   one lane word, or a word straddling the tail. *)
let checksum_catches_word_damage =
  let case =
    QCheck.Gen.(
      int_range 1 512 >>= fun len ->
      int_bound ((len - 1) / 4) >>= fun word ->
      let present = min 4 (len - (4 * word)) in
      int_range 1 ((1 lsl (8 * present)) - 1) >>= fun mask ->
      map (fun payload -> (payload, word, mask)) (bytes_size (return len)))
  in
  QCheck.Test.make ~name:"a change confined to one 32-bit word changes the digest"
    ~count:1000
    (QCheck.make
       ~print:(fun (payload, word, mask) ->
         Printf.sprintf "len %d, word %d, mask %#x" (Bytes.length payload) word mask)
       case)
    (fun (payload, word, mask) ->
      let before = Atm.Aal.checksum payload in
      let damaged = Bytes.copy payload in
      for k = 0 to 3 do
        let i = (4 * word) + k and m = (mask lsr (8 * k)) land 0xFF in
        if m <> 0 then Bytes.set_uint8 damaged i (Bytes.get_uint8 damaged i lxor m)
      done;
      not (Int64.equal (Atm.Aal.checksum damaged) before))

(* The digest's own unit: any nonzero XOR mask over the bytes of one
   8-byte word (all eight, or those present in the tail) changes it,
   whichever lane the word feeds — one of the four group lanes, or lane
   0 for a leftover word or the tail.  Lengths up to 1,100 reach 34
   groups with every leftover and tail shape. *)
let checksum_catches_lane_word_damage =
  let case =
    QCheck.Gen.(
      int_range 1 1100 >>= fun len ->
      int_bound ((len - 1) / 8) >>= fun word ->
      let present = min 8 (len - (8 * word)) in
      bytes_size (return present) >>= fun mask ->
      int_bound (present - 1) >>= fun k ->
      int_range 1 255 >>= fun v ->
      Bytes.set_uint8 mask k v;
      map (fun payload -> (payload, word, mask)) (bytes_size (return len)))
  in
  QCheck.Test.make ~name:"a change confined to one 64-bit word changes the digest"
    ~count:1000
    (QCheck.make
       ~print:(fun (payload, word, mask) ->
         Printf.sprintf "len %d, word %d, mask %S" (Bytes.length payload) word
           (Bytes.to_string mask))
       case)
    (fun (payload, word, mask) ->
      let before = Atm.Aal.checksum payload in
      let damaged = Bytes.copy payload in
      Bytes.iteri
        (fun k m ->
          let i = (8 * word) + k in
          Bytes.set_uint8 damaged i (Bytes.get_uint8 damaged i lxor Char.code m))
        mask;
      not (Int64.equal (Atm.Aal.checksum damaged) before))

(* ---------------- Codec ---------------- *)

let codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip" ~count:300
    QCheck.(
      quad (int_bound 0xFF) (int_bound 0xFFFF) (int_bound 0xFFFFFFFF)
        (string_of_size Gen.(int_bound 64)))
    (fun (u8, u16, u32, s) ->
      let w = Atm.Codec.writer () in
      Atm.Codec.put_u8 w u8;
      Atm.Codec.put_u16 w u16;
      Atm.Codec.put_u32 w u32;
      Atm.Codec.put_string w s;
      Atm.Codec.put_i32 w (Int32.of_int (u32 land 0xFFFF));
      let r = Atm.Codec.reader (Atm.Codec.contents w) in
      Atm.Codec.get_u8 r = u8
      && Atm.Codec.get_u16 r = u16
      && Atm.Codec.get_u32 r = u32
      && String.equal (Atm.Codec.get_string r) s
      && Int32.to_int (Atm.Codec.get_i32 r) = u32 land 0xFFFF
      && Atm.Codec.remaining r = 0)

let codec_truncation () =
  let r = Atm.Codec.reader (Bytes.make 2 '\000') in
  Alcotest.check_raises "truncated" Atm.Codec.Truncated (fun () ->
      ignore (Atm.Codec.get_u32 r))

let codec_bounds () =
  let w = Atm.Codec.writer () in
  Alcotest.check_raises "u8 range" (Invalid_argument "Codec.put_u8") (fun () ->
      Atm.Codec.put_u8 w 256);
  Alcotest.check_raises "u16 range" (Invalid_argument "Codec.put_u16")
    (fun () -> Atm.Codec.put_u16 w (-1))

(* ---------------- Links ---------------- *)

let link_delivery_time () =
  let engine = Sim.Engine.create () in
  let config = Atm.Config.default in
  let arrivals = ref [] in
  let link =
    Atm.Link.create engine config ~deliver:(fun frame ->
        arrivals := (Sim.Engine.now engine, Atm.Frame.length frame) :: !arrivals)
  in
  let src = Atm.Addr.of_int 0 and dst = Atm.Addr.of_int 1 in
  (* Two single-cell frames sent back to back: the second serializes
     behind the first. *)
  Atm.Link.send link (Atm.Frame.make ~src ~dst (Bytes.make 40 'a'));
  Atm.Link.send link (Atm.Frame.make ~src ~dst (Bytes.make 40 'b'));
  Sim.Engine.run engine;
  let cell = Sim.Time.to_ns (Atm.Config.cell_wire_time config) in
  let prop = Sim.Time.to_ns config.Atm.Config.propagation in
  (match List.rev !arrivals with
  | [ (t1, _); (t2, _) ] ->
      check_int "first after cell+prop" (cell + prop) t1;
      check_int "second serialized behind" ((2 * cell) + prop) t2
  | _ -> Alcotest.fail "expected two arrivals");
  check_int "frames" 2 (Atm.Link.frames_sent link);
  check_int "cells" 2 (Atm.Link.cells_sent link)

let link_fifo_order () =
  let engine = Sim.Engine.create () in
  let seen = ref [] in
  let link =
    Atm.Link.create engine Atm.Config.default ~deliver:(fun frame ->
        seen := Bytes.get (Atm.Frame.payload frame) 0 :: !seen)
  in
  let src = Atm.Addr.of_int 0 and dst = Atm.Addr.of_int 1 in
  List.iter
    (fun c -> Atm.Link.send link (Atm.Frame.make ~src ~dst (Bytes.make 1 c)))
    [ 'x'; 'y'; 'z' ];
  Sim.Engine.run engine;
  Alcotest.(check (list char)) "in order" [ 'x'; 'y'; 'z' ] (List.rev !seen)

(* ---------------- NIC and networks ---------------- *)

let mesh_delivery () =
  let engine = Sim.Engine.create () in
  let network = Atm.Network.create engine ~nodes:3 in
  let nic0 = Atm.Network.nic_of_int network 0 in
  let nic2 = Atm.Network.nic_of_int network 2 in
  Atm.Nic.transmit nic0 ~dst:(Atm.Nic.addr nic2) (Bytes.of_string "ping");
  let received =
    Sim.Proc.run engine (fun () -> Atm.Nic.receive nic2)
  in
  Alcotest.(check string) "payload" "ping"
    (Bytes.to_string (Atm.Frame.payload received));
  Alcotest.(check int) "src" 0 (Atm.Addr.to_int (Atm.Frame.src received));
  check_int "tx counted" 1 (Atm.Nic.frames_tx nic0);
  check_int "rx counted" 1 (Atm.Nic.frames_rx nic2)

let star_delivery () =
  let engine = Sim.Engine.create () in
  let network = Atm.Network.create ~topology:Atm.Network.Star engine ~nodes:4 in
  let nic1 = Atm.Network.nic_of_int network 1 in
  let nic3 = Atm.Network.nic_of_int network 3 in
  Atm.Nic.transmit nic1 ~dst:(Atm.Nic.addr nic3) (Bytes.of_string "star");
  let received = Sim.Proc.run engine (fun () -> Atm.Nic.receive nic3) in
  Alcotest.(check string) "payload" "star"
    (Bytes.to_string (Atm.Frame.payload received));
  match Atm.Network.switch network with
  | Some switch -> check_int "switched" 1 (Atm.Switch.frames_switched switch)
  | None -> Alcotest.fail "star has a switch"

let star_slower_than_mesh () =
  let time_of topology =
    let engine = Sim.Engine.create () in
    let network = Atm.Network.create ~topology engine ~nodes:2 in
    let nic0 = Atm.Network.nic_of_int network 0 in
    let nic1 = Atm.Network.nic_of_int network 1 in
    Atm.Nic.transmit nic0 ~dst:(Atm.Nic.addr nic1) (Bytes.make 40 'x');
    ignore (Sim.Proc.run engine (fun () -> Atm.Nic.receive nic1));
    Sim.Engine.now engine
  in
  Alcotest.(check bool) "switch adds latency" true
    Sim.Time.(time_of Atm.Network.Star > time_of Atm.Network.Back_to_back)

let nic_transmit_to_self_rejected () =
  let engine = Sim.Engine.create () in
  let network = Atm.Network.create engine ~nodes:2 in
  let nic0 = Atm.Network.nic_of_int network 0 in
  Alcotest.check_raises "self" (Invalid_argument "Nic.transmit: destination is self")
    (fun () -> Atm.Nic.transmit nic0 ~dst:(Atm.Nic.addr nic0) Bytes.empty)

let rx_overflow_raises () =
  let engine = Sim.Engine.create () in
  let config = { Atm.Config.default with Atm.Config.fifo_capacity_cells = 4 } in
  let network = Atm.Network.create ~config engine ~nodes:2 in
  let nic0 = Atm.Network.nic_of_int network 0 in
  let nic1 = Atm.Network.nic_of_int network 1 in
  (* Nobody drains nic1: five single-cell frames exceed a 4-cell FIFO.
     Depending on pacing the transmit queue or the receive FIFO trips
     first; either way the loss is loud, never silent. *)
  Alcotest.(check bool) "overflow raised" true
    (try
       for _ = 1 to 5 do
         Atm.Nic.transmit nic0 ~dst:(Atm.Nic.addr nic1) (Bytes.make 40 'x')
       done;
       Sim.Engine.run engine;
       false
     with Atm.Nic.Rx_overflow _ | Atm.Link.Overflow _ -> true)

(* A switch resolves a destination to its attached downlink when it
   has one, whichever of port and route was added first. *)
let switch_downlink_beats_route () =
  let engine = Sim.Engine.create () in
  let config = Atm.Config.default in
  let check_order ~route_first =
    let switch = Atm.Switch.create ~name:"s" engine config in
    let peer = Atm.Switch.create ~name:"peer" engine config in
    let trunk = Atm.Switch.trunk_to switch peer in
    let nic = Atm.Nic.create config (Atm.Addr.of_int 2) in
    if route_first then Atm.Switch.add_route switch ~dst:2 trunk;
    Atm.Switch.attach_port switch nic;
    if not route_first then Atm.Switch.add_route switch ~dst:2 trunk;
    Atm.Switch.forward switch
      (Atm.Frame.make ~src:(Atm.Addr.of_int 1) ~dst:(Atm.Addr.of_int 2)
         (Bytes.of_string "port"));
    Sim.Engine.run engine;
    let order = if route_first then "route first" else "port first" in
    check_int (order ^ ": delivered on the port") 1 (Atm.Nic.frames_rx nic);
    check_int (order ^ ": trunk unused") 0 (Atm.Link.frames_sent trunk);
    check_int (order ^ ": nothing dropped") 0 (Atm.Switch.drops switch)
  in
  check_order ~route_first:true;
  check_order ~route_first:false

(* Destinations with no table entry — inside the table or past its
   end — are dropped and counted, never fatal. *)
let switch_drops_unrouted () =
  let engine = Sim.Engine.create () in
  let config = Atm.Config.default in
  let switch = Atm.Switch.create engine config in
  let peer = Atm.Switch.create ~name:"peer" engine config in
  Atm.Switch.attach_port switch (Atm.Nic.create config (Atm.Addr.of_int 2));
  Atm.Switch.add_route switch ~dst:5 (Atm.Switch.trunk_to switch peer);
  List.iter
    (fun dst ->
      Atm.Switch.forward switch
        (Atm.Frame.make ~src:(Atm.Addr.of_int 1) ~dst:(Atm.Addr.of_int dst)
           (Bytes.of_string "lost")))
    [ 3; 0; 1_000_000 ];
  Sim.Engine.run engine;
  check_int "dropped" 3 (Atm.Switch.drops switch);
  check_int "none switched" 0 (Atm.Switch.frames_switched switch);
  Alcotest.check_raises "negative route"
    (Invalid_argument "Switch.add_route: negative destination") (fun () ->
      Atm.Switch.add_route switch ~dst:(-1) (Atm.Switch.trunk_to switch peer))

let addr_validation () =
  Alcotest.check_raises "negative" (Invalid_argument "Addr.of_int: negative address")
    (fun () -> ignore (Atm.Addr.of_int (-1)));
  Alcotest.check_raises "too large"
    (Invalid_argument "Addr.of_int: address out of range")
    (fun () -> ignore (Atm.Addr.of_int (1 lsl Atm.Addr.bits)));
  let top = Atm.Addr.of_int ((1 lsl Atm.Addr.bits) - 1) in
  let frame = Atm.Frame.make ~src:top ~dst:(Atm.Addr.of_int 0) Bytes.empty in
  check_int "largest source survives the frame" (Atm.Addr.to_int top)
    (Atm.Addr.to_int (Atm.Frame.src frame));
  check_int "destination beside it" 0 (Atm.Addr.to_int (Atm.Frame.dst frame))

let suite =
  [
    Alcotest.test_case "aal cell arithmetic" `Quick aal_cells;
    Alcotest.test_case "aal checksum rejects every single-byte damage" `Quick
      checksum_catches_single_byte_damage;
    Alcotest.test_case "codec truncation" `Quick codec_truncation;
    Alcotest.test_case "codec bounds" `Quick codec_bounds;
    Alcotest.test_case "link delivery timing" `Quick link_delivery_time;
    Alcotest.test_case "link FIFO order" `Quick link_fifo_order;
    Alcotest.test_case "mesh delivery" `Quick mesh_delivery;
    Alcotest.test_case "star delivery via switch" `Quick star_delivery;
    Alcotest.test_case "switch adds latency" `Quick star_slower_than_mesh;
    Alcotest.test_case "nic rejects self transmit" `Quick nic_transmit_to_self_rejected;
    Alcotest.test_case "rx FIFO overflow is fatal" `Quick rx_overflow_raises;
    Alcotest.test_case "addr validation" `Quick addr_validation;
    QCheck_alcotest.to_alcotest aal_monotone;
    QCheck_alcotest.to_alcotest codec_roundtrip;
    Alcotest.test_case "switch: downlink beats route, either order" `Quick
      switch_downlink_beats_route;
    Alcotest.test_case "switch: unrouted destinations dropped and counted"
      `Quick switch_drops_unrouted;
    QCheck_alcotest.to_alcotest checksum_catches_word_damage;
    QCheck_alcotest.to_alcotest checksum_catches_lane_word_damage;
  ]
