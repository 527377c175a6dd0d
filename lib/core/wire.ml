(* Wire format of the remote-memory protocol.

   Every frame starts with a tag byte that both identifies the operation
   and carries the notify bit (so the demultiplexer and the paper's
   "8-byte header, 40 data bytes per cell" arithmetic line up):

     tag = 0x10 | (op << 1) | notify

   A WRITE frame is exactly [8-byte header][data]: tag, segment id,
   export generation and offset, with the byte count implicit in the
   frame length.  One cell therefore carries 40 data bytes, matching the
   paper.  Block transfers are sequences of such frames in bursts. *)

type write_req = {
  seg : int;
  gen : Generation.t;
  off : int;
  notify : bool;
  swab : bool;
  data : Atm.Codec.view;
}

type read_req = {
  seg : int;
  gen : Generation.t;
  soff : int;
  count : int;
  reqid : int;
  notify : bool;
  swab : bool;
}

type read_reply = {
  status : Status.t;
  reqid : int;
  chunk_off : int;
  swab : bool;
  data : Atm.Codec.view;
}

type cas_req = {
  seg : int;
  gen : Generation.t;
  doff : int;
  old_value : int32;
  new_value : int32;
  reqid : int;
  notify : bool;
}

type cas_reply = { status : Status.t; reqid : int; witness : int32 }

type write_nack = {
  status : Status.t;
  seg : int;
  gen : Generation.t;
  off : int;
  count : int;
}

type burst_item = { off : int; data : Atm.Codec.view }

type write_burst = {
  seg : int;
  gen : Generation.t;
  notify : bool;
  swab : bool;
  items : burst_item list;
}

type message =
  | Write of write_req
  | Read of read_req
  | Read_reply of read_reply
  | Cas of cas_req
  | Cas_reply of cas_reply
  | Write_nack of write_nack
  | Write_burst of write_burst

let tag_base = 0x10
let tag_base_swab = 0x30
(* The second tag range is the paper's §3.6 heterogeneity hook: "this
   scheme requires a bit in each incoming request to decide whether to
   swap or not".  Requests in the 0x30 range ask the receiving side to
   byte-swap the data words during the FIFO copy. *)

let op_write = 1
let op_read = 2
let op_read_reply = 3
let op_cas = 4
let op_cas_reply = 5
let op_write_nack = 6
let op_write_burst = 7

let tag ~op ~notify ~swab =
  (if swab then tag_base_swab else tag_base)
  lor (op lsl 1)
  lor (if notify then 1 else 0)

let tags =
  List.init 16 (fun i -> tag_base lor i)
  @ List.init 16 (fun i -> tag_base_swab lor i)

(* Swap the byte order of each aligned 32-bit word; a trailing partial
   word is left alone (word-structured data is the point of the bit). *)
let swap_words_in_place buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Wire.swap_words_in_place";
  for w = 0 to (len / 4) - 1 do
    let at = pos + (4 * w) in
    Bytes.set_int32_le buf at (Bytes.get_int32_be buf at)
  done

let swap_words data =
  let out = Bytes.copy data in
  swap_words_in_place out ~pos:0 ~len:(Bytes.length out);
  out

let header_bytes = 8
let data_bytes_per_cell = Atm.Aal.cell_payload_bytes - header_bytes (* 40 *)

let data_cells len =
  if len <= 0 then 1
  else (len + data_bytes_per_cell - 1) / data_bytes_per_cell

(* A burst frame is framed ONCE at the AAL layer: one 6-byte burst
   header, then an 8-byte (offset, length) descriptor per extent ahead
   of its data.  Unlike the per-cell WRITE header, extent data streams
   at the full 48 payload bytes per cell — that, plus the single trap,
   is the batching win the pipeline engine buys. *)
let burst_header_bytes = 6
let burst_item_header_bytes = 8

let burst_payload_bytes items =
  List.fold_left (fun acc item -> acc + item.data.Atm.Codec.len) 0 items

let burst_frame_bytes items =
  List.fold_left
    (fun acc item -> acc + burst_item_header_bytes + item.data.Atm.Codec.len)
    burst_header_bytes items

(* Exact frame sizes, so every frame is built in one exactly-sized
   buffer and [Codec.contents] hands it over without a copy. *)
let encoded_bytes = function
  | Write { data; _ } -> header_bytes + data.Atm.Codec.len
  | Read _ -> 14
  | Read_reply { data; _ } -> header_bytes + data.Atm.Codec.len
  | Cas _ -> 18
  | Cas_reply _ -> 8
  | Write_nack _ -> 13
  | Write_burst { items; _ } -> burst_frame_bytes items

let put_read_reply_header w ~status ~reqid ~chunk_off ~swab =
  Atm.Codec.put_u8 w (tag ~op:op_read_reply ~notify:false ~swab);
  Atm.Codec.put_u8 w (Status.to_code status);
  Atm.Codec.put_u16 w reqid;
  Atm.Codec.put_u32 w chunk_off

(* The data regions of an encoded frame, in frame order, as
   [f ~pos ~len] over offsets into the frame. *)
let iter_data_regions message f =
  match message with
  | Write { data; _ } | Read_reply { data; _ } ->
      f ~pos:header_bytes ~len:data.Atm.Codec.len
  | Write_burst { items; _ } ->
      ignore
        (List.fold_left
           (fun pos { data; _ } ->
             let pos = pos + burst_item_header_bytes in
             f ~pos ~len:data.Atm.Codec.len;
             pos + data.Atm.Codec.len)
           burst_header_bytes items
          : int)
  | Read _ | Cas _ | Cas_reply _ | Write_nack _ -> ()

let encode ?transform message =
  let w = Atm.Codec.writer ~capacity:(encoded_bytes message) () in
  (match message with
  | Write { seg; gen; off; notify; swab; data } ->
      Atm.Codec.put_u8 w (tag ~op:op_write ~notify ~swab);
      Atm.Codec.put_u8 w seg;
      Atm.Codec.put_u16 w (Generation.to_int gen);
      Atm.Codec.put_u32 w off;
      Atm.Codec.put_view w data
  | Read { seg; gen; soff; count; reqid; notify; swab } ->
      Atm.Codec.put_u8 w (tag ~op:op_read ~notify ~swab);
      Atm.Codec.put_u8 w seg;
      Atm.Codec.put_u16 w (Generation.to_int gen);
      Atm.Codec.put_u32 w soff;
      Atm.Codec.put_u32 w count;
      Atm.Codec.put_u16 w reqid
  | Read_reply { status; reqid; chunk_off; swab; data } ->
      put_read_reply_header w ~status ~reqid ~chunk_off ~swab;
      Atm.Codec.put_view w data
  | Cas { seg; gen; doff; old_value; new_value; reqid; notify } ->
      Atm.Codec.put_u8 w (tag ~op:op_cas ~notify ~swab:false);
      Atm.Codec.put_u8 w seg;
      Atm.Codec.put_u16 w (Generation.to_int gen);
      Atm.Codec.put_u32 w doff;
      Atm.Codec.put_i32 w old_value;
      Atm.Codec.put_i32 w new_value;
      Atm.Codec.put_u16 w reqid
  | Cas_reply { status; reqid; witness } ->
      Atm.Codec.put_u8 w (tag ~op:op_cas_reply ~notify:false ~swab:false);
      Atm.Codec.put_u8 w (Status.to_code status);
      Atm.Codec.put_u16 w reqid;
      Atm.Codec.put_i32 w witness
  | Write_nack { status; seg; gen; off; count } ->
      Atm.Codec.put_u8 w (tag ~op:op_write_nack ~notify:false ~swab:false);
      Atm.Codec.put_u8 w (Status.to_code status);
      Atm.Codec.put_u8 w seg;
      Atm.Codec.put_u16 w (Generation.to_int gen);
      Atm.Codec.put_u32 w off;
      Atm.Codec.put_u32 w count
  | Write_burst { seg; gen; notify; swab; items } ->
      Atm.Codec.put_u8 w (tag ~op:op_write_burst ~notify ~swab);
      Atm.Codec.put_u8 w seg;
      Atm.Codec.put_u16 w (Generation.to_int gen);
      Atm.Codec.put_u16 w (List.length items);
      List.iter
        (fun { off; data } ->
          Atm.Codec.put_u32 w off;
          Atm.Codec.put_u32 w data.Atm.Codec.len;
          Atm.Codec.put_view w data)
        items);
  let frame = Atm.Codec.contents w in
  (match transform with
  | None -> ()
  | Some transform -> iter_data_regions message (transform frame));
  frame

let read_reply_frame ~status ~reqid ~chunk_off ~swab ~len =
  let w = Atm.Codec.writer ~capacity:(header_bytes + len) () in
  put_read_reply_header w ~status ~reqid ~chunk_off ~swab;
  ignore (Atm.Codec.reserve w len : int);
  Atm.Codec.contents w

(* Decoding is total: every way a payload can be malformed (short, an
   unknown tag or status, trailing bytes after a fixed-size message) is
   an [Error], never an exception. *)
exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let get_status r =
  let code = Atm.Codec.get_u8 r in
  match Status.of_code_opt code with
  | Some status -> status
  | None -> malformed "status %d" code

let get_gen r = Generation.of_int (Atm.Codec.get_u16 r)

let finished r =
  let extra = Atm.Codec.remaining r in
  if extra <> 0 then malformed "%d trailing bytes" extra

let decode_exn payload =
  let r = Atm.Codec.reader payload in
  let tag = Atm.Codec.get_u8 r in
  if tag land 0xF0 <> tag_base && tag land 0xF0 <> tag_base_swab then
    malformed "tag 0x%02x" tag;
  let swab = tag land 0xF0 = tag_base_swab in
  let op = (tag lsr 1) land 0x7 in
  let notify = tag land 1 = 1 in
  let fixed message =
    finished r;
    message
  in
  if op = op_write then
    let seg = Atm.Codec.get_u8 r in
    let gen = get_gen r in
    let off = Atm.Codec.get_u32 r in
    Write { seg; gen; off; notify; swab; data = Atm.Codec.rest_view r }
  else if op = op_read then
    let seg = Atm.Codec.get_u8 r in
    let gen = get_gen r in
    let soff = Atm.Codec.get_u32 r in
    let count = Atm.Codec.get_u32 r in
    let reqid = Atm.Codec.get_u16 r in
    fixed (Read { seg; gen; soff; count; reqid; notify; swab })
  else if op = op_read_reply then
    let status = get_status r in
    let reqid = Atm.Codec.get_u16 r in
    let chunk_off = Atm.Codec.get_u32 r in
    Read_reply { status; reqid; chunk_off; swab; data = Atm.Codec.rest_view r }
  else if op = op_cas then
    let seg = Atm.Codec.get_u8 r in
    let gen = get_gen r in
    let doff = Atm.Codec.get_u32 r in
    let old_value = Atm.Codec.get_i32 r in
    let new_value = Atm.Codec.get_i32 r in
    let reqid = Atm.Codec.get_u16 r in
    fixed (Cas { seg; gen; doff; old_value; new_value; reqid; notify })
  else if op = op_cas_reply then
    let status = get_status r in
    let reqid = Atm.Codec.get_u16 r in
    let witness = Atm.Codec.get_i32 r in
    fixed (Cas_reply { status; reqid; witness })
  else if op = op_write_nack then
    let status = get_status r in
    let seg = Atm.Codec.get_u8 r in
    let gen = get_gen r in
    let off = Atm.Codec.get_u32 r in
    let count = Atm.Codec.get_u32 r in
    fixed (Write_nack { status; seg; gen; off; count })
  else if op = op_write_burst then begin
    let seg = Atm.Codec.get_u8 r in
    let gen = get_gen r in
    let n = Atm.Codec.get_u16 r in
    (* The reader is stateful: decode extents explicitly in frame order. *)
    let rec decode_items k acc =
      if k = 0 then List.rev acc
      else begin
        let off = Atm.Codec.get_u32 r in
        let len = Atm.Codec.get_u32 r in
        decode_items (k - 1) ({ off; data = Atm.Codec.get_view r len } :: acc)
      end
    in
    let items = decode_items n [] in
    fixed (Write_burst { seg; gen; notify; swab; items })
  end
  else malformed "op %d" op

let decode payload =
  match decode_exn payload with
  | message -> Ok message
  | exception Malformed reason -> Error reason
  | exception Atm.Codec.Truncated -> Error "truncated"

let equal a b =
  let same_data x y = Atm.Codec.view_equal x y in
  match (a, b) with
  | Write x, Write y -> { x with data = y.data } = y && same_data x.data y.data
  | Read_reply x, Read_reply y ->
      { x with data = y.data } = y && same_data x.data y.data
  | Write_burst x, Write_burst y ->
      { x with items = y.items } = y
      && List.length x.items = List.length y.items
      && List.for_all2
           (fun (i : burst_item) (j : burst_item) ->
             i.off = j.off && same_data i.data j.data)
           x.items y.items
  | Write _, _ | Read_reply _, _ | Write_burst _, _ -> false
  | (Read _ | Cas _ | Cas_reply _ | Write_nack _), _ -> a = b
