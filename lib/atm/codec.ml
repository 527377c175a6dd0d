(* Little binary codec for wire payloads.

   All multi-byte integers are little-endian.  Readers raise [Truncated]
   rather than returning garbage when a payload is shorter than its
   header claims.

   Bulk data moves as views: a writer copies a view's bytes into its
   buffer once, and a reader hands out views into the payload it reads
   instead of copying.  A writer sized exactly (the [capacity] of its
   final length) hands its buffer over from [contents] without a copy. *)

exception Truncated

type view = { base : bytes; pos : int; len : int }

let view ?(pos = 0) ?len base =
  let len = match len with Some len -> len | None -> Bytes.length base - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length base then
    invalid_arg "Codec.view";
  { base; pos; len }

let view_to_bytes v = Bytes.sub v.base v.pos v.len

let view_equal a b =
  a.len = b.len
  &&
  let rec same i =
    i >= a.len
    || Bytes.unsafe_get a.base (a.pos + i) = Bytes.unsafe_get b.base (b.pos + i)
       && same (i + 1)
  in
  same 0

type writer = { mutable buf : bytes; mutable pos : int }

let writer ?(capacity = 64) () = { buf = Bytes.create capacity; pos = 0 }

let ensure w extra =
  let needed = w.pos + extra in
  let capacity = Bytes.length w.buf in
  if needed > capacity then begin
    let next = Int.max needed (capacity * 2) in
    let buf = Bytes.make next '\000' in
    Bytes.blit w.buf 0 buf 0 w.pos;
    w.buf <- buf
  end

let put_u8 w v =
  if v < 0 || v > 0xFF then invalid_arg "Codec.put_u8";
  ensure w 1;
  Bytes.set_uint8 w.buf w.pos v;
  w.pos <- w.pos + 1

let put_u16 w v =
  if v < 0 || v > 0xFFFF then invalid_arg "Codec.put_u16";
  ensure w 2;
  Bytes.set_uint16_le w.buf w.pos v;
  w.pos <- w.pos + 2

let put_u32 w v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.put_u32";
  ensure w 4;
  Bytes.set_int32_le w.buf w.pos (Int32.of_int v);
  w.pos <- w.pos + 4

let put_i32 w v =
  ensure w 4;
  Bytes.set_int32_le w.buf w.pos v;
  w.pos <- w.pos + 4

let put_u64 w v =
  ensure w 8;
  Bytes.set_int64_le w.buf w.pos (Int64.of_int v);
  w.pos <- w.pos + 8

let put_bytes w b =
  ensure w (Bytes.length b);
  Bytes.blit b 0 w.buf w.pos (Bytes.length b);
  w.pos <- w.pos + Bytes.length b

let put_view w v =
  ensure w v.len;
  Bytes.blit v.base v.pos w.buf w.pos v.len;
  w.pos <- w.pos + v.len

let reserve w n =
  if n < 0 then invalid_arg "Codec.reserve";
  ensure w n;
  let pos = w.pos in
  w.pos <- w.pos + n;
  pos

let put_string w s =
  let n = String.length s in
  if n > 0xFFFF then invalid_arg "Codec.put_string: too long";
  put_u16 w n;
  ensure w n;
  Bytes.blit_string s 0 w.buf w.pos n;
  w.pos <- w.pos + n

let put_padding w n =
  ensure w n;
  Bytes.fill w.buf w.pos n '\000';
  w.pos <- w.pos + n

let length w = w.pos

(* A full buffer is handed over as is: any later non-empty put must grow
   (and so reallocate) it first, so the caller's bytes never change. *)
let contents w =
  if w.pos = Bytes.length w.buf then w.buf else Bytes.sub w.buf 0 w.pos

type reader = { data : bytes; mutable rpos : int }

let reader ?(pos = 0) data = { data; rpos = pos }

let remaining r = Bytes.length r.data - r.rpos

let need r n = if remaining r < n then raise Truncated

let get_u8 r =
  need r 1;
  let v = Bytes.get_uint8 r.data r.rpos in
  r.rpos <- r.rpos + 1;
  v

let get_u16 r =
  need r 2;
  let v = Bytes.get_uint16_le r.data r.rpos in
  r.rpos <- r.rpos + 2;
  v

let get_u32 r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_le r.data r.rpos) land 0xFFFFFFFF in
  r.rpos <- r.rpos + 4;
  v

let get_i32 r =
  need r 4;
  let v = Bytes.get_int32_le r.data r.rpos in
  r.rpos <- r.rpos + 4;
  v

let get_u64 r =
  need r 8;
  let v = Int64.to_int (Bytes.get_int64_le r.data r.rpos) in
  r.rpos <- r.rpos + 8;
  v

let get_bytes r n =
  if n < 0 then invalid_arg "Codec.get_bytes";
  need r n;
  let b = Bytes.sub r.data r.rpos n in
  r.rpos <- r.rpos + n;
  b

let get_view r n =
  if n < 0 then invalid_arg "Codec.get_view";
  need r n;
  let v = { base = r.data; pos = r.rpos; len = n } in
  r.rpos <- r.rpos + n;
  v

let get_string r =
  let n = get_u16 r in
  need r n;
  let s = Bytes.sub_string r.data r.rpos n in
  r.rpos <- r.rpos + n;
  s

let skip r n =
  if n < 0 then invalid_arg "Codec.skip";
  need r n;
  r.rpos <- r.rpos + n

let rest r = get_bytes r (remaining r)
let rest_view r = get_view r (remaining r)

let position r = r.rpos
