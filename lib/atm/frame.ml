(* Network frames: the unit handed to and received from a NIC.

   A frame's payload is segmented into ATM cells for transmission; see
   {!Aal} for the cell arithmetic.

   [ctx] models a trace id riding in a reserved header field: it travels
   with the frame but contributes nothing to [length], so attaching a
   tracer cannot perturb wire timing.

   [sum_hi]/[sum_lo] model the AAL5 trailer CRC ({!Aal.checksum}, a
   64-bit word-wise digest that changes whenever any single 8-byte word
   of the payload changes), kept as its two 32-bit halves so that the
   frame holds it unboxed: computed over the payload when the frame is
   formatted for transmission and carried unchanged.  A fault plane
   that corrupts the payload in flight leaves the stored checksum
   stale, so the receiving NIC detects the damage and drops the frame
   as a receive error instead of delivering bad data.

   [ends] holds the source address above the destination ({!Addr.bits}
   bits each), which keeps a frame at five fields: frames are the
   simulator's most numerous short-lived blocks, and those still in
   flight at a minor collection are promoted.

   The payload is immutable once the frame is made: receivers read it
   through views (see [Codec.view]) rather than copying it, and damage
   in flight goes through {!corrupted}, which copies. *)

type t = {
  ends : int;
  payload : bytes;
  ctx : Obs.Ctx.t option;
  sum_hi : int;
  sum_lo : int;
}

let[@inline] hi d = Int64.to_int (Int64.shift_right_logical d 32)
let[@inline] lo d = Int64.to_int d land 0xFFFF_FFFF

let make ?ctx ~src ~dst payload =
  let d = Aal.checksum payload in
  let ends = (Addr.to_int src lsl Addr.bits) lor Addr.to_int dst in
  { ends; payload; ctx; sum_hi = hi d; sum_lo = lo d }

let src t = Addr.of_int (t.ends lsr Addr.bits)
let dst t = Addr.of_int (t.ends land ((1 lsl Addr.bits) - 1))
let payload t = t.payload
let ctx t = t.ctx
let length t = Bytes.length t.payload

let intact t =
  let d = Aal.checksum t.payload in
  t.sum_lo = lo d && t.sum_hi = hi d

(* In-flight corruption: flip one payload byte (chosen by the fault
   plane) without refreshing the stored checksum. An empty payload has
   no byte to flip, so the checksum itself is damaged instead. *)
let corrupted ~byte t =
  if Bytes.length t.payload = 0 then { t with sum_lo = t.sum_lo lxor 1 }
  else begin
    let payload = Bytes.copy t.payload in
    let i = byte mod Bytes.length payload in
    Bytes.set payload i (Char.chr (Char.code (Bytes.get payload i) lxor 0xFF));
    { t with payload }
  end

let pp ppf t =
  Format.fprintf ppf "frame(%a -> %a, %d bytes)" Addr.pp (src t) Addr.pp (dst t)
    (length t)
