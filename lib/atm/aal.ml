(* ATM adaptation-layer arithmetic.

   An ATM cell carries 53 bytes on the wire: a 5-byte header and a 48-byte
   payload.  Frames no larger than one payload travel in a single cell (the
   remote-memory layer formats its single-cell requests this way, with the
   8-byte request header inside the payload leaving 40 data bytes, exactly
   as the paper reports).  Larger frames are segmented AAL5-style with an
   8-byte trailer in the final cell, whose CRC is modelled below by a
   four-lane 64-bit word digest. *)

let cell_payload_bytes = 48
let cell_wire_bytes = 53
let cell_header_bytes = cell_wire_bytes - cell_payload_bytes
let aal5_trailer_bytes = 8

let cells_of_len len =
  if len < 0 then invalid_arg "Aal.cells_of_len: negative length";
  if len = 0 then 1
  else if len <= cell_payload_bytes then 1
  else
    let padded = len + aal5_trailer_bytes in
    (padded + cell_payload_bytes - 1) / cell_payload_bytes

let wire_bytes_of_len len = cells_of_len len * cell_wire_bytes

let words_of_len len = (len + 3) / 4
(* 32-bit words touched by programmed I/O to move [len] payload bytes. *)

(* The AAL5 trailer carries a CRC-32 over the frame payload.  We model
   it with a word-wise multiplicative digest in 64-bit arithmetic,
   computed in four independent lanes so that four multiply chains run
   side by side instead of one.  Each whole 32-byte group of the
   payload feeds one 8-byte word [w] to each lane, mixed modulo 2^64 as
   [h := (h lxor w) * prime]; the leftover whole words and the
   zero-padded tail word go to lane 0.  The lanes are then combined by
   the chain [(((h0 * p lxor h1) * p lxor h2) * p lxor h3) * p].

   For a fixed state a lane step is injective in its word, and the
   multiplier is odd, so the step is a bijection of the state; the
   combine, with the other lanes fixed, is a bijection of each lane.
   Hence any change confined to one 8-byte word (in particular any
   single corrupted byte) changes exactly one lane and so the digest.
   The length seeds every lane, so frames of different lengths differ
   too.  Verification is free in simulated time (the real interface
   checks it in hardware as cells drain). *)
let checksum_prime = 0x100000001B3L

(* Unchecked 64-bit load: the loops below only read whole words that
   lie inside the payload. *)
external unsafe_get_int64 : bytes -> int -> int64 = "%caml_bytes_get64u"

(* Inlined into its callers, so the digest reaches them unboxed. *)
let[@inline] checksum payload =
  let len = Bytes.length payload in
  let seed = 0x811C9DC5 lxor len in
  let open Int64 in
  let p = checksum_prime in
  let seed = mul (of_int seed) p in
  let h0 = ref seed and h1 = ref seed and h2 = ref seed and h3 = ref seed in
  let off = ref 0 in
  let groups_end = len land lnot 31 and words_end = len land lnot 7 in
  while !off < groups_end do
    let o = !off in
    h0 := mul (logxor !h0 (unsafe_get_int64 payload o)) p;
    h1 := mul (logxor !h1 (unsafe_get_int64 payload (o + 8))) p;
    h2 := mul (logxor !h2 (unsafe_get_int64 payload (o + 16))) p;
    h3 := mul (logxor !h3 (unsafe_get_int64 payload (o + 24))) p;
    off := o + 32
  done;
  while !off < words_end do
    h0 := mul (logxor !h0 (unsafe_get_int64 payload !off)) p;
    off := !off + 8
  done;
  if words_end < len then begin
    let tail = ref 0 in
    for i = len - 1 downto words_end do
      tail := (!tail lsl 8) lor Char.code (Bytes.unsafe_get payload i)
    done;
    h0 := mul (logxor !h0 (of_int !tail)) p
  end;
  mul (logxor (mul (logxor (mul (logxor (mul !h0 p) !h1) p) !h2) p) !h3) p
