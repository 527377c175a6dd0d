(* ATM adaptation-layer arithmetic.

   An ATM cell carries 53 bytes on the wire: a 5-byte header and a 48-byte
   payload.  Frames no larger than one payload travel in a single cell (the
   remote-memory layer formats its single-cell requests this way, with the
   8-byte request header inside the payload leaving 40 data bytes, exactly
   as the paper reports).  Larger frames are segmented AAL5-style with an
   8-byte trailer in the final cell. *)

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
   it with a word-wise multiplicative digest: each 32-bit word [w] of the
   payload (a short tail is zero-padded into one last word) is mixed in
   full 63-bit arithmetic as [h := (h lxor w) * prime].  For a fixed
   state the step is injective in its word (the word enters
   sign-extended, which is still injective), and the multiplier is odd,
   so the step is a bijection of the state; hence any change confined to
   one word (in particular any single corrupted byte) changes the
   digest.  The length seeds the state, so frames of different lengths
   differ too.  Verification is free in simulated time (the real
   interface checks it in hardware as cells drain). *)
let checksum_prime = 0x100000001B3

(* Unchecked 32-bit load: the loop below only reads whole words that
   lie inside the payload. *)
external unsafe_get_int32 : bytes -> int -> int32 = "%caml_bytes_get32u"

let checksum payload =
  let len = Bytes.length payload in
  let words = len / 4 in
  let h = ref ((0x811C9DC5 lxor len) * checksum_prime) in
  for i = 0 to words - 1 do
    h := (!h lxor Int32.to_int (unsafe_get_int32 payload (4 * i))) * checksum_prime
  done;
  let tail = ref 0 in
  for i = len - 1 downto 4 * words do
    tail := (!tail lsl 8) lor Char.code (Bytes.get payload i)
  done;
  if 4 * words < len then h := (!h lxor !tail) * checksum_prime;
  !h
