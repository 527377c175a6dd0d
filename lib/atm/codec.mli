(** Binary codec for wire payloads. Multi-byte integers are
    little-endian; readers raise {!Truncated} on short input. *)

exception Truncated

(** {1 Views} *)

type view = { base : bytes; pos : int; len : int }
(** [len] bytes of [base] starting at [pos]: how bulk data moves through
    the codec without intermediate copies. A view aliases [base], so it
    is only as stable as the bytes under it. *)

val view : ?pos:int -> ?len:int -> bytes -> view
(** A view of [base] from [pos] (default 0) for [len] bytes (default: to
    the end). Raises [Invalid_argument] if the range is out of bounds. *)

val view_to_bytes : view -> bytes
(** A fresh copy of the viewed bytes. *)

val view_equal : view -> view -> bool
(** Same length and same bytes. *)

(** {1 Writing} *)

type writer

val writer : ?capacity:int -> unit -> writer
val put_u8 : writer -> int -> unit
val put_u16 : writer -> int -> unit
val put_u32 : writer -> int -> unit
val put_i32 : writer -> int32 -> unit
val put_u64 : writer -> int -> unit
val put_bytes : writer -> bytes -> unit
val put_view : writer -> view -> unit

val put_string : writer -> string -> unit
(** Length-prefixed (u16). *)

val put_padding : writer -> int -> unit

val reserve : writer -> int -> int
(** [reserve w n] claims the next [n] bytes without writing them and
    returns their offset. Fill them in the bytes {!contents} returns
    once writing is done; until then their contents are unspecified. *)

val length : writer -> int
val contents : writer -> bytes
(** The bytes written so far. When the writer is exactly full, this is
    its buffer itself rather than a copy (a later non-empty put grows
    the writer into a new buffer, so the result never changes). *)

(** {1 Reading} *)

type reader

val reader : ?pos:int -> bytes -> reader
val remaining : reader -> int
val get_u8 : reader -> int
val get_u16 : reader -> int
val get_u32 : reader -> int
val get_i32 : reader -> int32
val get_u64 : reader -> int
val get_bytes : reader -> int -> bytes
val get_view : reader -> int -> view
(** The next [n] bytes as a view into the reader's payload (no copy). *)

val get_string : reader -> string
val skip : reader -> int -> unit

val rest : reader -> bytes
(** Everything not yet consumed. *)

val rest_view : reader -> view
(** {!rest} as a view into the payload. *)

val position : reader -> int
