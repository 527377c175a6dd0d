(** Node addresses on the cluster network. *)

type t = private int

val bits : int
(** 31: every address is below [2^bits], so that a frame can hold its
    source and destination in one word. *)

val of_int : int -> t
(** Raises [Invalid_argument] on negative input or an address of
    [2^bits] or more. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
