(** Imported segment descriptors: the importing kernel's handle on a
    remote segment. Stale descriptors fail locally at the source. *)

type t

val create :
  remote:Atm.Addr.t ->
  segment_id:int ->
  generation:Generation.t ->
  size:int ->
  rights:Rights.t ->
  t

val remote : t -> Atm.Addr.t
val segment_id : t -> int
val generation : t -> Generation.t
val size : t -> int
val rights : t -> Rights.t

val is_stale : t -> bool
val mark_stale : t -> unit

val refresh : t -> generation:Generation.t -> unit
(** Re-validate with a fresh generation (after a re-import). *)

val target : t -> int * int * int
(** (remote node, segment id, generation) as ints: what the descriptor
    currently names. *)

module Target_tbl : Hashtbl.S with type key = int * int * int
(** Tables keyed by a {!target}, compared and hashed as ints rather than
    through [compare_val] and [caml_hash]. *)

val pp : Format.formatter -> t -> unit
