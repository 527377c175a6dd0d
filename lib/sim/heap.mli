(** Binary min-heap of timestamped events, ordered by [(time, seq)].

    The sequence number breaks ties between events scheduled for the same
    instant so that same-time events fire in scheduling order, which keeps
    simulation runs fully deterministic. *)

type 'a entry = { time : Time.t; seq : int; payload : 'a }

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:Time.t -> seq:int -> 'a -> unit

val pop : 'a t -> 'a entry option
(** Remove and return the smallest entry. *)

val top : 'a t -> 'a entry
(** The smallest entry, left in place. Raises [Invalid_argument] when
    empty. *)

val take : 'a t -> 'a entry
(** {!pop} without the option. Raises [Invalid_argument] when empty. *)

val entries_at_min : 'a t -> 'a entry list
(** Every entry sharing the smallest time, in ascending [seq] order —
    the set of events enabled at the next instant. [[]] when empty. *)

val remove : 'a t -> seq:int -> 'a entry option
(** Remove the entry carrying [seq] (sequence numbers are unique per
    engine), restoring the heap invariant. [None] if absent. *)
