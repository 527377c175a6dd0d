(** Event queue of timestamped events, ordered by [(time, seq)]: parallel
    int arrays kept sorted with the next event last, and payloads in
    fixed slots (see the implementation's header for the layout).

    Taking the next event is O(1). Pushing is O(k), where k is the
    number of queued events due before the new one; the simulator's new
    events are nearly always due before almost everything queued, so k
    stays small.

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

val take : 'a t -> 'a entry
(** {!pop} without the option. Raises [Invalid_argument] when empty. *)

(** {1 Allocation-free access to the smallest entry}

    The engine's per-event path: read the smallest entry's key, then
    remove it and get its payload, with no [entry] record built. Each
    raises [Invalid_argument] when the queue is empty. *)

val min_time : 'a t -> Time.t
val min_seq : 'a t -> int

val take_payload : 'a t -> 'a
(** Remove the smallest entry and return its payload. *)

val entries_at_min : 'a t -> 'a entry list
(** Every entry sharing the smallest time, in ascending [seq] order —
    the set of events enabled at the next instant. [[]] when empty. *)

val remove : 'a t -> seq:int -> 'a entry option
(** Remove the entry carrying [seq] (sequence numbers are unique per
    engine), keeping the rest in order. [None] if absent. *)
