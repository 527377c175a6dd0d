(* Binary min-heap of timestamped events, laid out as struct-of-arrays.

   Ordering is by (time, seq): the sequence number is a monotonically
   increasing tie-breaker assigned by the engine so that events scheduled
   for the same instant fire in scheduling order, keeping runs
   deterministic.

   Layout.  Heap position [i] is described by three int arrays —
   [times.(i)], [seqs.(i)] and [slots.(i)] — so sifting compares and
   moves unboxed ints only.  A payload lives in [payloads.(slot)] and
   never moves while its event is queued: pushing costs one pointer
   store, popping none.  The free slots are kept in [slots] itself, at
   positions [size .. used-1], so the heap and its free list are one
   permutation of [0 .. used-1].  A freed slot keeps its old payload
   reachable until the slot is reused, which bounds the retained
   payloads by the queue's peak length.

   Comparisons are written on [int]-annotated operands: an unannotated
   helper would be polymorphic and compile to [compare_val].  The
   lexicographic order is one helper, [lt], that computes 0 or 1 with
   no branch, so [sift_down] picks the smaller child as
   [left + lt right left] instead of through a branch that a random
   queue mispredicts half the time. *)

type 'a entry = { time : Time.t; seq : int; payload : 'a }

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a array;
  mutable size : int; (* queued events: heap positions [0 .. size-1] *)
  mutable used : int; (* slots ever handed out: [size .. used-1] are free *)
}

let create () =
  { times = [||]; seqs = [||]; slots = [||]; payloads = [||]; size = 0; used = 0 }

let length h = h.size
let is_empty h = h.size = 0

(* 1 when (t1, s1) sorts before (t2, s2), else 0.  The three
   comparisons are evaluated as values and combined with [land]/[lor],
   so the lexicographic order costs no branch of its own. *)
let[@inline] lt (t1 : int) (s1 : int) (t2 : int) (s2 : int) =
  Bool.to_int (t1 < t2) lor (Bool.to_int (t1 = t2) land Bool.to_int (s1 < s2))

(* Make room for one more slot; [payload] fills the fresh payload cells
   (an ['a array] needs some value of type ['a]). *)
let grow h payload =
  let capacity = Array.length h.slots in
  if h.used = capacity then begin
    let next = if capacity = 0 then 16 else capacity * 2 in
    let extend arr fill =
      let a = Array.make next fill in
      Array.blit arr 0 a 0 capacity;
      a
    in
    h.times <- extend h.times 0;
    h.seqs <- extend h.seqs 0;
    h.slots <- extend h.slots 0;
    h.payloads <- extend h.payloads payload
  end

(* Place (time, seq, slot) at hole [i], moving it up past larger parents. *)
let sift_up h i ~time ~seq ~slot =
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    if lt time seq times.(p) seqs.(p) = 1 then begin
      times.(!i) <- times.(p);
      seqs.(!i) <- seqs.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Place (time, seq, slot) at hole [i], moving it down past smaller
   children.  The smaller child is [left + lt right left], picked
   without a branch; only a lone left child (at most one per heap)
   takes the other arm. *)
let sift_down h i ~time ~seq ~slot =
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let size = h.size in
  let i = ref i and settled = ref false in
  while not !settled do
    let left = (2 * !i) + 1 in
    if left >= size then settled := true
    else begin
      let right = left + 1 in
      let c =
        if right < size then
          left + lt times.(right) seqs.(right) times.(left) seqs.(left)
        else left
      in
      if lt times.(c) seqs.(c) time seq = 1 then begin
        times.(!i) <- times.(c);
        seqs.(!i) <- seqs.(c);
        slots.(!i) <- slots.(c);
        i := c
      end
      else settled := true
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let push h ~time ~seq payload =
  let slot =
    if h.size < h.used then h.slots.(h.size)
    else begin
      grow h payload;
      h.used <- h.used + 1;
      h.size
    end
  in
  h.payloads.(slot) <- payload;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) ~time ~seq ~slot

(* Delete heap position [i]: the last element refills the hole, and the
   freed slot moves to the front of the free region. *)
let delete_at h i =
  let last = h.size - 1 in
  let slot = h.slots.(i) in
  let time = h.times.(last) and seq = h.seqs.(last) and moved = h.slots.(last) in
  h.slots.(last) <- slot;
  h.size <- last;
  if i < last then begin
    (* The replacement may belong either above or below its new slot. *)
    if i > 0 && lt time seq h.times.((i - 1) / 2) h.seqs.((i - 1) / 2) = 1 then
      sift_up h i ~time ~seq ~slot:moved
    else sift_down h i ~time ~seq ~slot:moved
  end;
  slot

(* The engine reads the key through these on every event.  A
   bounds-checked load behind an emptiness check is over ocamlopt's
   default inlining size, so they carry [@inline] to be inlined across
   the module boundary. *)
let[@inline] check_nonempty h = if h.size = 0 then invalid_arg "Heap: empty"

let[@inline] min_time h =
  check_nonempty h;
  h.times.(0)

let[@inline] min_seq h =
  check_nonempty h;
  h.seqs.(0)

let take_payload h =
  check_nonempty h;
  h.payloads.(delete_at h 0)

let take h =
  let time = min_time h in
  let seq = h.seqs.(0) in
  { time; seq; payload = take_payload h }

let pop h = if h.size = 0 then None else Some (take h)

let entries_at_min h =
  if h.size = 0 then []
  else begin
    let time = h.times.(0) in
    let same = ref [] in
    for i = h.size - 1 downto 0 do
      if h.times.(i) = time then
        same :=
          { time; seq = h.seqs.(i); payload = h.payloads.(h.slots.(i)) } :: !same
    done;
    List.sort (fun a b -> Int.compare a.seq b.seq) !same
  end

let remove h ~seq =
  let rec find i =
    if i = h.size then -1 else if h.seqs.(i) = seq then i else find (i + 1)
  in
  match find 0 with
  | -1 -> None
  | i ->
      let time = h.times.(i) in
      Some { time; seq; payload = h.payloads.(delete_at h i) }
