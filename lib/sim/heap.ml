(* Event queue: a struct-of-arrays kept sorted by (time, seq), descending.

   Ordering is by (time, seq): the sequence number is a monotonically
   increasing tie-breaker assigned by the engine so that events scheduled
   for the same instant fire in scheduling order, keeping runs
   deterministic.

   Layout.  Position [i] is described by three int arrays — [times.(i)],
   [seqs.(i)] and [slots.(i)] — sorted so that the next event due sits
   at position [size-1].  A payload lives in [payloads.(slot)] and never
   moves while its event is queued: pushing costs one pointer store,
   popping none.  The free slots are kept in [slots] itself, at
   positions [size .. used-1], so the queue and its free list are one
   permutation of [0 .. used-1].  A freed slot keeps its old payload
   reachable until the slot is reused, which bounds the retained
   payloads by the queue's peak length.

   Cost.  Popping decrements [size]: the popped slot is then already at
   the front of the free region, so nothing moves.  Pushing scans back
   from the end and shifts every entry due before the new one up by one
   place, so it costs O(k) for k such entries.  The simulator's new
   events are almost always due before nearly everything queued (most
   delays are a few microseconds), so k is small: a few entries on
   average on the benchmark's workloads (DESIGN §19 has the figures).

   Comparisons are written on [int]-annotated operands: an unannotated
   helper would be polymorphic and compile to [compare_val].  The
   lexicographic order is one helper, [lt], that computes 0 or 1 with no
   branch, so the push scan has a single unpredictable exit. *)

type 'a entry = { time : Time.t; seq : int; payload : 'a }

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a array;
  mutable size : int; (* queued events: positions [0 .. size-1], latest first *)
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
  let times = h.times and seqs = h.seqs and slots = h.slots in
  (* Position [size] held the slot just taken, so the scan starts with a
     hole there and moves it down past every entry due first. *)
  let i = ref h.size in
  while !i > 0 && lt times.(!i - 1) seqs.(!i - 1) time seq = 1 do
    let j = !i - 1 in
    times.(!i) <- times.(j);
    seqs.(!i) <- seqs.(j);
    slots.(!i) <- slots.(j);
    i := j
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot;
  h.size <- h.size + 1

(* The engine reads the key through these on every event.  A
   bounds-checked load behind an emptiness check is over ocamlopt's
   default inlining size, so they carry [@inline] to be inlined across
   the module boundary. *)
let[@inline] check_nonempty h = if h.size = 0 then invalid_arg "Heap: empty"

let[@inline] min_time h =
  check_nonempty h;
  h.times.(h.size - 1)

let[@inline] min_seq h =
  check_nonempty h;
  h.seqs.(h.size - 1)

let[@inline] take_payload h =
  check_nonempty h;
  let last = h.size - 1 in
  h.size <- last;
  h.payloads.(h.slots.(last))

let take h =
  let time = min_time h in
  let seq = min_seq h in
  { time; seq; payload = take_payload h }

let pop h = if h.size = 0 then None else Some (take h)

let entries_at_min h =
  if h.size = 0 then []
  else begin
    let time = min_time h in
    (* Walk from the next event back through its instant: seqs rise
       towards position [size-1], so consing from the earliest-placed
       entry onward leaves the smallest seq at the head. *)
    let first = ref (h.size - 1) in
    while !first > 0 && h.times.(!first - 1) = time do
      decr first
    done;
    let same = ref [] in
    for i = !first to h.size - 1 do
      same :=
        { time; seq = h.seqs.(i); payload = h.payloads.(h.slots.(i)) } :: !same
    done;
    !same
  end

let remove h ~seq =
  let rec find i =
    if i < 0 then -1 else if h.seqs.(i) = seq then i else find (i - 1)
  in
  match find (h.size - 1) with
  | -1 -> None
  | i ->
      let times = h.times and seqs = h.seqs and slots = h.slots in
      let time = times.(i) and slot = slots.(i) in
      (* Close the gap; the freed slot lands at the front of the free
         region. *)
      let last = h.size - 1 in
      for j = i to last - 1 do
        times.(j) <- times.(j + 1);
        seqs.(j) <- seqs.(j + 1);
        slots.(j) <- slots.(j + 1)
      done;
      slots.(last) <- slot;
      h.size <- last;
      Some { time; seq; payload = h.payloads.(slot) }
