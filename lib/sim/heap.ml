(* Array-backed binary min-heap of timestamped events.

   Ordering is by (time, seq): the sequence number is a monotonically
   increasing tie-breaker assigned by the engine so that events scheduled
   for the same instant fire in scheduling order, keeping runs
   deterministic. *)

type 'a entry = { time : Time.t; seq : int; payload : 'a }

type 'a t = { mutable arr : 'a entry array; mutable size : int }

let create () = { arr = [||]; size = 0 }

let length h = h.size

let is_empty h = h.size = 0

let entry_before a b =
  match Time.compare a.time b.time with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let grow h entry =
  let capacity = Array.length h.arr in
  if h.size = capacity then begin
    let next = if capacity = 0 then 16 else capacity * 2 in
    let arr = Array.make next entry in
    Array.blit h.arr 0 arr 0 h.size;
    h.arr <- arr
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_before h.arr.(i) h.arr.(parent) then begin
      let tmp = h.arr.(i) in
      h.arr.(i) <- h.arr.(parent);
      h.arr.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && entry_before h.arr.(left) h.arr.(!smallest) then
    smallest := left;
  if right < h.size && entry_before h.arr.(right) h.arr.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(!smallest);
    h.arr.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h ~time ~seq payload =
  let entry = { time; seq; payload } in
  grow h entry;
  h.arr.(h.size) <- entry;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let top h =
  if h.size = 0 then invalid_arg "Heap.top: empty";
  h.arr.(0)

let take h =
  let top = top h in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.arr.(0) <- h.arr.(h.size);
    sift_down h 0
  end;
  top

let pop h = if h.size = 0 then None else Some (take h)

let entries_at_min h =
  if h.size = 0 then []
  else begin
    let time = (top h).time in
    let same = ref [] in
    for i = h.size - 1 downto 0 do
      if Time.equal h.arr.(i).time time then same := h.arr.(i) :: !same
    done;
    List.sort (fun a b -> Stdlib.compare a.seq b.seq) !same
  end

let remove h ~seq =
  let found = ref None in
  for i = h.size - 1 downto 0 do
    if h.arr.(i).seq = seq then found := Some i
  done;
  match !found with
  | None -> None
  | Some i ->
      let entry = h.arr.(i) in
      h.size <- h.size - 1;
      if i < h.size then begin
        h.arr.(i) <- h.arr.(h.size);
        (* The replacement may belong either above or below its new slot. *)
        sift_up h i;
        sift_down h i
      end;
      Some entry
