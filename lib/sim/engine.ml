(* The discrete-event engine: a clock plus an ordered queue of thunks.

   Two additions ride on the basic loop:

   - a registry of blocked waiters (filled in by Ivar/Mailbox/Resource
     via [Proc.suspend_on]) so that a drained queue with live waiters
     is recognized as a deadlock and reported by name;
   - a pluggable same-instant scheduler: when more than one event is
     enabled at the next instant, an installed scheduler picks which
     fires first.  With no scheduler installed the engine keeps its
     historical FIFO order (ascending sequence number), so default runs
     are bit-identical to the pre-scheduler engine. *)

type blocked = {
  process : string;
  resource : string;
  daemon : bool;
  since : Time.t;
}

exception Deadlock of Time.t * blocked list

type choice = { at : Time.t; enabled : int list }
type scheduler = choice -> int

(* A registered waiter keeps the pieces of its description and formats
   it only when a report asks: blocking is frequent, reports are rare. *)
type waiter = {
  process : string;
  kind : string; (* "" when [name] is already the whole description *)
  name : string;
  daemon : bool;
  since : Time.t;
}

(* What a free registry slot holds. *)
let vacant = { process = ""; kind = ""; name = ""; daemon = true; since = 0 }

(* A waiter token packs the registration order above the waiter's slot,
   so tokens sort in registration order and a token whose slot has since
   been reused no longer matches [tokens.(slot)]. *)
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

(* Event sequence numbers key the parent map: int-specialised, so a
   probe hashes and compares without [caml_hash] or [compare_val]. *)
module Int_tbl = Hashtbl.Make (Int)

type t = {
  mutable now : Time.t;
  queue : (unit -> unit) Heap.t;
  mutable seq : int;
  mutable stopped : bool;
  mutable scheduler : scheduler option;
  (* Blocked-waiter registry, by slot.  [tokens.(slot)] is the live
     token, or -1 for a free slot; free slots are stacked in
     [free.(0 .. free_count-1)]. *)
  mutable waiters : waiter array;
  mutable tokens : int array;
  mutable free : int array;
  mutable free_count : int;
  mutable registrations : int; (* the order part of the next token *)
  mutable detect_deadlock : bool;
  mutable spawns : int;
  mutable fired : int; (* events executed since [create] *)
  mutable firing : int; (* seq of the event being fired, -1 outside [fire] *)
  mutable track_parents : bool;
  parents : int Int_tbl.t; (* event seq -> scheduling event's seq *)
}

let create () =
  {
    now = Time.zero;
    queue = Heap.create ();
    seq = 0;
    stopped = false;
    scheduler = None;
    waiters = [||];
    tokens = [||];
    free = [||];
    free_count = 0;
    registrations = 0;
    detect_deadlock = true;
    spawns = 0;
    fired = 0;
    firing = -1;
    track_parents = false;
    parents = Int_tbl.create 64;
  }

let now t = t.now

let pending t = Heap.length t.queue
let events_fired t = t.fired

let schedule_at t time thunk =
  if Time.(time < t.now) then
    invalid_arg "Engine.schedule_at: event in the past";
  Heap.push t.queue ~time ~seq:t.seq thunk;
  if t.track_parents && t.firing >= 0 then
    Int_tbl.replace t.parents t.seq t.firing;
  t.seq <- t.seq + 1

let schedule_after t after thunk =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t (Time.add t.now after) thunk

let schedule ?(after = Time.zero) t thunk = schedule_after t after thunk

let stop t = t.stopped <- true

let next_spawn_id t =
  let id = t.spawns in
  t.spawns <- t.spawns + 1;
  id

(* ---------------- Blocked-waiter registry ---------------- *)

(* Double the slot arrays; the new slots are all free, stacked so the
   lowest is handed out first. *)
let grow_waiters t =
  let capacity = Array.length t.tokens in
  let next = if capacity = 0 then 16 else 2 * capacity in
  if next > slot_mask + 1 then failwith "Engine: too many blocked waiters";
  let extend arr fill =
    let a = Array.make next fill in
    Array.blit arr 0 a 0 capacity;
    a
  in
  t.waiters <- extend t.waiters vacant;
  t.tokens <- extend t.tokens (-1);
  t.free <- Array.init next (fun i -> next - 1 - i);
  t.free_count <- next - capacity

let register_blocked t ~process ?(kind = "") ~resource ~daemon () =
  if t.free_count = 0 then grow_waiters t;
  t.free_count <- t.free_count - 1;
  let slot = t.free.(t.free_count) in
  let token = (t.registrations lsl slot_bits) lor slot in
  t.registrations <- t.registrations + 1;
  t.waiters.(slot) <- { process; kind; name = resource; daemon; since = t.now };
  t.tokens.(slot) <- token;
  token

let clear_blocked t token =
  let slot = token land slot_mask in
  if slot < Array.length t.tokens && t.tokens.(slot) = token then begin
    t.tokens.(slot) <- -1;
    t.free.(t.free_count) <- slot;
    t.free_count <- t.free_count + 1
  end

let describe_waiter (w : waiter) : blocked =
  {
    process = w.process;
    resource =
      (if w.kind = "" then w.name else Printf.sprintf "%s %S" w.kind w.name);
    daemon = w.daemon;
    since = w.since;
  }

let blocked ?(daemons = false) t =
  let live = ref [] in
  Array.iteri
    (fun slot token ->
      let w = t.waiters.(slot) in
      if token >= 0 && (daemons || not w.daemon) then live := (token, w) :: !live)
    t.tokens;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !live
  |> List.map (fun (_, w) -> describe_waiter w)

let describe_blocked (b : blocked) =
  Printf.sprintf "%s blocked on %s since %s" b.process b.resource
    (Time.to_string b.since)

let deadlock_report bs =
  match bs with
  | [] -> "deadlock: queue drained with no registered waiters"
  | bs ->
      "deadlock: "
      ^ String.concat "; " (List.map describe_blocked bs)

let set_deadlock_detection t on = t.detect_deadlock <- on

(* ---------------- Stepping ---------------- *)

let fire t ~time ~seq thunk =
  t.now <- time;
  t.fired <- t.fired + 1;
  let previous = t.firing in
  t.firing <- seq;
  match thunk () with
  | () -> t.firing <- previous
  | exception exn ->
      t.firing <- previous;
      raise exn

let set_parent_tracking t on = t.track_parents <- on
let parent t seq = Int_tbl.find_opt t.parents seq

let next_enabled t =
  match Heap.entries_at_min t.queue with
  | [] -> None
  | entries ->
      Some
        {
          at = (List.hd entries).Heap.time;
          enabled = List.map (fun e -> e.Heap.seq) entries;
        }

let step_seq t seq =
  match Heap.entries_at_min t.queue with
  | [] -> false
  | entries ->
      if not (List.exists (fun e -> e.Heap.seq = seq) entries) then
        invalid_arg "Engine.step_seq: event not enabled at the next instant";
      (match Heap.remove t.queue ~seq with
      | Some { Heap.time; seq; payload } -> fire t ~time ~seq payload
      | None -> assert false);
      true

(* Fire the next event of a nonempty queue.  Its key is read in place
   and its thunk taken out, so firing builds no entry record. *)
let[@inline] fire_next t q =
  let time = Heap.min_time q in
  let seq = Heap.min_seq q in
  fire t ~time ~seq (Heap.take_payload q)

let step t =
  match t.scheduler with
  | None ->
      if Heap.is_empty t.queue then false
      else begin
        fire_next t t.queue;
        true
      end
  | Some choose -> (
      match next_enabled t with
      | None -> false
      | Some { enabled = [ seq ]; _ } -> step_seq t seq
      | Some choice ->
          let seq = choose choice in
          if not (List.mem seq choice.enabled) then
            invalid_arg "Engine.step: scheduler chose a non-enabled event";
          step_seq t seq)

let set_scheduler t scheduler = t.scheduler <- scheduler

let run ?until t =
  t.stopped <- false;
  let limit = match until with None -> max_int | Some limit -> limit in
  let q = t.queue in
  while (not t.stopped) && (not (Heap.is_empty q)) && Heap.min_time q <= limit do
    (* With no scheduler the next event fires inline; the scheduler is
       read per event, so one installed mid-run decides the next
       same-instant choice. *)
    match t.scheduler with
    | None -> fire_next t q
    | Some _ -> ignore (step t : bool)
  done;
  match until with
  | Some limit ->
      if (not t.stopped) && Time.(t.now < limit) then t.now <- limit
  | None ->
      (* The queue drained for good: if detection is on and somebody is
         still blocked on a non-daemon resource, nothing can ever wake
         them — report who waits on what. *)
      if t.detect_deadlock && (not t.stopped) && Heap.is_empty t.queue then
        match blocked t with
        | [] -> ()
        | waiters -> raise (Deadlock (t.now, waiters))

let run_until_quiescent t = run t
