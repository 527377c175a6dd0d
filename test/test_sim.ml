(* Unit and property tests for the simulation engine. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Time ---------------- *)

let time_conversions () =
  check_int "us" 1_000 (Sim.Time.us 1);
  check_int "ms" 1_000_000 (Sim.Time.ms 1);
  check_int "sec" 1_000_000_000 (Sim.Time.sec 1);
  Alcotest.(check (float 1e-9)) "to_us" 1.5 (Sim.Time.to_us (Sim.Time.ns 1500));
  check_int "of_us_float rounds" 1_500 (Sim.Time.of_us_float 1.5);
  check_int "scale" 3_000 (Sim.Time.scale (Sim.Time.us 2) 1.5);
  check_bool "ordering" true Sim.Time.(us 1 < ms 1)

let time_pp () =
  Alcotest.(check string) "ns" "999ns" (Sim.Time.to_string 999);
  Alcotest.(check string) "us" "1.50us" (Sim.Time.to_string 1500);
  Alcotest.(check string) "ms" "2.000ms" (Sim.Time.to_string 2_000_000)

(* ---------------- Engine ---------------- *)

let engine_fifo_same_time () =
  let engine = Sim.Engine.create () in
  let order = ref [] in
  let note tag () = order := tag :: !order in
  Sim.Engine.schedule engine (note "a");
  Sim.Engine.schedule engine (note "b");
  Sim.Engine.schedule ~after:(Sim.Time.us 1) engine (note "d");
  Sim.Engine.schedule engine (note "c");
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c"; "d" ]
    (List.rev !order)

let engine_time_advances () =
  let engine = Sim.Engine.create () in
  let seen = ref [] in
  List.iter
    (fun delay ->
      Sim.Engine.schedule ~after:delay engine (fun () ->
          seen := Sim.Engine.now engine :: !seen))
    [ Sim.Time.us 5; Sim.Time.us 1; Sim.Time.us 3 ];
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "fires in time order"
    [ Sim.Time.us 1; Sim.Time.us 3; Sim.Time.us 5 ]
    (List.rev !seen)

let engine_until_limit () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule ~after:(Sim.Time.us 10) engine (fun () -> incr fired);
  Sim.Engine.schedule ~after:(Sim.Time.us 30) engine (fun () -> incr fired);
  Sim.Engine.run ~until:(Sim.Time.us 20) engine;
  check_int "only first fired" 1 !fired;
  check_int "clock at limit" (Sim.Time.us 20) (Sim.Engine.now engine);
  Sim.Engine.run engine;
  check_int "rest fired" 2 !fired

let engine_no_past_events () =
  let engine = Sim.Engine.create () in
  Sim.Engine.schedule ~after:(Sim.Time.us 5) engine (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: event in the past")
        (fun () -> Sim.Engine.schedule_at engine Sim.Time.zero (fun () -> ())));
  Sim.Engine.run engine

let engine_stop () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule engine (fun () ->
      incr fired;
      Sim.Engine.stop engine);
  Sim.Engine.schedule ~after:(Sim.Time.us 1) engine (fun () -> incr fired);
  Sim.Engine.run engine;
  check_int "stopped after first" 1 !fired

(* ---------------- Heap property ---------------- *)

let heap_pop_sorted =
  QCheck.Test.make ~name:"heap pops in (time, seq) order" ~count:200
    QCheck.(list (int_bound 1_000_000))
    (fun times ->
      let heap = Sim.Heap.create () in
      List.iteri (fun seq time -> Sim.Heap.push heap ~time ~seq ()) times;
      let rec drain previous =
        match Sim.Heap.pop heap with
        | None -> true
        | Some entry ->
            let key = (entry.Sim.Heap.time, entry.Sim.Heap.seq) in
            if compare previous key <= 0 then drain key else false
      in
      drain (min_int, min_int))

let heap_same_time_seq_order =
  QCheck.Test.make ~name:"same-key entries pop in seq order" ~count:200
    QCheck.(pair (int_bound 3) (list_of_size Gen.(2 -- 30) (int_bound 3)))
    (fun (min_time, times) ->
      (* Only a handful of distinct times, so same-time runs are long;
         seqs are assigned in push order and must come back ascending
         within every run. *)
      let heap = Sim.Heap.create () in
      List.iteri (fun seq time -> Sim.Heap.push heap ~time ~seq ()) times;
      Sim.Heap.push heap ~time:min_time ~seq:(List.length times) ();
      let rec drain previous =
        match Sim.Heap.pop heap with
        | None -> true
        | Some e ->
            if
              e.Sim.Heap.time > fst previous
              || (e.Sim.Heap.time = fst previous
                 && e.Sim.Heap.seq > snd previous)
            then drain (e.Sim.Heap.time, e.Sim.Heap.seq)
            else false
      in
      drain (min_int, min_int))

let heap_entries_at_min_and_remove () =
  let heap = Sim.Heap.create () in
  check_bool "empty min set" true (Sim.Heap.entries_at_min heap = []);
  List.iter
    (fun (time, seq) -> Sim.Heap.push heap ~time ~seq seq)
    [ (5, 0); (3, 1); (5, 2); (3, 3); (3, 4) ];
  let seqs entries = List.map (fun e -> e.Sim.Heap.seq) entries in
  Alcotest.(check (list int))
    "all min-time entries, ascending seq" [ 1; 3; 4 ]
    (seqs (Sim.Heap.entries_at_min heap));
  check_int "peek unchanged" 5 (Sim.Heap.length heap);
  (match Sim.Heap.remove heap ~seq:3 with
  | Some e -> check_int "removed the right payload" 3 e.Sim.Heap.payload
  | None -> Alcotest.fail "seq 3 should be present");
  check_bool "absent seq" true (Sim.Heap.remove heap ~seq:99 = None);
  Alcotest.(check (list int))
    "min set after removal" [ 1; 4 ]
    (seqs (Sim.Heap.entries_at_min heap));
  let rec drain acc =
    match Sim.Heap.pop heap with
    | None -> List.rev acc
    | Some e -> drain (e.Sim.Heap.seq :: acc)
  in
  Alcotest.(check (list int))
    "heap invariant survives removal" [ 1; 4; 0; 2 ] (drain [])

(* The heap against a sorted-list model, under interleaved pushes,
   takes, removals and min-set peeks.  Runs of up to 2,000 operations
   grow the slot arrays past several capacities mid-sequence; every
   payload is distinct, so an entry returned with another event's
   payload (a slot-reuse bug) fails the comparison.  A removal names a
   sequence number already issued, or the next (absent) one, so most
   removals hit an event still queued or already gone.  Each run draws
   its push times one way: tie-heavy (0-3, so most comparisons meet
   equal times and [seq] alone decides), narrow (0-40), wide
   (0-1,000,000), or engine-shaped — the last-taken time plus one of
   the delays the simulator schedules most, so new events land near the
   end the queue pops from. *)
type heap_op = Push of int | Push_after of int | Take | Remove of int | At_min

let heap_matches_model =
  let op push =
    QCheck.Gen.(
      frequency
        [
          (5, push);
          (2, return Take);
          (1, map (fun k -> Remove k) (int_bound 2000));
          (1, return At_min);
        ])
  in
  let pushes =
    QCheck.Gen.(
      oneofl
        [
          map (fun time -> Push time) (int_bound 3);
          map (fun time -> Push time) (int_bound 40);
          map (fun time -> Push time) (int_bound 1_000_000);
          map (fun delay -> Push_after delay) (oneofl [ 0; 2000; 3529; 8800; 400_000 ]);
        ])
  in
  let ops =
    QCheck.make
      ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
      QCheck.Gen.(pushes >>= fun push -> list_size (int_range 0 2000) (op push))
  in
  QCheck.Test.make ~name:"heap matches a sorted-list model" ~count:1000 ops
    (fun ops ->
      let heap = Sim.Heap.create () in
      let model = ref [] and next_seq = ref 0 and last_taken = ref 0 in
      let key (e : string Sim.Heap.entry) = (e.time, e.seq) in
      let push time =
        let seq = !next_seq in
        incr next_seq;
        let e = { Sim.Heap.time; seq; payload = Printf.sprintf "%d@%d" seq time } in
        Sim.Heap.push heap ~time ~seq e.payload;
        model := List.merge (fun a b -> compare (key a) (key b)) [ e ] !model;
        true
      in
      let step = function
        | Push time -> push time
        | Push_after delay -> push (!last_taken + delay)
        | Take -> (
            match !model with
            | [] -> (
                match Sim.Heap.take heap with
                | _ -> false
                | exception Invalid_argument _ -> true)
            | e :: rest ->
                model := rest;
                last_taken := e.time;
                Sim.Heap.min_time heap = e.time
                && Sim.Heap.min_seq heap = e.seq
                && Sim.Heap.take heap = e)
        | Remove k ->
            let seq = k mod (!next_seq + 1) in
            let expected = List.find_opt (fun (e : _ Sim.Heap.entry) -> e.seq = seq) !model in
            model := List.filter (fun (e : _ Sim.Heap.entry) -> e.seq <> seq) !model;
            Sim.Heap.remove heap ~seq = expected
        | At_min ->
            let expected =
              match !model with
              | [] -> []
              | first :: _ ->
                  List.filter (fun (e : _ Sim.Heap.entry) -> e.time = first.time) !model
            in
            Sim.Heap.entries_at_min heap = expected
      in
      List.for_all
        (fun op -> step op && Sim.Heap.length heap = List.length !model)
        ops)

(* The engine end to end: 20,000 events, each scheduled from a firing
   event (or up front) with a random delay, fire in exact (time, seq)
   order.  Events are numbered in scheduling order, which is the
   engine's seq order; delays mix same-instant, short and long ones. *)
let engine_fires_in_time_seq_order () =
  let engine = Sim.Engine.create () in
  let prng = Sim.Prng.create 15 in
  let total = 20_000 in
  let scheduled = ref 0 and fired = ref [] in
  let rec schedule_one () =
    if !scheduled < total then begin
      let id = !scheduled in
      incr scheduled;
      let delay =
        match Sim.Prng.int prng 4 with
        | 0 -> 0
        | 1 -> Sim.Prng.int prng 4
        | 2 -> Sim.Prng.int prng 5000
        | _ -> Sim.Prng.int prng 1_000_000
      in
      Sim.Engine.schedule_after engine delay (fun () ->
          fired := (Sim.Engine.now engine, id) :: !fired;
          schedule_one ();
          if Sim.Prng.int prng 8 = 0 then schedule_one ())
    end
  in
  for _ = 1 to 64 do
    schedule_one ()
  done;
  Sim.Engine.run engine;
  let fired = List.rev !fired in
  check_int "every event fired" total (List.length fired);
  let rec ordered = function
    | a :: (b :: _ as rest) -> compare a b < 0 && ordered rest
    | _ -> true
  in
  check_bool "fired in (time, seq) order" true (ordered fired)

(* Firing an event allocates nothing: once the queue has grown to its
   working size, 10,000 events of pre-allocated self-rescheduling
   thunks cost a few words in total (the boxed float of the reading). *)
let engine_fires_without_allocating () =
  let engine = Sim.Engine.create () in
  let remaining = ref 0 in
  let rec tick () =
    if !remaining > 0 then begin
      decr remaining;
      Sim.Engine.schedule_after engine (Sim.Time.ns 3) tick
    end
  in
  let burst events =
    remaining := events;
    for _ = 1 to 8 do
      Sim.Engine.schedule_after engine Sim.Time.zero tick
    done;
    Sim.Engine.run engine
  in
  burst 10_000;
  let fired = Sim.Engine.events_fired engine in
  let before = Gc.minor_words () in
  burst 10_000;
  let words = Gc.minor_words () -. before in
  check_int "events fired" 10_008 (Sim.Engine.events_fired engine - fired);
  check_bool
    (Printf.sprintf "%.0f minor words for 10,000 events (bound 64)" words)
    true (words <= 64.)

(* ---------------- Same-instant choice points ---------------- *)

let engine_choice_points () =
  let engine = Sim.Engine.create () in
  let order = ref [] in
  let note tag () = order := tag :: !order in
  Sim.Engine.schedule engine (note "a");
  Sim.Engine.schedule engine (note "b");
  Sim.Engine.schedule engine (note "c");
  (match Sim.Engine.next_enabled engine with
  | Some choice ->
      check_int "three enabled" 3 (List.length choice.Sim.Engine.enabled);
      check_int "at time zero" 0 choice.Sim.Engine.at
  | None -> Alcotest.fail "expected a choice point");
  (* A scheduler that reverses FIFO must reverse the firing order. *)
  Sim.Engine.set_scheduler engine
    (Some
       (fun choice ->
         List.nth choice.Sim.Engine.enabled
           (List.length choice.Sim.Engine.enabled - 1)));
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "reversed" [ "c"; "b"; "a" ]
    (List.rev !order)

let engine_step_seq_validates () =
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  Sim.Engine.schedule engine (fun () -> fired := "a" :: !fired);
  Sim.Engine.schedule engine (fun () -> fired := "b" :: !fired);
  Sim.Engine.schedule ~after:(Sim.Time.us 1) engine (fun () ->
      fired := "late" :: !fired);
  let enabled =
    match Sim.Engine.next_enabled engine with
    | Some c -> c.Sim.Engine.enabled
    | None -> Alcotest.fail "expected a choice point"
  in
  check_int "two enabled now" 2 (List.length enabled);
  (* The later event exists but is not enabled at this instant. *)
  check_bool "not-enabled seq rejected" true
    (try
       ignore (Sim.Engine.step_seq engine 2);
       false
     with Invalid_argument _ -> true);
  check_bool "fired second first" true
    (Sim.Engine.step_seq engine (List.nth enabled 1));
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "order" [ "b"; "a"; "late" ]
    (List.rev !fired)

let explicit_fifo_scheduler_is_default () =
  (* The first-enabled scheduler must replay the default order exactly. *)
  let trace scheduler =
    let engine = Sim.Engine.create () in
    (match scheduler with
    | true -> Sim.Engine.set_scheduler engine (Some (fun c -> List.hd c.Sim.Engine.enabled))
    | false -> ());
    let order = ref [] in
    let note tag () = order := tag :: !order in
    Sim.Proc.spawn ~name:"p1" engine (fun () ->
        note "p1-start" ();
        Sim.Proc.yield ();
        note "p1-mid" ();
        Sim.Proc.wait (Sim.Time.us 2);
        note "p1-end" ());
    Sim.Proc.spawn ~name:"p2" engine (fun () ->
        note "p2-start" ();
        Sim.Proc.wait (Sim.Time.us 2);
        note "p2-end" ());
    Sim.Engine.schedule ~after:(Sim.Time.us 1) engine (note "timer");
    Sim.Engine.run engine;
    List.rev !order
  in
  Alcotest.(check (list string))
    "identical event order" (trace false) (trace true)

(* ---------------- Deadlock reporting ---------------- *)

let engine_deadlock_names_waiters () =
  let engine = Sim.Engine.create () in
  Sim.Proc.spawn ~name:"stuck" engine (fun () ->
      ignore
        (Sim.Proc.suspend_on ~resource:"ivar \"never\""
           (fun (_ : int -> unit) -> ())));
  Sim.Proc.spawn ~name:"server" engine (fun () ->
      ignore
        (Sim.Proc.suspend_on ~daemon:true ~resource:"request queue"
           (fun (_ : int -> unit) -> ())));
  match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock (_, blocked) ->
      check_int "one non-daemon waiter" 1 (List.length blocked);
      let b = List.hd blocked in
      Alcotest.(check string) "process named" "stuck" b.Sim.Engine.process;
      Alcotest.(check string)
        "resource named" "ivar \"never\"" b.Sim.Engine.resource;
      let report = Sim.Engine.deadlock_report blocked in
      let contains needle =
        let n = String.length needle and h = String.length report in
        let rec scan i =
          i + n <= h && (String.sub report i n = needle || scan (i + 1))
        in
        scan 0
      in
      check_bool "report names the process" true (contains "stuck");
      check_bool "report names the resource" true (contains "ivar \"never\"")

let engine_daemons_never_deadlock () =
  let engine = Sim.Engine.create () in
  Sim.Proc.spawn ~name:"rx-loop" engine (fun () ->
      ignore
        (Sim.Proc.suspend_on ~daemon:true ~resource:"nic"
           (fun (_ : int -> unit) -> ())));
  Sim.Engine.run engine;
  check_int "daemon listed only on request" 0
    (List.length (Sim.Engine.blocked engine));
  check_int "with daemons included" 1
    (List.length (Sim.Engine.blocked ~daemons:true engine))

(* Waiter descriptions are formatted lazily from (kind, name); they must
   read exactly as the eagerly formatted [kind "name"] strings did, in
   both [Engine.blocked] and the [Deadlock] report. *)
let engine_blocked_descriptions () =
  let d = Rig.duo () in
  let engine = d.Rig.engine in
  let mailbox = Sim.Mailbox.create ~name:"in\"box" () in
  let ivar = Sim.Ivar.create ~name:"done" () in
  let resource = Sim.Resource.create ~name:"port\t0" () in
  let fd = Rmem.Notification.create ~name:"seg fd" d.Rig.node1 in
  Sim.Proc.spawn ~name:"holder" engine (fun () ->
      Sim.Resource.acquire resource;
      ignore (Sim.Ivar.read (Sim.Ivar.create ~name:"forever" ())));
  Sim.Proc.spawn ~name:"m" engine (fun () -> ignore (Sim.Mailbox.recv mailbox));
  Sim.Proc.spawn ~name:"i" engine (fun () -> ignore (Sim.Ivar.read ivar : int));
  Sim.Proc.spawn ~name:"r" engine (fun () -> Sim.Resource.acquire resource);
  Sim.Proc.spawn ~name:"n" engine (fun () ->
      ignore (Rmem.Notification.wait fd));
  let expected =
    [
      ("holder", {|ivar "forever"|});
      ("m", {|mailbox "in\"box"|});
      ("i", {|ivar "done"|});
      ("r", {|resource "port\t0"|});
      ("n", {|notification "seg fd"|});
    ]
  in
  let described blocked =
    List.map
      (fun b -> (b.Sim.Engine.process, b.Sim.Engine.resource))
      blocked
  in
  match Sim.Engine.run engine with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock (_, blocked) ->
      Alcotest.(check (list (pair string string)))
        "deadlock payload" expected (described blocked);
      Alcotest.(check (list (pair string string)))
        "Engine.blocked" expected
        (described (Sim.Engine.blocked engine));
      Alcotest.(check string)
        "deadlock report"
        ("deadlock: holder blocked on ivar \"forever\" since 0ns; "
       ^ "m blocked on mailbox \"in\\\"box\" since 0ns; "
       ^ "i blocked on ivar \"done\" since 0ns; "
       ^ "r blocked on resource \"port\\t0\" since 0ns; "
       ^ "n blocked on notification \"seg fd\" since 0ns")
        (Sim.Engine.deadlock_report blocked)

(* Waiter tokens survive slot reuse: a stale token (its waiter long
   cleared, its slot handed to a newer waiter) clears nothing, and
   [blocked] lists waiters by registration order, not by slot. *)
let engine_stale_waiter_token () =
  let engine = Sim.Engine.create () in
  let register process =
    Sim.Engine.register_blocked engine ~process ~resource:process ~daemon:false ()
  in
  let listed () =
    List.map (fun b -> b.Sim.Engine.process) (Sim.Engine.blocked engine)
  in
  let x = register "x" in
  let _y = register "y" in
  Sim.Engine.clear_blocked engine x;
  let _z = register "z" in
  Alcotest.(check (list string)) "registration order" [ "y"; "z" ] (listed ());
  Sim.Engine.clear_blocked engine x;
  Sim.Engine.clear_blocked engine x;
  Alcotest.(check (list string)) "stale token clears nothing" [ "y"; "z" ] (listed ());
  let w = register "w" in
  Sim.Engine.clear_blocked engine w;
  Sim.Engine.clear_blocked engine x;
  Alcotest.(check (list string)) "still two" [ "y"; "z" ] (listed ())

(* A scheduler installed by an event in the middle of [run] decides the
   very next same-instant choice: the loop reads it per event. *)
let engine_scheduler_installed_mid_run () =
  let engine = Sim.Engine.create () in
  let order = ref [] in
  let note tag () = order := tag :: !order in
  Sim.Engine.schedule ~after:(Sim.Time.us 1) engine (fun () ->
      note "install" ();
      Sim.Engine.set_scheduler engine
        (Some (fun c -> List.nth c.Sim.Engine.enabled (List.length c.Sim.Engine.enabled - 1))));
  List.iter
    (fun tag -> Sim.Engine.schedule ~after:(Sim.Time.us 1) engine (note tag))
    [ "a"; "b"; "c" ];
  Sim.Engine.run engine;
  Alcotest.(check (list string))
    "reversed from the next choice on" [ "install"; "c"; "b"; "a" ]
    (List.rev !order)

(* Blocking allocates a bounded amount: 1,000 block/resume cycles
   through a [Mailbox] (a receiver blocks, a sender waits 1 ns and
   sends) after warm-up.  Measured at 58,080 minor words once the
   mailbox built its reader-parking closure once instead of per
   [recv] (62,080 before; 78,061 with the [Info] round trip before the
   [Suspend]); the bound sits 5% above.  Tighten it, never loosen it.
   The twin of "engine fires events without allocating". *)
let mailbox_cycle_bound = 61_000

let mailbox_block_resume_allocation () =
  let engine = Sim.Engine.create () in
  let mailbox = Sim.Mailbox.create ~name:"pin" () in
  let cycles n =
    Sim.Proc.spawn ~name:"receiver" engine (fun () ->
        for _ = 1 to n do
          ignore (Sim.Mailbox.recv mailbox : int)
        done);
    Sim.Proc.spawn ~name:"sender" engine (fun () ->
        for i = 1 to n do
          Sim.Proc.wait (Sim.Time.ns 1);
          Sim.Mailbox.send mailbox i
        done);
    Sim.Engine.run engine
  in
  cycles 1_000;
  let before = Gc.minor_words () in
  cycles 1_000;
  let words = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "%.0f minor words for 1,000 cycles (bound %d)" words
       mailbox_cycle_bound)
    true
    (words <= float_of_int mailbox_cycle_bound)

(* ---------------- Proc ---------------- *)

let proc_wait_accumulates () =
  let engine = Sim.Engine.create () in
  let result =
    Sim.Proc.run engine (fun () ->
        Sim.Proc.wait (Sim.Time.us 10);
        Sim.Proc.wait (Sim.Time.us 5);
        Sim.Engine.now engine)
  in
  check_int "waited 15us" (Sim.Time.us 15) result

let proc_suspend_resume () =
  let engine = Sim.Engine.create () in
  let resumer = ref None in
  Sim.Proc.spawn engine (fun () ->
      Sim.Proc.wait (Sim.Time.us 3);
      match !resumer with Some resume -> resume 42 | None -> ());
  let result =
    Sim.Proc.run engine (fun () ->
        Sim.Proc.suspend (fun resume -> resumer := Some resume))
  in
  check_int "resumed with value" 42 result

let proc_run_deadlock () =
  let engine = Sim.Engine.create () in
  check_bool "deadlock raised" true
    (try
       ignore
         (Sim.Proc.run engine (fun () ->
              Sim.Proc.suspend (fun (_ : int -> unit) -> ())));
       false
     with Sim.Engine.Deadlock _ -> true)

let proc_exception_propagates () =
  let engine = Sim.Engine.create () in
  check_bool "exception surfaced" true
    (try
       let () = Sim.Proc.run engine (fun () -> failwith "boom") in
       false
     with Failure msg -> String.equal msg "boom")

(* ---------------- Ivar ---------------- *)

let ivar_basics () =
  let engine = Sim.Engine.create () in
  let ivar = Sim.Ivar.create () in
  check_bool "empty" false (Sim.Ivar.is_full ivar);
  Sim.Proc.spawn engine (fun () ->
      Sim.Proc.wait (Sim.Time.us 2);
      Sim.Ivar.fill ivar "done");
  let value = Sim.Proc.run engine (fun () -> Sim.Ivar.read ivar) in
  Alcotest.(check string) "value" "done" value;
  check_bool "double fill rejected" true
    (not (Sim.Ivar.try_fill ivar "again"));
  Alcotest.check_raises "fill raises" (Invalid_argument "Ivar.fill: already full")
    (fun () -> Sim.Ivar.fill ivar "boom")

let ivar_multiple_readers () =
  let engine = Sim.Engine.create () in
  let ivar = Sim.Ivar.create () in
  let seen = ref [] in
  for i = 1 to 3 do
    Sim.Proc.spawn engine (fun () ->
        let v = Sim.Ivar.read ivar in
        seen := (i, v) :: !seen)
  done;
  Sim.Proc.spawn engine (fun () ->
      Sim.Proc.wait (Sim.Time.us 1);
      Sim.Ivar.fill ivar 7);
  Sim.Engine.run engine;
  Alcotest.(check (list (pair int int)))
    "all woken in blocking order"
    [ (1, 7); (2, 7); (3, 7) ]
    (List.rev !seen)

(* ---------------- Mailbox ---------------- *)

let mailbox_fifo () =
  let engine = Sim.Engine.create () in
  let mailbox = Sim.Mailbox.create () in
  let received = ref [] in
  Sim.Proc.spawn engine (fun () ->
      for _ = 1 to 3 do
        received := Sim.Mailbox.recv mailbox :: !received
      done);
  Sim.Proc.spawn engine (fun () ->
      Sim.Mailbox.send mailbox 1;
      Sim.Proc.wait (Sim.Time.us 1);
      Sim.Mailbox.send mailbox 2;
      Sim.Mailbox.send mailbox 3);
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !received)

let mailbox_try_recv () =
  let mailbox = Sim.Mailbox.create () in
  Alcotest.(check (option int)) "empty" None (Sim.Mailbox.try_recv mailbox);
  Sim.Mailbox.send mailbox 9;
  Alcotest.(check (option int)) "one" (Some 9) (Sim.Mailbox.try_recv mailbox)

(* ---------------- Resource ---------------- *)

let resource_fifo_mutex () =
  let engine = Sim.Engine.create () in
  let resource = Sim.Resource.create () in
  let order = ref [] in
  for i = 1 to 3 do
    Sim.Proc.spawn engine (fun () ->
        Sim.Resource.with_resource resource (fun () ->
            order := i :: !order;
            Sim.Proc.wait (Sim.Time.us 10)))
  done;
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "served in arrival order" [ 1; 2; 3 ]
    (List.rev !order);
  check_int "contended twice" 2 (Sim.Resource.contended resource);
  check_int "three acquisitions" 3 (Sim.Resource.acquisitions resource);
  check_int "holds serialized: 30us total" (Sim.Time.us 30)
    (Sim.Engine.now engine)

let resource_release_unheld () =
  let resource = Sim.Resource.create () in
  Alcotest.check_raises "release unheld"
    (Invalid_argument "Resource.release: not held") (fun () ->
      Sim.Resource.release resource)

(* ---------------- Prng ---------------- *)

let prng_deterministic () =
  let a = Sim.Prng.create 42 and b = Sim.Prng.create 42 in
  let sequence p = List.init 32 (fun _ -> Sim.Prng.int p 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (sequence a) (sequence b)

let prng_split_independent () =
  let parent = Sim.Prng.create 1 in
  let child = Sim.Prng.split parent in
  let child_draws = List.init 8 (fun _ -> Sim.Prng.int child 1000) in
  let parent_draws = List.init 8 (fun _ -> Sim.Prng.int parent 1000) in
  check_bool "streams differ" true (child_draws <> parent_draws)

let prng_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:500
    QCheck.(pair (int_bound 1000) small_int)
    (fun (bound, seed) ->
      let bound = bound + 1 in
      let prng = Sim.Prng.create seed in
      let v = Sim.Prng.int prng bound in
      v >= 0 && v < bound)

let prng_float_range =
  QCheck.Test.make ~name:"prng float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let prng = Sim.Prng.create seed in
      let f = Sim.Prng.float prng in
      f >= 0. && f < 1.)

let mailbox_readers_fifo () =
  let engine = Sim.Engine.create () in
  let mailbox = Sim.Mailbox.create () in
  let woken = ref [] in
  for i = 1 to 3 do
    Sim.Proc.spawn engine (fun () ->
        let v = Sim.Mailbox.recv mailbox in
        woken := (i, v) :: !woken)
  done;
  Sim.Proc.spawn engine (fun () ->
      Sim.Proc.wait (Sim.Time.us 1);
      List.iter (Sim.Mailbox.send mailbox) [ 10; 20; 30 ]);
  Sim.Engine.run engine;
  Alcotest.(check (list (pair int int)))
    "blocked readers served in order"
    [ (1, 10); (2, 20); (3, 30) ]
    (List.rev !woken)

let resource_exception_safe () =
  let engine = Sim.Engine.create () in
  let resource = Sim.Resource.create () in
  let second_ran = ref false in
  Sim.Proc.spawn engine (fun () ->
      try Sim.Resource.with_resource resource (fun () -> failwith "inside")
      with Failure _ -> ());
  Sim.Proc.spawn engine (fun () ->
      Sim.Resource.with_resource resource (fun () -> second_ran := true));
  Sim.Engine.run engine;
  check_bool "released despite the exception" true !second_ran;
  check_bool "free at the end" false (Sim.Resource.is_busy resource)

let engine_pending_counts () =
  let engine = Sim.Engine.create () in
  Sim.Engine.schedule engine (fun () -> ());
  Sim.Engine.schedule ~after:(Sim.Time.us 1) engine (fun () -> ());
  check_int "two pending" 2 (Sim.Engine.pending engine);
  ignore (Sim.Engine.step engine : bool);
  check_int "one left" 1 (Sim.Engine.pending engine)

let suite =
  [
    Alcotest.test_case "time conversions" `Quick time_conversions;
    Alcotest.test_case "mailbox readers FIFO" `Quick mailbox_readers_fifo;
    Alcotest.test_case "resource exception safety" `Quick resource_exception_safe;
    Alcotest.test_case "engine pending counts" `Quick engine_pending_counts;
    Alcotest.test_case "time pretty printing" `Quick time_pp;
    Alcotest.test_case "same-time events are FIFO" `Quick engine_fifo_same_time;
    Alcotest.test_case "time advances in order" `Quick engine_time_advances;
    Alcotest.test_case "run ~until honors limit" `Quick engine_until_limit;
    Alcotest.test_case "no events in the past" `Quick engine_no_past_events;
    Alcotest.test_case "stop halts the loop" `Quick engine_stop;
    Alcotest.test_case "proc wait accumulates" `Quick proc_wait_accumulates;
    Alcotest.test_case "proc suspend/resume" `Quick proc_suspend_resume;
    Alcotest.test_case "proc deadlock detected" `Quick proc_run_deadlock;
    Alcotest.test_case "proc exception propagates" `Quick proc_exception_propagates;
    Alcotest.test_case "ivar fill/read/double-fill" `Quick ivar_basics;
    Alcotest.test_case "ivar wakes all readers" `Quick ivar_multiple_readers;
    Alcotest.test_case "mailbox is FIFO" `Quick mailbox_fifo;
    Alcotest.test_case "mailbox try_recv" `Quick mailbox_try_recv;
    Alcotest.test_case "resource FIFO mutex" `Quick resource_fifo_mutex;
    Alcotest.test_case "resource release unheld" `Quick resource_release_unheld;
    Alcotest.test_case "prng determinism" `Quick prng_deterministic;
    Alcotest.test_case "prng split independence" `Quick prng_split_independent;
    Alcotest.test_case "heap entries_at_min and remove" `Quick
      heap_entries_at_min_and_remove;
    Alcotest.test_case "engine choice points" `Quick engine_choice_points;
    Alcotest.test_case "step_seq validates enabledness" `Quick
      engine_step_seq_validates;
    Alcotest.test_case "explicit FIFO scheduler is the default" `Quick
      explicit_fifo_scheduler_is_default;
    Alcotest.test_case "deadlock names blocked waiters" `Quick
      engine_deadlock_names_waiters;
    Alcotest.test_case "daemon waiters never deadlock" `Quick
      engine_daemons_never_deadlock;
    Alcotest.test_case "blocked descriptions are kind \"name\"" `Quick
      engine_blocked_descriptions;
    QCheck_alcotest.to_alcotest heap_pop_sorted;
    QCheck_alcotest.to_alcotest heap_same_time_seq_order;
    QCheck_alcotest.to_alcotest prng_bounds;
    QCheck_alcotest.to_alcotest prng_float_range;
    QCheck_alcotest.to_alcotest heap_matches_model;
    Alcotest.test_case "engine fires events without allocating" `Quick
      engine_fires_without_allocating;
    Alcotest.test_case "engine fires 20,000 random events in (time, seq) order"
      `Quick engine_fires_in_time_seq_order;
    Alcotest.test_case "stale waiter token clears nothing" `Quick
      engine_stale_waiter_token;
    Alcotest.test_case "scheduler installed mid-run decides the next choice"
      `Quick engine_scheduler_installed_mid_run;
    Alcotest.test_case "mailbox block/resume allocation" `Quick
      mailbox_block_resume_allocation;
  ]
