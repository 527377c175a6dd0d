(* The pipelined issue engine: decoupling *when* a meta-instruction is
   issued from *when* its effects must be visible.

   The synchronous paths in {!Remote_memory} pay the paper's Table-2
   costs per operation: one trap and one per-cell FIFO setup per WRITE
   frame, one blocked process per READ round trip.  Once data transfer
   carries no implicit control transfer, none of that serialization is
   semantically required — only [flush]/[fence] points are.  So this
   engine

   - stages WRITEs per (remote node, segment, generation) and sends each
     staging buffer as ONE scatter-gather burst frame
     ({!Remote_memory.write_burst}): one trap, one descriptor check, one
     FIFO setup per burst group, 48 payload bytes per cell;
   - keeps up to [window] READ/CAS meta-instructions in flight per
     (node, segment) instead of one, stalling only when the window
     fills;
   - coalesces notify bits so a flush raises at most one notification
     per segment (the destination segment's policy still decides);
   - preserves the synchronous path's ordering guarantees at [flush] /
     [fence]: links are FIFO, so once the burst is on the wire a fence
     round trip behind it proves deposit, exactly as for eager writes.

   Reads forward from the staging buffer discipline: a READ overlapping
   staged bytes flushes them first, so a process always observes its own
   program-order writes.  With [enabled = false] every operation
   passes straight through to {!Remote_memory} — bit-identical to not
   having the engine at all, which the differential suite checks. *)

type config = {
  enabled : bool;
  window : int;
  max_batch_bytes : int;
  max_batch_ops : int;
  coalesce_notify : bool;
}

let default_config =
  {
    enabled = false;
    window = 8;
    max_batch_bytes = 32768;
    max_batch_ops = 64;
    coalesce_notify = true;
  }

let pipelined_config ?(window = 8) ?(max_batch_bytes = 32768)
    ?(max_batch_ops = 64) ?(coalesce_notify = true) () =
  if window < 1 then invalid_arg "Pipeline: window < 1";
  if max_batch_bytes < 1 || max_batch_ops < 1 then
    invalid_arg "Pipeline: empty batch bound";
  { enabled = true; window; max_batch_bytes; max_batch_ops; coalesce_notify }

type stats = {
  mutable staged_writes : int;
  mutable merged_extents : int;
  mutable flushes : int;
  mutable coalesced_notifies : int;
  mutable window_stalls : int;
  mutable passthrough_ops : int;
}

(* One staged extent: the [len] bytes for remote offset [off], held in
   [data] from index 0.  A write that touches no other extent is held
   by reference ([owned = false]): its bytes are read when the burst is
   encoded, as they would be on the synchronous path.  A merge copies
   what it touches into a buffer the engine owns, which may have spare
   capacity past [len]. *)
type extent = { off : int; len : int; data : bytes; owned : bool }

(* One staging buffer: the WRITEs absorbed since the last flush toward
   one (remote, segment, generation), kept as a sorted list of merged,
   non-overlapping extents — exactly the scatter-gather list the burst
   frame will carry. *)
type staged = {
  desc : Descriptor.t;
  swab : bool;
  mutable extents : extent list;
  mutable bytes : int;
  mutable ops : int;
  mutable notify : bool;
  mutable notify_requests : int;
}

(* One windowed operation in flight; [await] raises on failure. *)
type inflight = { ready : unit -> bool; await : unit -> unit }

module Tbl = Descriptor.Target_tbl

type key = Tbl.key (* remote node, segment id, generation *)

type t = {
  rmem : Remote_memory.t;
  cfg : config;
  staged : staged Tbl.t;
  windows : inflight Queue.t Tbl.t;
  batches : int Tbl.t;
  (* the current window cycle's batch tag per key: a fresh batch opens
     whenever a submit finds its window empty, so every issue sharing a
     window cycle carries the same batch id in its Issued event *)
  stats : stats;
  mutable registry : Obs.Registry.t option;
}

let create ?(config = default_config) rmem =
  {
    rmem;
    cfg = config;
    staged = Tbl.create 8;
    windows = Tbl.create 8;
    batches = Tbl.create 8;
    stats =
      {
        staged_writes = 0;
        merged_extents = 0;
        flushes = 0;
        coalesced_notifies = 0;
        window_stalls = 0;
        passthrough_ops = 0;
      };
    registry = None;
  }

let config t = t.cfg
let rmem t = t.rmem
let set_registry t registry = t.registry <- registry

let stats t =
  {
    staged_writes = t.stats.staged_writes;
    merged_extents = t.stats.merged_extents;
    flushes = t.stats.flushes;
    coalesced_notifies = t.stats.coalesced_notifies;
    window_stalls = t.stats.window_stalls;
    passthrough_ops = t.stats.passthrough_ops;
  }

(* Instantaneous occupancy, for the telemetry sampler (and, later, an
   adaptive controller): how full the engine is right now, as opposed to
   the cumulative [stats]. *)
let window_occupancy t =
  Tbl.fold (fun _ q acc -> acc + Queue.length q) t.windows 0

let staged_extents t =
  Tbl.fold (fun _ s acc -> acc + List.length s.extents) t.staged 0

let staged_bytes t = Tbl.fold (fun _ s acc -> acc + s.bytes) t.staged 0

let reg_incr t name =
  match t.registry with
  | None -> ()
  | Some registry -> Obs.Registry.incr registry name

let nid t =
  Atm.Addr.to_int (Cluster.Node.addr (Remote_memory.node t.rmem))

let key_of desc : key = Descriptor.target desc

(* Insert one write into a sorted extent list, merging every extent it
   overlaps or abuts.  The new data is blitted last: within one staging
   buffer the last writer wins, as it would have on the wire.

   A merge allocates twice the room it needs.  A later merge whose
   first touched extent is such an engine-owned buffer, starting where
   the merged extent starts, reuses that buffer while it has room, and
   otherwise replaces it with one of at least twice its capacity.
   So a run of contiguous appends copies each byte a bounded number of
   times, instead of re-copying the whole extent on every write; a run
   of prepends still reallocates each time.  The caller's bytes are
   copied at the same instants either way: never for a write that
   touches nothing, and at the merge for every extent a merge touches. *)
let insert_extent extents ~off data ~merged =
  let lo = off and hi = off + Bytes.length data in
  let before, rest = List.partition (fun e -> e.off + e.len < lo) extents in
  let touching, after = List.partition (fun e -> e.off <= hi) rest in
  match touching with
  | [] ->
      before @ ({ off; len = Bytes.length data; data; owned = false } :: after)
  | first :: _ ->
      merged := !merged + List.length touching;
      let new_lo = Int.min lo first.off in
      let new_hi =
        List.fold_left (fun acc e -> Int.max acc (e.off + e.len)) hi touching
      in
      let len = new_hi - new_lo in
      let buf =
        if first.owned && first.off = new_lo && Bytes.length first.data >= len
        then first.data
        else if first.owned then
          Bytes.create (Int.max len (2 * Bytes.length first.data))
        else Bytes.create (2 * len)
      in
      List.iter
        (fun e ->
          if e.data != buf then Bytes.blit e.data 0 buf (e.off - new_lo) e.len)
        touching;
      Bytes.blit data 0 buf (lo - new_lo) (Bytes.length data);
      before @ ({ off = new_lo; len; data = buf; owned = true } :: after)

(* The burst's scatter-gather list: each extent's bytes, an owned
   buffer trimmed to its length once, here. *)
let burst_items extents =
  List.map
    (fun e ->
      let data =
        if Bytes.length e.data = e.len then e.data else Bytes.sub e.data 0 e.len
      in
      (e.off, data))
    extents

let staged_overlaps s ~soff ~count =
  List.exists (fun e -> e.off < soff + count && soff < e.off + e.len) s.extents

(* Send one staging buffer as a single burst frame (under [policy] with
   read-back verification when given). *)
let flush_key ?policy t key =
  match Tbl.find_opt t.staged key with
  | None -> ()
  | Some s ->
      Tbl.remove t.staged key;
      if s.extents <> [] then begin
        let scope =
          Obs.Trace.scope_begin ~node:(nid t) ~name:"pipeline:flush"
        in
        Fun.protect
          ~finally:(fun () -> Obs.Trace.scope_end scope)
          (fun () ->
            let items = burst_items s.extents in
            match policy with
            | None ->
                Remote_memory.write_burst t.rmem s.desc ~notify:s.notify
                  ~swab:s.swab items
            | Some policy ->
                Remote_memory.write_burst_with t.rmem ~policy s.desc
                  ~notify:s.notify ~swab:s.swab items);
        t.stats.flushes <- t.stats.flushes + 1;
        reg_incr t "pipeline.flushes";
        if s.notify_requests > 1 then begin
          t.stats.coalesced_notifies <-
            t.stats.coalesced_notifies + (s.notify_requests - 1);
          reg_incr t "pipeline.coalesced_notifies"
        end
      end

let flush ?policy t desc = flush_key ?policy t (key_of desc)

let flush_all ?policy t =
  let keys = Tbl.fold (fun k _ acc -> k :: acc) t.staged [] in
  List.iter (flush_key ?policy t) (List.sort compare keys)

let staged_for t desc ~swab =
  let key = key_of desc in
  match Tbl.find_opt t.staged key with
  | Some s when s.swab = swab -> s
  | Some _ ->
      (* A swab change mid-batch: the burst's swab bit covers the whole
         frame, so the previous batch goes out first. *)
      flush_key t key;
      let s =
        { desc; swab; extents = []; bytes = 0; ops = 0; notify = false;
          notify_requests = 0 }
      in
      Tbl.replace t.staged key s;
      s
  | None ->
      let s =
        { desc; swab; extents = []; bytes = 0; ops = 0; notify = false;
          notify_requests = 0 }
      in
      Tbl.replace t.staged key s;
      s

let write t desc ~off ?(notify = false) ?(swab = false) data =
  if not t.cfg.enabled then begin
    t.stats.passthrough_ops <- t.stats.passthrough_ops + 1;
    Remote_memory.write t.rmem desc ~off ~notify ~swab data
  end
  else if Bytes.length data = 0 || (notify && not t.cfg.coalesce_notify) then begin
    (* Doorbells and — when coalescing is off — notifying writes keep
       their own frame and their own notification; staged writes they
       are ordered after go out first. *)
    flush_key t (key_of desc);
    t.stats.passthrough_ops <- t.stats.passthrough_ops + 1;
    Remote_memory.write t.rmem desc ~off ~notify ~swab data
  end
  else begin
    (* Validate eagerly so a bad write fails at the same program point
       as on the synchronous path, not at some later flush. *)
    Remote_memory.check_write t.rmem desc ~off ~count:(Bytes.length data);
    let s = staged_for t desc ~swab in
    let merged = ref 0 in
    s.extents <- insert_extent s.extents ~off data ~merged;
    t.stats.merged_extents <- t.stats.merged_extents + !merged;
    s.bytes <- List.fold_left (fun acc e -> acc + e.len) 0 s.extents;
    s.ops <- s.ops + 1;
    if notify then begin
      s.notify <- true;
      s.notify_requests <- s.notify_requests + 1
    end;
    t.stats.staged_writes <- t.stats.staged_writes + 1;
    reg_incr t "pipeline.staged_writes";
    if s.bytes >= t.cfg.max_batch_bytes || s.ops >= t.cfg.max_batch_ops then
      flush_key t (key_of desc)
  end

let window_q t key =
  match Tbl.find_opt t.windows key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Tbl.replace t.windows key q;
      q

(* Retire one in-flight op, remembering the first failure instead of
   raising on the spot.  Failures must not poison the window: if a
   retirement raised mid-queue, the entries behind it would linger as
   stale state and the caller's *retry* would trip over them before it
   could issue anything fresh.  So every retirement path below empties
   what it owes first and raises the remembered failure only once the
   window is consistent again. *)
let retire fl first =
  match fl.await () with
  | () -> ()
  | exception exn -> if Option.is_none !first then first := Some exn

let clear q first =
  while not (Queue.is_empty q) do
    retire (Queue.pop q) first
  done

let reraise first = match !first with Some exn -> raise exn | None -> ()

(* Retire completed operations from the front of the window (their
   [await] cannot block but still raises on failure), then make room by
   waiting on the oldest until the window has a free slot.  On failure
   the whole window is drained before raising, so the caller retries
   from an empty window. *)
let window_admit t q =
  let first = ref None in
  while
    Option.is_none !first
    && (not (Queue.is_empty q))
    && (Queue.peek q).ready ()
  do
    retire (Queue.pop q) first
  done;
  while Option.is_none !first && Queue.length q >= t.cfg.window do
    let fl = Queue.pop q in
    if not (fl.ready ()) then begin
      t.stats.window_stalls <- t.stats.window_stalls + 1;
      reg_incr t "pipeline.window_stalls"
    end;
    retire fl first
  done;
  if Option.is_some !first then begin
    clear q first;
    reraise first
  end

(* The batch tag for the next windowed issue toward [key]: reuse the
   window cycle's tag while operations are still in flight, open a fresh
   one when the window has gone empty (each cycle of a caller's retry
   loop drains the window first, so one cycle = one batch = one logical
   attempt for the lint layer). *)
let window_batch t ~key ~q =
  if Queue.is_empty q then begin
    let b = Remote_memory.fresh_batch t.rmem in
    Tbl.replace t.batches key b;
    b
  end
  else
    match Tbl.find_opt t.batches key with
    | Some b -> b
    | None ->
        let b = Remote_memory.fresh_batch t.rmem in
        Tbl.replace t.batches key b;
        b

let read_submit ?timeout t desc ~soff ~count ~dst ~doff ?(swab = false) () =
  if not t.cfg.enabled then begin
    t.stats.passthrough_ops <- t.stats.passthrough_ops + 1;
    Remote_memory.read_wait ?timeout t.rmem desc ~soff ~count ~dst ~doff ~swab
      ()
  end
  else begin
    let key = key_of desc in
    (match Tbl.find_opt t.staged key with
    | Some s when staged_overlaps s ~soff ~count ->
        (* Store-buffer forwarding discipline: the read must observe the
           process's own earlier writes, so they go out first. *)
        flush_key t key
    | _ -> ());
    let q = window_q t key in
    window_admit t q;
    let batch = window_batch t ~key ~q in
    let ivar =
      Remote_memory.with_batch t.rmem ~batch (fun () ->
          Remote_memory.read ?timeout t.rmem desc ~soff ~count ~dst ~doff ~swab
            ())
    in
    Queue.push
      {
        ready = (fun () -> Sim.Ivar.is_full ivar);
        await = (fun () -> Status.check (Sim.Ivar.read ivar));
      }
      q
  end

let cas_submit t desc ~doff ~old_value ~new_value ?result ?notify () =
  if not t.cfg.enabled then begin
    t.stats.passthrough_ops <- t.stats.passthrough_ops + 1;
    ignore
      (Remote_memory.cas_wait t.rmem desc ~doff ~old_value ~new_value ?result
         ?notify ())
  end
  else begin
    let key = key_of desc in
    (* CAS is a synchronization point: staged writes it releases must be
       on the wire (FIFO links order them) before the CAS lands. *)
    flush_key t key;
    let q = window_q t key in
    window_admit t q;
    let batch = window_batch t ~key ~q in
    let ivar =
      Remote_memory.with_batch t.rmem ~batch (fun () ->
          Remote_memory.cas_async t.rmem desc ~doff ~old_value ~new_value
            ?result ?notify ())
    in
    Queue.push
      {
        ready = (fun () -> Sim.Ivar.is_full ivar);
        await =
          (fun () ->
            let status, _ = Sim.Ivar.read ivar in
            Status.check status);
      }
      q
  end

let cas ?timeout t desc ~doff ~old_value ~new_value ?result ?notify () =
  if t.cfg.enabled then flush_key t (key_of desc)
  else t.stats.passthrough_ops <- t.stats.passthrough_ops + 1;
  Remote_memory.cas_wait ?timeout t.rmem desc ~doff ~old_value ~new_value
    ?result ?notify ()

let drain_key t key =
  match Tbl.find_opt t.windows key with
  | None -> ()
  | Some q ->
      let first = ref None in
      clear q first;
      reraise first

let drain t =
  let keys = Tbl.fold (fun k _ acc -> k :: acc) t.windows [] in
  let first = ref None in
  List.iter
    (fun key ->
      match drain_key t key with
      | () -> ()
      | exception exn -> if Option.is_none !first then first := Some exn)
    (List.sort compare keys);
  reraise first

let fence ?timeout ?policy t desc =
  if t.cfg.enabled then begin
    flush_key ?policy t (key_of desc);
    drain_key t (key_of desc)
  end;
  match policy with
  | None -> Remote_memory.fence ?timeout t.rmem desc
  | Some policy -> Remote_memory.fence_with t.rmem ~policy desc
