(* Per-layer simulated time from the existing span tracer.

   Every remote-memory meta-instruction opens a span (category "rmem")
   whose direct children are its layer phases: "trap" and "nic" on the
   issuing CPU, one "wire" span per request frame (covering its link and
   switch hops), "serve" at the target, "reply" frames, "deliver" (reply
   processing back at the issuer) and "notify" (notification delivery).
   Phases overlap — a multi-frame WRITE has frames on the wire while the
   NIC copies the next — so each instant of an operation is attributed
   to exactly one phase: the first in [phases] order that covers it, or
   "wait" when none does.  The phase totals then sum to the operations'
   own durations, which [summarise] checks in integer nanoseconds. *)

let ops = [ "read"; "write"; "write_burst"; "cas" ]
let phases = [ "trap"; "nic"; "serve"; "deliver"; "notify"; "wire"; "reply"; "other" ]
let columns = phases @ [ "wait" ]
let nphases = List.length phases

let phase_index name =
  let rec go i = function
    | [] -> nphases - 1 (* "other" *)
    | p :: rest -> if String.equal p name then i else go (i + 1) rest
  in
  go 0 phases

type per_op = {
  mutable count : int;
  mutable root_ns : int;
  attributed : int array;  (** per column of [columns], ns *)
}

type summary = {
  per_op : (string * per_op) list;
  spans : int;
  problems : string list;
}

(* Attribute one operation's interval [lo, hi) among its children. *)
let attribute ~lo ~hi (children : Obs.Span.t list) acc =
  let kids =
    List.filter_map
      (fun (c : Obs.Span.t) ->
        let a = Sim.Time.max lo c.Obs.Span.start and b = Sim.Time.min hi c.Obs.Span.finish in
        if Sim.Time.(a < b) then Some (phase_index c.Obs.Span.name, a, b) else None)
      children
  in
  let cuts =
    List.sort_uniq Int.compare
      (lo :: hi :: List.concat_map (fun (_, a, b) -> [ a; b ]) kids)
  in
  let rec sweep = function
    | a :: (b :: _ as rest) ->
        let owner =
          List.fold_left
            (fun best (p, s, e) -> if Sim.Time.(s <= a && b <= e) && p < best then p else best)
            nphases kids
        in
        acc.(owner) <- acc.(owner) + (b - a);
        sweep rest
    | _ -> ()
  in
  sweep cuts

(* Operations issued in [lo, hi - settle] — long enough before the end
   that they have completed. *)
let summarise trace ~lo ~hi ~settle =
  let all = Obs.Trace.spans trace in
  let kids = Hashtbl.create 4096 in
  List.iter
    (fun (s : Obs.Span.t) -> if s.Obs.Span.parent <> 0 then Hashtbl.add kids s.Obs.Span.parent s)
    all;
  let table =
    List.map
      (fun op -> (op, { count = 0; root_ns = 0; attributed = Array.make (nphases + 1) 0 }))
      ops
  in
  let problems = ref [] in
  let last = Sim.Time.diff hi settle in
  List.iter
    (fun (s : Obs.Span.t) ->
      if
        String.equal s.Obs.Span.cat "rmem"
        && Sim.Time.(s.Obs.Span.start >= lo && s.Obs.Span.start <= last)
      then
        match List.assoc_opt (String.lowercase_ascii s.Obs.Span.name) table with
        | None -> ()
        | Some r ->
            r.count <- r.count + 1;
            r.root_ns <- r.root_ns + Sim.Time.diff s.Obs.Span.finish s.Obs.Span.start;
            attribute ~lo:s.Obs.Span.start ~hi:s.Obs.Span.finish
              (Hashtbl.find_all kids s.Obs.Span.id)
              r.attributed)
    all;
  List.iter
    (fun (op, r) ->
      let sum = Array.fold_left ( + ) 0 r.attributed in
      if sum <> r.root_ns then
        problems :=
          Printf.sprintf "%s: phases sum to %d ns, root spans to %d ns" op sum r.root_ns
          :: !problems)
    table;
  (match Obs.Trace.validate trace with
  | Ok () -> ()
  | Error ps -> problems := List.filteri (fun i _ -> i < 3) ps @ !problems);
  { per_op = table; spans = List.length all; problems = List.rev !problems }

(* trace.<op>.<phase>_us: mean simulated us per op in each phase. *)
let metrics s =
  List.concat_map
    (fun (op, r) ->
      List.mapi
        (fun i phase ->
          let v =
            if r.count = 0 then 0.
            else float_of_int r.attributed.(i) /. float_of_int r.count /. 1000.
          in
          (Printf.sprintf "trace.%s.%s_us" op phase, v, "us"))
        columns)
    s.per_op
