(* An output-queued ATM switch.

   Each attached host port has an uplink (node to switch) and a downlink
   (switch to node).  A frame arriving on any input is forwarded to the
   destination's downlink — or, in a multi-switch fabric, onto the trunk
   the switch's route table names for that destination — after a fixed
   switching latency; contention appears as queueing on the shared
   output link.

   A frame addressed to a destination that was never attached and has no
   route (or whose node has been cut out of the fabric) is dropped and
   counted, not fatal: a crashed or partitioned peer must not abort the
   whole simulation.

   Tables are arrays indexed by host address.  [out] is the resolved
   forwarding table — the downlink when the destination is attached
   here, else its route — so forwarding a frame is one array load.
   [down] remembers which destinations are attached, so a route added
   later never displaces a downlink. *)

type t = {
  engine : Sim.Engine.t;
  config : Config.t;
  name : string;
  mutable down : Link.t option array; (* attached downlinks *)
  mutable up : Link.t option array; (* attached uplinks *)
  mutable out : Link.t option array; (* downlink, else route *)
  (* outgoing inter-switch trunks, in creation order (kept reversed) *)
  mutable trunks : Link.t list;
  mutable outputs : Link.t array;
  (* every link this switch drives, host downlinks and trunks alike: what
     [queue_depth] sums without walking the tables *)
  mutable frames_switched : int;
  mutable drops : int;
}

let create ?(name = "switch") engine config =
  {
    engine;
    config;
    name;
    down = [||];
    up = [||];
    out = [||];
    trunks = [];
    outputs = [||];
    frames_switched = 0;
    drops = 0;
  }

let name t = t.name
let add_output t link = t.outputs <- Array.append t.outputs [| link |]

(* [table] with [link] at [index], grown (doubling) with [None]s as
   needed. *)
let set table index link =
  let table =
    if index < Array.length table then table
    else begin
      let size = Int.max (index + 1) (2 * Array.length table) in
      let grown = Array.make size None in
      Array.blit table 0 grown 0 (Array.length table);
      grown
    end
  in
  table.(index) <- Some link;
  table

let attach_port t nic =
  let addr = Nic.addr nic in
  let down =
    Link.create
      ~name:(Printf.sprintf "down:%s" (Addr.to_string addr))
      t.engine t.config
      ~deliver:(fun frame -> Nic.deliver nic frame)
  in
  t.down <- set t.down (Addr.to_int addr) down;
  t.out <- set t.out (Addr.to_int addr) down;
  add_output t down

let forward t frame =
  let dst = Addr.to_int (Frame.dst frame) in
  let out = if dst >= 0 && dst < Array.length t.out then t.out.(dst) else None in
  match out with
  | None -> t.drops <- t.drops + 1
  | Some link ->
      t.frames_switched <- t.frames_switched + 1;
      let now = Sim.Engine.now t.engine in
      Obs.Trace.link_hop (Frame.ctx frame) ~name:t.name ~start:now
        ~finish:(Sim.Time.add now t.config.Config.switch_latency);
      Sim.Engine.schedule_after t.engine t.config.Config.switch_latency
        (fun () -> Link.send link frame)

let uplink_for t nic_addr =
  let up =
    Link.create
      ~name:(Printf.sprintf "up:%s" (Addr.to_string nic_addr))
      t.engine t.config
      ~deliver:(fun frame -> forward t frame)
  in
  t.up <- set t.up (Addr.to_int nic_addr) up;
  up

let trunk_to t peer =
  let link =
    Link.create
      ~name:(Printf.sprintf "trunk:%s->%s" t.name peer.name)
      t.engine t.config
      ~deliver:(fun frame -> forward peer frame)
  in
  t.trunks <- link :: t.trunks;
  add_output t link;
  link

let attached table i = i < Array.length table && Option.is_some table.(i)

let add_route t ~dst link =
  if dst < 0 then invalid_arg "Switch.add_route: negative destination";
  if not (attached t.down dst) then t.out <- set t.out dst link

let frames_switched t = t.frames_switched
let drops t = t.drops

(* Instantaneous backlog across every output this switch drives — host
   downlinks and outgoing trunks: where output-queued contention shows
   up, and what the telemetry sampler gauges. *)
let queue_depth t =
  let depth = ref 0 in
  for i = 0 to Array.length t.outputs - 1 do
    depth := !depth + Link.queue_depth t.outputs.(i)
  done;
  !depth

(* Fabric edges in deterministic (port-sorted, then trunk-creation)
   order, for the fault plane: uplink i -> switch is [(Some i, None)],
   downlink switch -> j is [(None, Some j)], an inter-switch trunk is
   [(None, None)]. *)
let links t =
  let by_port table edge =
    Array.to_list table
    |> List.mapi (fun i l -> Option.map (edge i) l)
    |> List.filter_map Fun.id
  in
  let ups = by_port t.up (fun i l -> (Some i, None, l)) in
  let downs = by_port t.down (fun j l -> (None, Some j, l)) in
  let trunks = List.rev_map (fun l -> (None, None, l)) t.trunks in
  ups @ downs @ trunks
