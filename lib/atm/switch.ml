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
   whole simulation. *)

type t = {
  engine : Sim.Engine.t;
  config : Config.t;
  name : string;
  downlinks : (int, Link.t) Hashtbl.t;
  uplinks : (int, Link.t) Hashtbl.t;
  routes : (int, Link.t) Hashtbl.t;
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
    downlinks = Hashtbl.create 8;
    uplinks = Hashtbl.create 8;
    routes = Hashtbl.create 8;
    trunks = [];
    outputs = [||];
    frames_switched = 0;
    drops = 0;
  }

let name t = t.name
let add_output t link = t.outputs <- Array.append t.outputs [| link |]

let attach_port t nic =
  let addr = Nic.addr nic in
  let down =
    Link.create
      ~name:(Printf.sprintf "down:%s" (Addr.to_string addr))
      t.engine t.config
      ~deliver:(fun frame -> Nic.deliver nic frame)
  in
  Hashtbl.replace t.downlinks (Addr.to_int addr) down;
  add_output t down

let forward t frame =
  let dst = Addr.to_int (Frame.dst frame) in
  let out =
    match Hashtbl.find_opt t.downlinks dst with
    | Some _ as hit -> hit
    | None -> Hashtbl.find_opt t.routes dst
  in
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
  Hashtbl.replace t.uplinks (Addr.to_int nic_addr) up;
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

let add_route t ~dst link = Hashtbl.replace t.routes dst link

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
  let by_port (a, _) (b, _) = compare (a : int) b in
  let sorted table =
    Hashtbl.fold (fun i l acc -> (i, l) :: acc) table [] |> List.sort by_port
  in
  let ups = sorted t.uplinks |> List.map (fun (i, l) -> (Some i, None, l)) in
  let downs =
    sorted t.downlinks |> List.map (fun (j, l) -> (None, Some j, l))
  in
  let trunks = List.rev_map (fun l -> (None, None, l)) t.trunks in
  ups @ downs @ trunks
