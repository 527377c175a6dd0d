(* Layer counters read through the libraries' public accessors, sampled
   at both edges of the measurement window.  Nothing here touches
   simulation state. *)

let categories =
  [
    ("data_reception", Cluster.Cpu.cat_data_reception);
    ("data_reply", Cluster.Cpu.cat_data_reply);
    ("control_transfer", Cluster.Cpu.cat_control_transfer);
    ("procedure", Cluster.Cpu.cat_procedure);
    ("emulation", Cluster.Cpu.cat_emulation);
    ("client", Cluster.Cpu.cat_client);
    ("other", Cluster.Cpu.cat_other);
  ]

type snap = {
  events : int;
  cells : int;  (** cells injected by every NIC *)
  wire_bytes : int;  (** bytes over every link traversal *)
  link_busy : Sim.Time.t array;
  drops : int;
  server_busy : Sim.Time.t array;
  server_cpu : float array;  (** us per category, summed over servers *)
  client_cpu : float array;
  rmem : (string * float) list;
  extra : (string * float) list;
}

let links (p : Harness.prepared) =
  List.map (fun (_, _, l) -> l) (Atm.Network.links (Cluster.Testbed.network p.testbed))

(* Per-category CPU (us) over [nodes]; categories outside the canonical
   seven (per-library labels such as "dfs clerk") count as "other". *)
let cpu_by_category nodes =
  let out = Array.make (List.length categories) 0. in
  let other = List.length categories - 1 in
  List.iter
    (fun node ->
      List.iter
        (fun (cat, us) ->
          let rec slot i = function
            | [] -> other
            | (_, c) :: rest -> if String.equal c cat then i else slot (i + 1) rest
          in
          let i = slot 0 categories in
          out.(i) <- out.(i) +. us)
        (Metrics.Account.to_list (Cluster.Cpu.account (Cluster.Node.cpu node))))
    nodes;
  out

let snapshot (p : Harness.prepared) =
  let rmems = p.rmems in
  let net = Cluster.Testbed.network p.testbed in
  let nodes = Cluster.Testbed.nodes p.testbed in
  let ls = links p in
  let nics = List.map Cluster.Node.nic nodes in
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let ops cat =
    List.fold_left
      (fun a r -> a +. Metrics.Account.total_of (Rmem.Remote_memory.ops r) cat)
      0. rmems
  in
  let notifications =
    List.fold_left
      (fun a r ->
        List.fold_left
          (fun a s -> a + Rmem.Notification.posted (Rmem.Segment.notification s))
          (a + Rmem.Notification.posted (Rmem.Remote_memory.completion_fd r))
          (Rmem.Remote_memory.exports r))
      0 rmems
  in
  {
    events = Sim.Engine.events_fired (Cluster.Testbed.engine p.testbed);
    cells = sum Atm.Nic.cells_tx nics;
    wire_bytes = sum Atm.Link.wire_bytes ls;
    link_busy = Array.of_list (List.map Atm.Link.busy_time ls);
    drops =
      sum Atm.Switch.drops (Atm.Network.switches net)
      + sum (fun l -> Atm.Link.drops l + Atm.Link.overflow_drops l) ls
      + sum (fun n -> Atm.Nic.crc_errors n + Atm.Nic.route_drops n) nics;
    server_busy =
      Array.of_list
        (List.map (fun n -> Cluster.Cpu.busy_time (Cluster.Node.cpu n)) p.servers);
    server_cpu = cpu_by_category p.servers;
    client_cpu = cpu_by_category p.clients;
    rmem =
      [
        ("reads", ops "read");
        ("writes", ops "write");
        ("bursts", ops "write burst");
        ("cas", ops "cas");
        ("notifications", float_of_int notifications);
        ( "errors",
          List.fold_left
            (fun a r -> a +. Metrics.Account.grand_total (Rmem.Remote_memory.errors r))
            0. rmems );
      ];
    extra = p.counters ();
  }

let assoc l k = Option.value ~default:0. (List.assoc_opt k l)
