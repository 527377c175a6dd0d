(* ddsbench — the distributed data-structure campaign: DX vs RPC vs
   hybrid for the hash table, ticket queue and ABD register, swept over
   contention and op mix on a Clos fabric.

     dune exec bin/ddsbench.exe --                   # full 32-node sweep
     dune exec bin/ddsbench.exe -- --smoke           # golden-file config
     dune exec bin/ddsbench.exe -- --json            # machine-readable
     dune exec bin/ddsbench.exe -- --ci              # gates, exit 1 on breach
     dune exec bin/ddsbench.exe -- --structure queue # one structure only
     dune exec bin/ddsbench.exe -- --out BENCH_PR10.json

   Gates (--ci): every point completes its operations, and the
   contention crossover reproduces — DX beats RPC on the low-contention
   lookup-heavy leg AND RPC or hybrid beats DX on the high-contention
   mutation-heavy leg — for at least two of the three structures.  A
   sweep restricted to a single --structure therefore cannot clear the
   gate: that is the deterministic forced-miss leg of @exitcodes.
   Unknown --structure names exit 2, as do leg sizes the fabric or the
   register's writer tags cannot hold. *)

open Cmdliner

let main smoke structure spines leaves hosts_per_leaf low_clients high_clients
    low_zipf high_zipf low_mutate high_mutate ops keys slots seed json ci out =
  let structures =
    match structure with
    | None -> None
    | Some s ->
        if List.mem s Experiments.Dds_bench.structures then Some [ s ]
        else begin
          Printf.eprintf "unknown structure %S (have: %s)\n" s
            (String.concat ", " Experiments.Dds_bench.structures);
          exit 2
        end
  in
  (* --smoke runs a fixed configuration, so only a custom sweep's leg
     sizes need checking. *)
  if not smoke then begin
    let refuse fmt =
      Printf.ksprintf
        (fun msg ->
          Printf.eprintf "ddsbench: %s\n" msg;
          exit 2)
        fmt
    in
    let register =
      match structures with None -> true | Some l -> List.mem "register" l
    in
    (* Register writer ranks start at 1 and a tag packs Dds.Tag.ranks. *)
    let max_writers = Dds.Tag.ranks - 1 in
    let hosts = leaves * hosts_per_leaf in
    List.iter
      (fun (flag, n) ->
        if register && n > max_writers then
          refuse
            "--%s %d: the register takes at most %d clients per leg (its \
             tags pack %d writer ranks, numbered from 1)"
            flag n max_writers Dds.Tag.ranks;
        if 3 + n > hosts then
          refuse "--%s %d: a %d-host fabric holds at most %d clients" flag n
            hosts (hosts - 3))
      [ ("low-clients", low_clients); ("high-clients", high_clients) ]
  end;
  let result =
    if smoke then Experiments.Dds_bench.smoke ~seed ?structures ()
    else
      Experiments.Dds_bench.run ~spines ~leaves ~hosts_per_leaf ~low_clients
        ~high_clients ~low_zipf ~high_zipf ~low_mutate_pct:low_mutate
        ~high_mutate_pct:high_mutate ~ops_per_client:ops ~keys ~slots ~seed
        ?structures ()
  in
  let failures = Experiments.Dds_bench.check result in
  let text =
    if json then Experiments.Dds_bench.to_json result
    else Experiments.Dds_bench.render result
  in
  print_string text;
  (match out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Experiments.Dds_bench.to_json result);
      close_out oc;
      Printf.eprintf "ddsbench: wrote %s\n" path);
  if ci && failures <> [] then begin
    List.iter (Printf.eprintf "   GATE FAILED: %s\n") failures;
    exit 1
  end

let smoke =
  let doc = "Run the small golden-file configuration (16-node Clos)." in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let structure =
  let doc =
    "Restrict the sweep to one structure (hashtable, queue or register); \
     unknown names exit 2.  The crossover gate needs at least two \
     structures in scope, so --ci with this flag always fails the gate."
  in
  Arg.(value & opt (some string) None & info [ "structure" ] ~docv:"NAME" ~doc)

let spines =
  let doc = "Spine switches in the Clos fabric." in
  Arg.(value & opt int 2 & info [ "spines" ] ~docv:"N" ~doc)

let leaves =
  let doc = "Leaf switches in the Clos fabric." in
  Arg.(value & opt int 8 & info [ "leaves" ] ~docv:"N" ~doc)

let hosts_per_leaf =
  let doc = "Hosts per leaf (fabric size = leaves * hosts-per-leaf)." in
  Arg.(value & opt int 4 & info [ "hosts-per-leaf" ] ~docv:"N" ~doc)

let low_clients =
  let doc =
    Printf.sprintf
      "Concurrent clients on the low-contention leg; at most %d when the \
       register is in scope, else exit 2."
      (Dds.Tag.ranks - 1)
  in
  Arg.(value & opt int 2 & info [ "low-clients" ] ~docv:"N" ~doc)

let high_clients =
  let doc =
    Printf.sprintf
      "Concurrent clients on the high-contention leg; at most %d when the \
       register is in scope, else exit 2."
      (Dds.Tag.ranks - 1)
  in
  Arg.(value & opt int 12 & info [ "high-clients" ] ~docv:"N" ~doc)

let low_zipf =
  let doc = "Zipf exponent of the low leg's key mix." in
  Arg.(value & opt float 0.2 & info [ "low-zipf" ] ~docv:"S" ~doc)

let high_zipf =
  let doc = "Zipf exponent of the high leg's key mix." in
  Arg.(value & opt float 1.5 & info [ "high-zipf" ] ~docv:"S" ~doc)

let low_mutate =
  let doc = "Mutation share (percent) of the low leg's op mix." in
  Arg.(value & opt int 5 & info [ "low-mutate" ] ~docv:"PCT" ~doc)

let high_mutate =
  let doc = "Mutation share (percent) of the high leg's op mix." in
  Arg.(value & opt int 80 & info [ "high-mutate" ] ~docv:"PCT" ~doc)

let ops =
  let doc = "Operations per client per point." in
  Arg.(value & opt int 24 & info [ "ops" ] ~docv:"N" ~doc)

let keys =
  let doc = "Distinct hash-table keys in the Zipf mix." in
  Arg.(value & opt int 8 & info [ "keys" ] ~docv:"N" ~doc)

let slots =
  let doc = "Hash-table slots (power of two)." in
  Arg.(value & opt int 16 & info [ "slots" ] ~docv:"N" ~doc)

let seed =
  let doc = "PRNG seed for the key mix and think times." in
  Arg.(value & opt int 10 & info [ "seed" ] ~docv:"N" ~doc)

let json =
  let doc = "Emit the schema-versioned JSON report on stdout." in
  Arg.(value & flag & info [ "json" ] ~doc)

let ci =
  let doc = "Fail (exit 1) when the crossover or a sanity gate breaks." in
  Arg.(value & flag & info [ "ci" ] ~doc)

let out =
  let doc = "Also write the JSON report to $(docv)." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"PATH" ~doc)

let cmd =
  let doc = "distributed data-structure campaign: DX vs RPC vs hybrid" in
  let info = Cmd.info "ddsbench" ~doc in
  Cmd.v info
    Term.(
      const main $ smoke $ structure $ spines $ leaves $ hosts_per_leaf
      $ low_clients $ high_clients $ low_zipf $ high_zipf $ low_mutate
      $ high_mutate $ ops $ keys $ slots $ seed $ json $ ci $ out)

let () = exit (Cmd.eval cmd)
