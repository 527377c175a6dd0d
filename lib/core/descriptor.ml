(* Imported segment descriptors.

   A descriptor is the importing kernel's handle on a remote segment:
   which node, which segment id, which export generation, how big, and
   what rights were obtained.  The name-server clerk marks descriptors
   stale during cache refresh; stale descriptors fail locally at the
   source (the paper's recovery hook). *)

type t = {
  remote : Atm.Addr.t;
  segment_id : int;
  mutable generation : Generation.t;
  size : int;
  rights : Rights.t;
  mutable stale : bool;
}

let create ~remote ~segment_id ~generation ~size ~rights =
  if size <= 0 then invalid_arg "Descriptor.create: bad size";
  { remote; segment_id; generation; size; rights; stale = false }

let remote t = t.remote
let segment_id t = t.segment_id
let generation t = t.generation
let size t = t.size
let rights t = t.rights

let is_stale t = t.stale
let mark_stale t = t.stale <- true

let refresh t ~generation =
  t.generation <- generation;
  t.stale <- false

let target t =
  (Atm.Addr.to_int t.remote, t.segment_id, Generation.to_int t.generation)

module Target_tbl = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((a, b, c) : t) (a', b', c') = a = a' && b = b' && c = c'
  let hash ((a, b, c) : t) = ((((a * 65599) + b) * 65599) + c) land max_int
end)

let pp ppf t =
  Format.fprintf ppf "desc(%a/seg%d %a %dB%s)" Atm.Addr.pp t.remote
    t.segment_id Generation.pp t.generation t.size
    (if t.stale then " STALE" else "")
