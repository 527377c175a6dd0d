(* Node addresses on the cluster network. *)

type t = int

(* A frame packs its source and destination into one word. *)
let bits = 31

let of_int i =
  if i < 0 then invalid_arg "Addr.of_int: negative address";
  if i lsr bits <> 0 then invalid_arg "Addr.of_int: address out of range";
  i

let to_int a = a
let equal = Int.equal
let compare = Int.compare
let hash = Hashtbl.hash
let pp ppf a = Format.fprintf ppf "node%d" a
let to_string a = Format.asprintf "%a" pp a
