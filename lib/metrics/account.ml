(* Per-category accumulation of a quantity (CPU time, bytes, calls).

   This is the bookkeeping behind Figure 3's server-CPU breakdown and
   Table 1b's control/data traffic split: every consumption is attributed
   to a named category, and experiments read the per-category totals. *)

(* A flat float record: adding to it stores in place, with no boxed
   float per update (the CPU model adds to an account on every charge). *)
type cell = { mutable total : float }

(* Callers pass category constants, so the same physical string recurs:
   [cell] first checks the last few categories by [==] and hashes the
   string only on a miss.  The table stays the record of every total. *)
let recent = 4

type t = {
  name : string;
  totals : (string, cell) Hashtbl.t;
  mutable order : string list; (* categories in first-seen order *)
  recent_keys : string array;
  recent_cells : cell array;
  mutable next_recent : int; (* the cache slot a miss overwrites *)
}

(* A string no caller can hold, so a vacant cache slot never matches. *)
let vacant = String.make 1 '\000'

let create ?(name = "account") () =
  {
    name;
    totals = Hashtbl.create 16;
    order = [];
    recent_keys = Array.make recent vacant;
    recent_cells = Array.init recent (fun _ -> { total = 0. });
    next_recent = 0;
  }

let name t = t.name

let lookup t category =
  match Hashtbl.find t.totals category with
  | c -> c
  | exception Not_found ->
      let c = { total = 0. } in
      Hashtbl.add t.totals category c;
      t.order <- category :: t.order;
      c

let cell t category =
  let keys = t.recent_keys in
  let i = ref 0 in
  while !i < recent && keys.(!i) != category do
    incr i
  done;
  if !i < recent then t.recent_cells.(!i)
  else begin
    let c = lookup t category in
    let i = t.next_recent in
    keys.(i) <- category;
    t.recent_cells.(i) <- c;
    t.next_recent <- (i + 1) mod recent;
    c
  end

(* Inlined so the float argument reaches the cell unboxed. *)
let[@inline] add t ~category x =
  let c = cell t category in
  c.total <- c.total +. x

let total_of t category =
  match Hashtbl.find_opt t.totals category with
  | Some c -> c.total
  | None -> 0.

let grand_total t = Hashtbl.fold (fun _ c acc -> acc +. c.total) t.totals 0.

let categories t = List.rev t.order

let to_list t = List.map (fun c -> (c, total_of t c)) (categories t)

let reset t =
  Hashtbl.reset t.totals;
  t.order <- [];
  Array.fill t.recent_keys 0 recent vacant;
  t.next_recent <- 0

let pp ppf t =
  Format.fprintf ppf "@[<v>%s:@," t.name;
  List.iter
    (fun (c, v) -> Format.fprintf ppf "  %-24s %12.3f@," c v)
    (to_list t);
  Format.fprintf ppf "  %-24s %12.3f@]" "total" (grand_total t)
