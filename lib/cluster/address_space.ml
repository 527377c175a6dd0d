(* Per-process virtual address spaces.

   Sparse, demand-zero, paged byte stores.  Remote-memory operations move
   real bytes between these, so higher layers (the name-server registry,
   the file-service caches) genuinely serialize their data structures
   into memory and decode what a remote READ returns.

   Pinning mirrors the paper's application-controlled pinning of virtual
   pages backing exported segments: the simulated kernel refuses remote
   access to unpinned pages of an exported segment. *)

exception Fault of { asid : int; addr : int }

let default_page_size = 4096

module Int_tbl = Hashtbl.Make (Int)

type t = {
  asid : int;
  page_size : int;
  pages : bytes Int_tbl.t;
  pin_counts : int Int_tbl.t;
}

let create ?(page_size = default_page_size) ~asid () =
  if page_size <= 0 then invalid_arg "Address_space.create: bad page size";
  { asid; page_size; pages = Int_tbl.create 64; pin_counts = Int_tbl.create 16 }

let asid t = t.asid
let page_size t = t.page_size

let check_range t ~addr ~len =
  if addr < 0 || len < 0 then raise (Fault { asid = t.asid; addr })

let page_of t addr = addr / t.page_size

let page t index =
  match Int_tbl.find t.pages index with
  | bytes -> bytes
  | exception Not_found ->
      let bytes = Bytes.make t.page_size '\000' in
      Int_tbl.add t.pages index bytes;
      bytes

(* Copy [len] bytes between [buf] at [pos] and the pages from [addr] on:
   into the pages when [store], out of them otherwise. *)
let transfer t ~addr ~len buf ~pos ~store =
  check_range t ~addr ~len;
  if pos < 0 || pos + len > Bytes.length buf then
    invalid_arg
      (if store then "Address_space.write_from" else "Address_space.read_into");
  let cursor = ref addr and done_ = ref 0 in
  while !done_ < len do
    let off = !cursor mod t.page_size in
    let span = Int.min (len - !done_) (t.page_size - off) in
    let pg = page t (page_of t !cursor) in
    if store then Bytes.blit buf (pos + !done_) pg off span
    else Bytes.blit pg off buf (pos + !done_) span;
    cursor := !cursor + span;
    done_ := !done_ + span
  done

let read_into t ~addr ~len dst ~pos = transfer t ~addr ~len dst ~pos ~store:false

let read t ~addr ~len =
  let out = Bytes.create (Int.max 0 len) in
  read_into t ~addr ~len out ~pos:0;
  out

let write_from t ~addr src ~pos ~len = transfer t ~addr ~len src ~pos ~store:true
let write t ~addr data = write_from t ~addr data ~pos:0 ~len:(Bytes.length data)

let read_word t ~addr =
  let b = read t ~addr ~len:4 in
  Bytes.get_int32_le b 0

let write_word t ~addr v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 v;
  write t ~addr b

let cas_word t ~addr ~old_value ~new_value =
  let current = read_word t ~addr in
  if Int32.equal current old_value then begin
    write_word t ~addr new_value;
    true
  end
  else false

let pin t ~addr ~len =
  check_range t ~addr ~len;
  let first = page_of t addr and last = page_of t (addr + Int.max 0 (len - 1)) in
  for index = first to last do
    let n = Option.value ~default:0 (Int_tbl.find_opt t.pin_counts index) in
    Int_tbl.replace t.pin_counts index (n + 1)
  done;
  last - first + 1

let unpin t ~addr ~len =
  check_range t ~addr ~len;
  let first = page_of t addr and last = page_of t (addr + Int.max 0 (len - 1)) in
  for index = first to last do
    match Int_tbl.find_opt t.pin_counts index with
    | None | Some 0 -> invalid_arg "Address_space.unpin: page not pinned"
    | Some 1 -> Int_tbl.remove t.pin_counts index
    | Some n -> Int_tbl.replace t.pin_counts index (n - 1)
  done

let is_pinned t ~addr ~len =
  check_range t ~addr ~len;
  let first = page_of t addr and last = page_of t (addr + Int.max 0 (len - 1)) in
  let index = ref first in
  while
    !index <= last
    && match Int_tbl.find t.pin_counts !index with
       | n -> n > 0
       | exception Not_found -> false
  do
    incr index
  done;
  !index > last

let pinned_pages t =
  Int_tbl.fold (fun _ n acc -> if n > 0 then acc + 1 else acc) t.pin_counts 0

let resident_pages t = Int_tbl.length t.pages
