type entry = { ino : int; flags : Types.open_flags; mutable pos : int }

type t = { table : (int, entry) Hashtbl.t; mutable next : int }

let create () = { table = Hashtbl.create 64; next = 3 (* 0-2 reserved, as ever *) }

let alloc t ~ino ~flags =
  let fd = t.next in
  t.next <- t.next + 1;
  Hashtbl.add t.table fd { ino; flags; pos = 0 };
  fd

let get t fd =
  match Hashtbl.find_opt t.table fd with
  | Some e -> e
  | None -> Types.err EBADF "fd %d" fd

let close t fd =
  if not (Hashtbl.mem t.table fd) then Types.err EBADF "fd %d" fd;
  Hashtbl.remove t.table fd

let is_open_ino t ino =
  Hashtbl.fold (fun _ e acc -> acc || e.ino = ino) t.table false
