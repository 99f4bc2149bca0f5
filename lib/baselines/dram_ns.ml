(** The DRAM namespace shared by the baseline engines; see the interface.
    Each hook call sits where the engine's durability step must happen
    relative to the surrounding locks and [Dir_index] charges: those are
    scheduling points and clock charges, so moving a hook changes a
    contended workload's interleaving. *)

open Repro_util
module Device = Repro_pmem.Device
module Sched = Repro_sched.Sched
module Types = Repro_vfs.Types
module Path = Repro_vfs.Path
module Dir_index = Repro_vfs.Dir_index
module Fd_table = Repro_vfs.Fd_table
module Block_map = Repro_vfs.Block_map
module Cost = Repro_vfs.Fs_intf.Cost
module Alloc = Repro_alloc.Pool_alloc
module Vmem = Repro_memsim.Vmem
module Stats = Repro_stats.Stats

let block = Units.base_page
let huge = Units.huge_page

type 'p file = {
  ino : int;
  mutable kind : Types.file_kind;
  mutable size : int;
  mutable nlink : int;
  bmap : Block_map.t;
  mutable dir : Dir_index.t option;
  lock : Sched.mutex;
  p : 'p;
}

type 'p t = {
  files : (int, 'p file) Hashtbl.t;
  fds : Fd_table.t;
  alloc : Alloc.t;
  capacity : int;
  dir_policy : Dir_index.policy;
  payload : int -> 'p;
  mutable next_ino : int;
}

type 'p ns = 'p t

let root_ino = 1

let init ~alloc ~capacity ~dir_policy ~root ~payload =
  let ns =
    {
      files = Hashtbl.create 1024;
      fds = Fd_table.create ();
      alloc;
      capacity;
      dir_policy;
      payload;
      next_ino = root_ino + 1;
    }
  in
  Hashtbl.replace ns.files root_ino
    {
      ino = root_ino;
      kind = Types.Directory;
      size = 0;
      nlink = 2;
      bmap = Block_map.create ();
      dir = Some (Dir_index.create dir_policy);
      lock = Sched.create_mutex ();
      p = root;
    };
  ns

let find_file ns ino =
  match Hashtbl.find_opt ns.files ino with
  | Some f -> f
  | None -> Types.err EBADF "stale inode %d" ino

let file_of_fd ns fd = find_file ns (Fd_table.get ns.fds fd).ino

let new_file ns kind =
  let ino = ns.next_ino in
  ns.next_ino <- ns.next_ino + 1;
  let f =
    {
      ino;
      kind;
      size = 0;
      nlink = (if kind = Types.Directory then 2 else 1);
      bmap = Block_map.create ();
      dir = (if kind = Types.Directory then Some (Dir_index.create ns.dir_policy) else None);
      lock = Sched.create_mutex ();
      p = ns.payload ino;
    }
  in
  Hashtbl.replace ns.files ino f;
  f

let resolve ns cpu path =
  let parts = Path.split path in
  let rec walk ino = function
    | [] -> ino
    | name :: rest -> (
        let f = find_file ns ino in
        match f.dir with
        | None -> Types.err ENOTDIR "%s" path
        | Some idx -> (
            match Dir_index.lookup idx cpu name with
            | Some (child, _) -> walk child rest
            | None -> Types.err ENOENT "%s" path))
  in
  walk root_ino parts

let resolve_parent ns cpu path =
  let dir = Path.dirname path and name = Path.basename path in
  let ino = resolve ns cpu dir in
  let f = find_file ns ino in
  if f.kind <> Types.Directory then Types.err ENOTDIR "%s" dir;
  (f, name)

let free_blocks ns f =
  List.iter (fun (_, phys, len) -> Alloc.free ns.alloc ~off:phys ~len) (Block_map.extents f.bmap);
  Block_map.clear f.bmap

(* ------------------------------------------------------------------ *)
(* Data-path prologues                                                 *)

let check_write ns fd ~off ~src ~src_off ~len =
  let e = Fd_table.get ns.fds fd in
  if not e.flags.wr then Types.err EBADF "fd %d not writable" fd;
  let f = find_file ns e.ino in
  if f.kind = Types.Directory then Types.err EISDIR "fd %d" fd;
  if src_off < 0 || len < 0 || src_off + len > String.length src then
    Types.err EINVAL "pwrite_sub outside src bounds";
  if len > 0 && off < 0 then Types.err EINVAL "negative offset";
  f

let write_prologue ns cpu fd ~off ~src ~src_off ~len =
  Cost.charge_syscall cpu;
  check_write ns fd ~off ~src ~src_off ~len

let check_read ns fd ~off ~len =
  let e = Fd_table.get ns.fds fd in
  if not e.flags.rd then Types.err EBADF "fd %d not readable" fd;
  let f = find_file ns e.ino in
  if off < 0 || len < 0 then Types.err EINVAL "bad range";
  f

let read_prologue ns cpu fd ~off ~len =
  Cost.charge_syscall cpu;
  check_read ns fd ~off ~len

let fallocate_prologue ns cpu fd ~off ~len =
  Cost.charge_syscall cpu;
  let f = file_of_fd ns fd in
  if off < 0 || len <= 0 then Types.err EINVAL "bad range";
  f

let ftruncate_prologue ns cpu fd new_size =
  Cost.charge_syscall cpu;
  let f = file_of_fd ns fd in
  if new_size < 0 then Types.err EINVAL "negative size";
  f

let read_blocks dev cpu f ~off ~len =
  let dst = Bytes.make len '\000' in
  let cur = ref off in
  while !cur < off + len do
    match Block_map.lookup f.bmap ~file_off:!cur with
    | Some (phys, run) ->
        let n = min (off + len - !cur) run in
        Device.read dev cpu ~off:phys ~len:n ~dst ~dst_off:(!cur - off);
        cur := !cur + n
    | None -> (
        match Block_map.next_mapped f.bmap ~file_off:(!cur + 1) with
        | Some o -> cur := min (off + len) o
        | None -> cur := off + len)
  done;
  dst

(* ------------------------------------------------------------------ *)
(* Block-mapped data                                                   *)

let alloc ?goal ns ~cpu ~len =
  match Alloc.alloc ?goal ns.alloc ~cpu ~len with
  | Some exts -> exts
  | None -> Types.err ENOSPC "allocating %d bytes" len

let iter_holes f ~off ~len back =
  let lo = Units.round_down off block and hi = Units.round_up (off + len) block in
  let cur = ref lo in
  while !cur < hi do
    match Block_map.lookup f.bmap ~file_off:!cur with
    | Some (_, run) -> cur := !cur + run
    | None ->
        let hole_end =
          match Block_map.next_mapped f.bmap ~file_off:(!cur + 1) with
          | Some o -> min hi o
          | None -> hi
        in
        back ~off:!cur ~len:(hole_end - !cur);
        cur := hole_end
  done

let map_extents f ~file_off exts =
  let fo = ref file_off in
  List.iter
    (fun (e : Alloc.extent) ->
      Block_map.insert f.bmap ~file_off:!fo ~phys:e.off ~len:e.len;
      fo := !fo + e.len)
    exts

let free_runs ns runs = List.iter (fun (o, l) -> Alloc.free ns.alloc ~off:o ~len:l) runs

let remap ns f ~file_off ~len exts ~commit =
  let freed = Block_map.remove_range f.bmap ~file_off ~len in
  map_extents f ~file_off exts;
  commit (List.length freed);
  free_runs ns freed

let zero_extent dev cpu ~site ~off ~len =
  Device.with_site dev site (fun () ->
      Device.memset_nt dev cpu ~off ~len '\000';
      Device.fence dev cpu)

let write_mapped dev cpu ~site f ~off ~src ~src_off ~len =
  Device.with_site dev site (fun () ->
      let cur = ref off in
      while !cur < off + len do
        let phys, run = Option.get (Block_map.lookup f.bmap ~file_off:!cur) in
        let n = min (off + len - !cur) run in
        Device.write_string_nt dev cpu ~off:phys ~src ~src_off:(src_off + (!cur - off)) ~len:n;
        cur := !cur + n
      done)

let preserve dev cpu ~site f ~off ~len ~dst =
  Device.with_site dev site (fun () ->
      let stop = off + len in
      let cur = ref off and copied = ref 0 in
      while !cur < stop do
        match Block_map.lookup f.bmap ~file_off:!cur with
        | Some (old_phys, old_run) ->
            let n = min old_run (stop - !cur) in
            Device.copy_within_nt dev cpu ~src:old_phys ~dst:(dst + (!cur - off)) ~len:n;
            copied := !copied + n;
            cur := !cur + n
        | None ->
            Device.memset_nt dev cpu ~off:(dst + (!cur - off)) ~len:(stop - !cur) '\000';
            cur := stop
      done;
      !copied)

let shrink dev cpu ~site ns f size =
  let lo = Units.round_up size block in
  if size < f.size && lo > size then
    Option.iter
      (fun (phys, _) -> zero_extent dev cpu ~site ~off:phys ~len:(lo - size))
      (Block_map.lookup f.bmap ~file_off:size);
  if f.size <= lo then None
  else begin
    let freed = Block_map.remove_range f.bmap ~file_off:lo ~len:(f.size - lo) in
    free_runs ns freed;
    Some (List.length freed)
  end

let flush_dirty dev (cpu : Cpu.t) ~site bytes =
  if bytes > 0 then begin
    let lines = (bytes + Units.cacheline - 1) / Units.cacheline in
    Simclock.advance cpu.clock (int_of_float ((Device.cost dev).flush_ns *. float_of_int lines));
    Device.with_site dev site (fun () -> Device.fence dev cpu)
  end

let huge_at f off ok = if ok then Block_map.huge_candidate f.bmap ~chunk_off:off else None

(* The answer is read after [touch] on a mapped page: Strata's [touch]
   takes the inode lock, a scheduling point. *)
let fault cpu f ~file_off ~huge_ok ~fill_len ~fill ~touch =
  match huge_at f file_off huge_ok with
  | Some phys -> touch cpu f ~fresh:false ~file_off ~phys ~len:huge; Vmem.Huge phys
  | None -> (
      match Block_map.lookup f.bmap ~file_off with
      | Some (phys, _) -> (
          touch cpu f ~fresh:false ~file_off ~phys ~len:block;
          match Block_map.lookup f.bmap ~file_off with
          | Some (phys, _) -> Vmem.Base phys
          | None -> Vmem.Sigbus)
      | None -> (
          (* Out of space for [fill_len], back one page; failing that, Sigbus. *)
          (try
             Sched.with_lock f.lock (fun () ->
                 try fill cpu f ~off:file_off ~len:fill_len
                 with Types.Error (ENOSPC, _) when fill_len > block ->
                   fill cpu f ~off:file_off ~len:block)
           with Types.Error (ENOSPC, _) -> ());
          match huge_at f file_off (huge_ok && fill_len = huge) with
          | Some phys -> touch cpu f ~fresh:true ~file_off ~phys ~len:huge; Vmem.Huge phys
          | None -> (
              match Block_map.lookup f.bmap ~file_off with
              | Some (phys, _) ->
                  touch cpu f ~fresh:true ~file_off ~phys ~len:block;
                  Vmem.Base phys
              | None -> Vmem.Sigbus)))

(* ------------------------------------------------------------------ *)
(* Engines                                                             *)

module type ENGINE = sig
  type t
  type payload

  val ns : t -> payload ns
  val device : t -> Device.t
  val persist_link : t -> Cpu.t -> parent:payload file -> payload file -> (unit -> unit) -> unit
  val persist_unlink : t -> Cpu.t -> parent:payload file -> payload file -> (unit -> unit) -> unit
  val persist_rmdir : t -> Cpu.t -> parent:payload file -> payload file -> (unit -> unit) -> unit
  val persist_rename : t -> Cpu.t -> src:payload file -> dst:payload file -> (unit -> unit) -> unit
  val persist_truncate : t -> Cpu.t -> payload file -> (unit -> unit) -> unit
  val release : t -> payload file -> unit
  val size : t -> payload file -> int
  val log_bytes : payload file -> int
  val read_overlay : t -> Cpu.t -> payload file -> off:int -> len:int -> Bytes.t -> unit
  val pwrite_sub : t -> Cpu.t -> int -> off:int -> src:string -> src_off:int -> len:int -> int
end

module Make (E : ENGINE) = struct
  let mount _dev _cfg =
    Types.err EINVAL "baseline models do not support mount-from-image (see DESIGN.md)"

  let recovery_ns _ = 0

  (* mkdir and create: a fresh inode linked under its parent. *)
  let link t cpu path kind ~update =
    let ns = E.ns t in
    let parent, name = resolve_parent ns cpu path in
    Sched.with_lock parent.lock (fun () ->
        let idx = Option.get parent.dir in
        if Dir_index.mem idx cpu name then Types.err EEXIST "%s" path;
        let f = new_file ns kind in
        E.persist_link t cpu ~parent f (fun () ->
            Dir_index.add idx cpu ~name ~ino:f.ino ~slot:0;
            update parent);
        f)

  let mkdir t cpu path =
    Cost.charge_syscall cpu;
    ignore
      (link t cpu path Types.Directory ~update:(fun parent -> parent.nlink <- parent.nlink + 1)
        : E.payload file);
    Stats.count "fs.mkdir" 1

  let create t cpu path =
    Cost.charge_syscall cpu;
    let f = link t cpu path Types.Regular ~update:ignore in
    let ns = E.ns t in
    Stats.count "fs.create" 1;
    Fd_table.alloc ns.fds ~ino:f.ino ~flags:Types.o_creat_rdwr

  (* The last link went: free the inode under its lock, so a concurrent
     writer never sees its backing vanish mid-operation. *)
  let drop t f =
    Sched.with_lock f.lock (fun () ->
        E.release t f;
        Hashtbl.remove (E.ns t).files f.ino)

  let unlink t cpu path =
    Cost.charge_syscall cpu;
    let ns = E.ns t in
    let parent, name = resolve_parent ns cpu path in
    Sched.with_lock parent.lock (fun () ->
        let idx = Option.get parent.dir in
        match Dir_index.lookup idx cpu name with
        | None -> Types.err ENOENT "%s" path
        | Some (ino, _) ->
            let f = find_file ns ino in
            if f.kind = Types.Directory then Types.err EISDIR "%s" path;
            E.persist_unlink t cpu ~parent f (fun () -> Dir_index.remove idx cpu name);
            f.nlink <- f.nlink - 1;
            if f.nlink = 0 then drop t f);
    Stats.count "fs.unlink" 1

  let rmdir t cpu path =
    Cost.charge_syscall cpu;
    let ns = E.ns t in
    let parent, name = resolve_parent ns cpu path in
    Sched.with_lock parent.lock (fun () ->
        let idx = Option.get parent.dir in
        match Dir_index.lookup idx cpu name with
        | None -> Types.err ENOENT "%s" path
        | Some (ino, _) ->
            let f = find_file ns ino in
            if f.kind <> Types.Directory then Types.err ENOTDIR "%s" path;
            if Dir_index.size (Option.get f.dir) > 0 then Types.err ENOTEMPTY "%s" path;
            E.persist_rmdir t cpu ~parent f (fun () ->
                Dir_index.remove idx cpu name;
                parent.nlink <- parent.nlink - 1);
            Hashtbl.remove ns.files ino);
    Stats.count "fs.rmdir" 1

  let rename t cpu ~old_path ~new_path =
    Cost.charge_syscall cpu;
    let ns = E.ns t in
    let src_parent, src_name = resolve_parent ns cpu old_path in
    let dst_parent, dst_name = resolve_parent ns cpu new_path in
    let locks =
      if src_parent.ino = dst_parent.ino then [ src_parent.lock ]
      else if src_parent.ino < dst_parent.ino then [ src_parent.lock; dst_parent.lock ]
      else [ dst_parent.lock; src_parent.lock ]
    in
    List.iter Sched.lock locks;
    Fun.protect
      ~finally:(fun () -> List.iter Sched.unlock (List.rev locks))
      (fun () ->
        let src_idx = Option.get src_parent.dir and dst_idx = Option.get dst_parent.dir in
        match Dir_index.lookup src_idx cpu src_name with
        | None -> Types.err ENOENT "%s" old_path
        | Some (ino, _) ->
            (match Dir_index.lookup dst_idx cpu dst_name with
            | Some (victim_ino, _) when victim_ino <> ino ->
                let victim = find_file ns victim_ino in
                if victim.kind = Types.Directory then Types.err EISDIR "%s" new_path;
                Dir_index.remove dst_idx cpu dst_name;
                drop t victim
            | _ -> ());
            E.persist_rename t cpu ~src:src_parent ~dst:dst_parent (fun () ->
                Dir_index.remove src_idx cpu src_name;
                Dir_index.add dst_idx cpu ~name:dst_name ~ino ~slot:0));
    Stats.count "fs.rename" 1

  let readdir t cpu path =
    Cost.charge_syscall cpu;
    let ns = E.ns t in
    let f = find_file ns (resolve ns cpu path) in
    match f.dir with
    | None -> Types.err ENOTDIR "%s" path
    | Some idx ->
        Simclock.advance cpu.clock (Dir_index.size idx * 12);
        List.map fst (Dir_index.entries idx)

  let stat t cpu path =
    Cost.charge_syscall cpu;
    let ns = E.ns t in
    let f = find_file ns (resolve ns cpu path) in
    {
      Types.st_ino = f.ino;
      st_kind = f.kind;
      st_size = E.size t f;
      st_blocks = Block_map.mapped_bytes f.bmap + E.log_bytes f;
      st_nlink = f.nlink;
    }

  let exists t cpu path =
    match resolve (E.ns t) cpu path with
    | _ -> true
    | exception Types.Error ((ENOENT | ENOTDIR), _) -> false

  let rec openf t cpu path (flags : Types.open_flags) =
    Cost.charge_syscall cpu;
    let ns = E.ns t in
    match resolve ns cpu path with
    | ino ->
        if flags.creat && flags.excl then Types.err EEXIST "%s" path;
        let f = find_file ns ino in
        if f.kind = Types.Directory && flags.wr then Types.err EISDIR "%s" path;
        if flags.trunc && f.kind = Types.Regular && f.size > 0 then
          E.persist_truncate t cpu f (fun () ->
              free_blocks ns f;
              f.size <- 0);
        Fd_table.alloc ns.fds ~ino ~flags
    | exception Types.Error (ENOENT, _) when flags.creat ->
        let fd = create t cpu path in
        Fd_table.close ns.fds fd;
        openf t cpu path { flags with creat = false }

  let close t cpu fd =
    Cost.charge_syscall cpu;
    Fd_table.close (E.ns t).fds fd

  let file_size t fd = E.size t (file_of_fd (E.ns t) fd)

  let pwrite t cpu fd ~off ~src =
    E.pwrite_sub t cpu fd ~off ~src ~src_off:0 ~len:(String.length src)

  let append t cpu fd ~src = pwrite t cpu fd ~off:(file_size t fd) ~src

  let pread t cpu fd ~off ~len =
    let ns = E.ns t in
    let f = read_prologue ns cpu fd ~off ~len in
    let len = max 0 (min len (E.size t f - off)) in
    if len = 0 then ""
    else begin
      let dst = read_blocks (E.device t) cpu f ~off ~len in
      E.read_overlay t cpu f ~off ~len dst;
      Stats.count "fs.read_bytes" len;
      Bytes.unsafe_to_string dst
    end

  let set_xattr_align _t cpu _path _v = Cost.charge_syscall cpu

  let statfs t =
    let ns = E.ns t in
    let free = Alloc.free_bytes ns.alloc in
    {
      Types.capacity = ns.capacity;
      used = ns.capacity - free;
      free;
      free_extents = Alloc.free_extent_count ns.alloc;
      largest_free = Alloc.largest_free ns.alloc;
      aligned_free_2m = Alloc.aligned_region_count ns.alloc;
    }

  let file_extents t cpu path =
    let ns = E.ns t in
    Block_map.extents (find_file ns (resolve ns cpu path)).bmap
end
