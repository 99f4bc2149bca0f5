open Repro_util
module Device = Repro_pmem.Device
module Site = Repro_pmem.Site
module Sched = Repro_sched.Sched
module Types = Repro_vfs.Types
module Dir_index = Repro_vfs.Dir_index
module Int_map = Repro_rbtree.Ordmap.Int_map

let block = Units.base_page
let site_inode_init = Site.v "core" "inode-init"

type record = { slot : int; phys : int; len : int; asrc : bool }

type file = {
  ino : int;
  mutable kind : Types.file_kind;
  mutable size : int;
  mutable nlink : int;
  mutable xattr_align : bool;
  mutable parent : int;
  mutable dname : string;
  records : record Int_map.t;
  mutable free_slots : int list;
  mutable slot_cap : int;
  mutable overflow : int list;
  mutable dir : Dir_index.t option;
  mutable free_dentries : int list;
  lock : Sched.mutex;
  mutable dirty_bytes : int;
}

type t = {
  dev : Device.t;
  layout : Layout.t;
  txns : Txn.t;
  files : (int, file) Hashtbl.t;
  bad_inos : (int, string) Hashtbl.t; (* ino -> why the scrub refused it *)
  free : int list array; (* per-CPU inode idx free lists *)
}

(* Race-detector annotations (see {!Repro_race}) for the shared DRAM inode
   table and per-CPU free lists — cross-CPU mutable state the per-CPU
   design is supposed to confine. *)
let note ~obj ~write ~site = if Sched.monitored () then Sched.access ~obj ~write ~site

let create ~dev ~layout ~txns =
  {
    dev;
    layout;
    txns;
    files = Hashtbl.create 1024;
    bad_inos = Hashtbl.create 8;
    free = Array.make layout.Layout.cpus [];
  }

let inode_addr t ino = Layout.inode_off t.layout ino

let slot_addr t f slot =
  if slot < Layout.inline_extents then inode_addr t f.ino + Codec.Inode.extent_slot_off slot
  else begin
    let s = slot - Layout.inline_extents in
    let blk = List.nth f.overflow (s / Codec.Overflow.capacity) in
    blk + Codec.Overflow.record_off (s mod Codec.Overflow.capacity)
  end

let header_of f =
  {
    Codec.Inode.valid = true;
    is_dir = Types.is_dir f.kind;
    xattr_align = f.xattr_align;
    size = f.size;
    nlink = f.nlink;
    extent_count = Int_map.size f.records;
    overflow = (match f.overflow with b :: _ -> b | [] -> 0);
  }

let persist_header t cpu txn f =
  Txn.meta_write t.txns cpu txn ~addr:(inode_addr t f.ino)
    (Codec.Inode.encode_header (header_of f))

let persist_invalid t cpu txn f =
  Txn.meta_write t.txns cpu txn ~addr:(inode_addr t f.ino)
    (Codec.Inode.encode_header { (header_of f) with valid = false })

(* The checksum is recomputed over the header's current device bytes so
   fields this path does not touch (extent_count may lag the record map
   until the next full header persist) stay covered exactly as stored. *)
let persist_size t cpu txn f =
  let addr = inode_addr t f.ino in
  let hdr = Bytes.create Codec.Inode.header_bytes in
  Device.read t.dev cpu ~off:addr ~len:Codec.Inode.header_bytes ~dst:hdr ~dst_off:0;
  Bytes.set_int64_le hdr 8 (Int64.of_int f.size);
  Crc32c.set_zeroed hdr ~off:0 ~len:Codec.Inode.header_bytes ~csum_off:Codec.Inode.csum_off;
  Txn.meta_write t.txns cpu txn ~addr:(addr + 8) (Bytes.sub hdr 8 8);
  Txn.meta_write t.txns cpu txn ~addr:(addr + Codec.Inode.csum_off)
    (Bytes.sub hdr Codec.Inode.csum_off 8)

let persist_slot t cpu txn f ~slot ~file_off ~phys ~len ~asrc =
  let len_field = if asrc then len lor Codec.Inode.asrc_bit else len in
  Txn.meta_write t.txns cpu txn ~addr:(slot_addr t f slot)
    (Codec.Inode.encode_extent ~file_off ~phys ~len:len_field)

let clear_slot t cpu txn f slot =
  Txn.meta_write t.txns cpu txn ~addr:(slot_addr t f slot)
    (Bytes.make Codec.Inode.extent_bytes '\000')

(* A freshly-allocated inode may be a reused slot: its inline extent slots
   must be zeroed before the header becomes valid, or a later mount would
   resurrect the previous owner's records as ghosts.  (The inode is still
   invalid while this runs, so plain stores suffice.) *)
let init_slots t cpu ino =
  Device.with_site t.dev site_inode_init @@ fun () ->
  let off = inode_addr t ino + Codec.Inode.extent_slot_off 0 in
  let len = Layout.inline_extents * Codec.Inode.extent_bytes in
  Device.memset t.dev cpu ~off ~len '\000';
  Device.persist t.dev cpu ~off ~len

let install t ino kind =
  let f =
    {
      ino;
      kind;
      size = 0;
      nlink = (if Types.is_dir kind then 2 else 1);
      xattr_align = false;
      parent = 0;
      dname = "";
      records = Int_map.create ();
      free_slots = [];
      slot_cap = 0;
      overflow = [];
      dir = (if Types.is_dir kind then Some (Dir_index.create Dram_rbtree) else None);
      free_dentries = [];
      lock = Sched.create_mutex ();
      dirty_bytes = 0;
    }
  in
  note ~obj:"fs.files" ~write:true ~site:"fs.install_file";
  Hashtbl.replace t.files ino f;
  f

let find t ino =
  note ~obj:"fs.files" ~write:false ~site:"fs.find_file";
  (match Hashtbl.find_opt t.bad_inos ino with
  | Some why -> Types.err EIO "inode %d refused by scrub: %s" ino why
  | None -> ());
  match Hashtbl.find_opt t.files ino with
  | Some f -> f
  | None -> Types.err EBADF "stale inode %d" ino

let find_opt t ino = Hashtbl.find_opt t.files ino

let forget t ~site ino =
  note ~obj:"fs.files" ~write:true ~site;
  Hashtbl.remove t.files ino

let iter t f = Hashtbl.iter (fun _ v -> f v) t.files

let alloc_ino t (cpu : Cpu.t) =
  let try_cpu c =
    note ~obj:(Printf.sprintf "fs.inodes[%d]" c) ~write:true ~site:"fs.alloc_ino";
    match t.free.(c) with
    | idx :: rest ->
        t.free.(c) <- rest;
        Some (Layout.ino_of t.layout ~cpu:c ~idx)
    | [] -> None
  in
  let cpus = t.layout.Layout.cpus in
  let local = cpu.id mod cpus in
  match try_cpu local with
  | Some ino -> Some ino
  | None ->
      let rec steal c =
        if c >= cpus then None
        else if c = local then steal (c + 1)
        else match try_cpu c with Some ino -> Some ino | None -> steal (c + 1)
      in
      steal 0

let release_ino t ino =
  let c = Layout.cpu_of_ino t.layout ino in
  note ~obj:(Printf.sprintf "fs.inodes[%d]" c) ~write:true ~site:"fs.release_ino";
  t.free.(c) <- Layout.idx_of_ino t.layout ino :: t.free.(c)

let init_free t =
  Array.iteri
    (fun c _ ->
      t.free.(c) <-
        List.init t.layout.Layout.inodes_per_cpu (fun i -> i)
        |> List.filter (fun i -> not (c = 0 && i = 0)))
    t.free

let refuse t ino why = Hashtbl.replace t.bad_inos ino why
let is_bad t ino = Hashtbl.mem t.bad_inos ino
let refused t = Hashtbl.length t.bad_inos

(* Mount-time loading.  One scan owns one [slots] scratch buffer, sized
   for an overflow block's records, and every file reuses it: the chain
   walk reads each overflow header into it, and each slot region (the
   inline area, then each overflow block) is one bulk device read decoded
   in place.  Nothing here allocates per slot. *)
let rec read_chain t cpu slots blk acc =
  if blk = 0 then List.rev acc
  else begin
    Device.read t.dev cpu ~off:blk ~len:Codec.Overflow.header_bytes ~dst:slots ~dst_off:0;
    let next, _count = Codec.Overflow.decode_header slots in
    read_chain t cpu slots next (blk :: acc)
  end

(* Live records have len > 0; every other slot is free. *)
let load_region t cpu slots f ~addr ~first_slot ~count =
  let eb = Codec.Inode.extent_bytes in
  Device.read t.dev cpu ~off:addr ~len:(count * eb) ~dst:slots ~dst_off:0;
  for i = 0 to count - 1 do
    let off = i * eb in
    let len = Codec.Inode.extent_len_at slots off in
    if len > 0 then
      Int_map.insert f.records
        (Codec.Inode.extent_file_off_at slots off)
        {
          slot = first_slot + i;
          phys = Codec.Inode.extent_phys_at slots off;
          len;
          asrc = Codec.Inode.extent_asrc_at slots off;
        }
    else f.free_slots <- (first_slot + i) :: f.free_slots
  done

let rec load_overflow t cpu slots f ~first_slot = function
  | [] -> ()
  | blk :: rest ->
      load_region t cpu slots f
        ~addr:(blk + Codec.Overflow.record_off 0)
        ~first_slot ~count:Codec.Overflow.capacity;
      load_overflow t cpu slots f ~first_slot:(first_slot + Codec.Overflow.capacity) rest

let load_file t cpu slots ino (h : Codec.Inode.header) =
  let kind = if h.is_dir then Types.Directory else Types.Regular in
  let f = install t ino kind in
  f.size <- h.size;
  f.nlink <- h.nlink;
  f.xattr_align <- h.xattr_align;
  f.overflow <- read_chain t cpu slots h.overflow [];
  f.slot_cap <- Layout.inline_extents + (List.length f.overflow * Codec.Overflow.capacity);
  load_region t cpu slots f
    ~addr:(inode_addr t f.ino + Codec.Inode.extent_slot_off 0)
    ~first_slot:0 ~count:Layout.inline_extents;
  load_overflow t cpu slots f ~first_slot:Layout.inline_extents f.overflow;
  f

let scan_tables t cpu ~on_refuse =
  let layout = t.layout in
  let used = ref [] in
  (* Inode tables are contiguous per CPU, so the header sweep reads whole
     table chunks in one device access and tests, verifies and decodes
     each 64B header in place in the chunk.  A poisoned line anywhere in a
     chunk fails the bulk read before any cost is charged; that chunk
     falls back to per-header reads into [hb] so refusal stays
     per-inode. *)
  let chunk_inodes = 256 in
  let ib = Layout.inode_bytes in
  let cbuf = Bytes.create (chunk_inodes * ib) in
  let hb = Bytes.create Codec.Inode.header_bytes in
  let slots = Bytes.create (Codec.Overflow.capacity * Codec.Inode.extent_bytes) in
  let refuse_ino ino why =
    refuse t ino why;
    on_refuse ino why
  in
  (* The header of inode [ino] (table index [idx]) sits at [off] in [b]. *)
  let visit free ~idx ino b off =
    if Codec.Inode.header_is_blank_at b off then free := idx :: !free
    else if not (Codec.Inode.header_csum_ok_at b off) then
      (* A non-blank header failing its CRC cannot be trusted in any
         field — the corrupt bit may be [valid] itself — so the slot is
         never scrubbed or reused, only refused. *)
      refuse_ino ino "inode header failed CRC"
    else begin
      let h = Codec.Inode.decode_header_at b off in
      if h.valid then begin
        match load_file t cpu slots ino h with
        | f ->
            Int_map.iter f.records (fun _ r -> used := (r.phys, r.len) :: !used);
            List.iter (fun blk -> used := (blk, block) :: !used) f.overflow
        | exception Device.Media_error _ ->
            forget t ~site:"fs.scrub" ino;
            refuse_ino ino "media error loading extent metadata"
      end
      else free := idx :: !free
    end
  in
  for c = 0 to layout.Layout.cpus - 1 do
    let free = ref [] in
    let base = ref 0 in
    while !base < layout.Layout.inodes_per_cpu do
      let n = min chunk_inodes (layout.Layout.inodes_per_cpu - !base) in
      let chunk_off = Layout.inode_off layout (Layout.ino_of layout ~cpu:c ~idx:!base) in
      (match Device.read t.dev cpu ~off:chunk_off ~len:(n * ib) ~dst:cbuf ~dst_off:0 with
      | () ->
          for i = 0 to n - 1 do
            let idx = !base + i in
            visit free ~idx (Layout.ino_of layout ~cpu:c ~idx) cbuf (i * ib)
          done
      | exception Device.Media_error _ ->
          for i = 0 to n - 1 do
            let idx = !base + i in
            let ino = Layout.ino_of layout ~cpu:c ~idx in
            match
              Device.read t.dev cpu ~off:(Layout.inode_off layout ino)
                ~len:Codec.Inode.header_bytes ~dst:hb ~dst_off:0
            with
            | () -> visit free ~idx ino hb 0
            | exception Device.Media_error _ -> refuse_ino ino "poisoned inode header"
          done);
      base := !base + n
    done;
    t.free.(c) <- List.rev !free
  done;
  !used
