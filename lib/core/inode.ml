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
  mutable free_inline : int;
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
  files : file Int_hashtbl.t;
  bad_inos : string Int_hashtbl.t; (* ino -> why the scrub refused it *)
  free : int array array;
      (* per-CPU stacks of free inode idx, [free_top.(c)] deep: the top,
         at [free_top.(c) - 1], is handed out next *)
  free_top : int array;
}

(* Race-detector annotations (see {!Repro_race}) for the shared DRAM inode
   table and per-CPU free stacks — cross-CPU mutable state the per-CPU
   design is supposed to confine. *)
let note ~obj ~write ~site = if Sched.monitored () then Sched.access ~obj ~write ~site

let create ~dev ~layout ~txns =
  {
    dev;
    layout;
    txns;
    files = Int_hashtbl.create 1024;
    bad_inos = Int_hashtbl.create 8;
    free = Array.init layout.Layout.cpus (fun _ -> Array.make layout.Layout.inodes_per_cpu 0);
    free_top = Array.make layout.Layout.cpus 0;
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
      free_inline = 0;
      slot_cap = 0;
      overflow = [];
      dir = (if Types.is_dir kind then Some (Dir_index.create Dram_rbtree) else None);
      free_dentries = [];
      lock = Sched.create_mutex ();
      dirty_bytes = 0;
    }
  in
  note ~obj:"fs.files" ~write:true ~site:"fs.install_file";
  Int_hashtbl.replace t.files ino f;
  f

let find t ino =
  note ~obj:"fs.files" ~write:false ~site:"fs.find_file";
  (match Int_hashtbl.find_opt t.bad_inos ino with
  | Some why -> Types.err EIO "inode %d refused by scrub: %s" ino why
  | None -> ());
  match Int_hashtbl.find_opt t.files ino with
  | Some f -> f
  | None -> Types.err EBADF "stale inode %d" ino

let find_opt t ino = Int_hashtbl.find_opt t.files ino

let forget t ~site ino =
  note ~obj:"fs.files" ~write:true ~site;
  Int_hashtbl.remove t.files ino

let iter t f = Int_hashtbl.iter (fun _ v -> f v) t.files

(* Free extent slots form one stack per file: [free_slots] on top (slots
   released since the mount, or a fresh overflow block's), then
   [free_inline], the inline slots the mount found free, highest first.
   The mount leaves a file's free overflow slots in [free_slots] highest
   first, so the stack reads as the one descending list of every free
   slot it used to build. *)
let take_slot f =
  match f.free_slots with
  | s :: rest ->
      f.free_slots <- rest;
      s
  | [] ->
      if f.free_inline <> 0 then begin
        let s = ref (Layout.inline_extents - 1) in
        while f.free_inline land (1 lsl !s) = 0 do
          decr s
        done;
        f.free_inline <- f.free_inline lxor (1 lsl !s);
        !s
      end
      else if f.slot_cap < Layout.inline_extents then begin
        (* Inline slots not yet handed out. *)
        let s = f.slot_cap in
        f.slot_cap <- s + 1;
        s
      end
      else -1

let release_slot f slot = f.free_slots <- slot :: f.free_slots

let add_overflow_block f blk =
  let s = f.slot_cap in
  f.overflow <- f.overflow @ [ blk ];
  f.slot_cap <- s + Codec.Overflow.capacity;
  f.free_slots <- List.init (Codec.Overflow.capacity - 1) (fun i -> s + 1 + i);
  s

let alloc_ino t (cpu : Cpu.t) =
  let try_cpu c =
    note ~obj:(Printf.sprintf "fs.inodes[%d]" c) ~write:true ~site:"fs.alloc_ino";
    let n = t.free_top.(c) in
    if n = 0 then None
    else begin
      t.free_top.(c) <- n - 1;
      Some (Layout.ino_of t.layout ~cpu:c ~idx:t.free.(c).(n - 1))
    end
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
  let n = t.free_top.(c) in
  t.free.(c).(n) <- Layout.idx_of_ino t.layout ino;
  t.free_top.(c) <- n + 1

(* Stack [c] is filled bottom up, highest idx first, so the lowest free
   idx is handed out first. *)
let init_free t =
  for c = 0 to t.layout.Layout.cpus - 1 do
    let n = ref 0 in
    for idx = t.layout.Layout.inodes_per_cpu - 1 downto 0 do
      if not (c = 0 && idx = 0) then begin
        t.free.(c).(!n) <- idx;
        incr n
      end
    done;
    t.free_top.(c) <- !n
  done

let refuse t ino why = Int_hashtbl.replace t.bad_inos ino why
let is_bad t ino = Int_hashtbl.mem t.bad_inos ino
let refused t = Int_hashtbl.length t.bad_inos

(* Mount-time loading.  One scan owns one [slots] scratch buffer, sized
   for an overflow block's records, and every file reuses it: the chain
   walk reads each overflow header into it, and each slot region (the
   inline area, then each overflow block) is one bulk device read decoded
   in place.  Nothing here allocates per slot: a free inline slot is a
   bit of [free_inline], and only a free overflow slot is a list cell. *)
let rec read_chain t cpu slots blk acc =
  if blk = 0 then List.rev acc
  else begin
    Device.read t.dev cpu ~off:blk ~len:Codec.Overflow.header_bytes ~dst:slots ~dst_off:0;
    let next, _count = Codec.Overflow.decode_header slots in
    read_chain t cpu slots next (blk :: acc)
  end

(* Live records have len > 0; every other slot is free.  Slots are
   visited in ascending order and each free overflow slot is pushed, so
   the highest comes out first. *)
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
    else begin
      let slot = first_slot + i in
      if slot < Layout.inline_extents then f.free_inline <- f.free_inline lor (1 lsl slot)
      else f.free_slots <- slot :: f.free_slots
    end
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
  (* Free idx are pushed in ascending order; each CPU's stack is reversed
     once its table is swept, so the lowest free idx ends on top. *)
  let push_free c idx =
    t.free.(c).(t.free_top.(c)) <- idx;
    t.free_top.(c) <- t.free_top.(c) + 1
  in
  (* The header of inode [ino] (CPU [c], table index [idx]) sits at [off]
     in [b]. *)
  let visit c ~idx ino b off =
    if Codec.Inode.header_is_blank_at b off then push_free c idx
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
      else push_free c idx
    end
  in
  for c = 0 to layout.Layout.cpus - 1 do
    t.free_top.(c) <- 0;
    let base = ref 0 in
    while !base < layout.Layout.inodes_per_cpu do
      let n = min chunk_inodes (layout.Layout.inodes_per_cpu - !base) in
      let chunk_off = Layout.inode_off layout (Layout.ino_of layout ~cpu:c ~idx:!base) in
      (match Device.read t.dev cpu ~off:chunk_off ~len:(n * ib) ~dst:cbuf ~dst_off:0 with
      | () ->
          for i = 0 to n - 1 do
            let idx = !base + i in
            visit c ~idx (Layout.ino_of layout ~cpu:c ~idx) cbuf (i * ib)
          done
      | exception Device.Media_error _ ->
          for i = 0 to n - 1 do
            let idx = !base + i in
            let ino = Layout.ino_of layout ~cpu:c ~idx in
            match
              Device.read t.dev cpu ~off:(Layout.inode_off layout ino)
                ~len:Codec.Inode.header_bytes ~dst:hb ~dst_off:0
            with
            | () -> visit c ~idx ino hb 0
            | exception Device.Media_error _ -> refuse_ino ino "poisoned inode header"
          done);
      base := !base + n
    done;
    let stack = t.free.(c) in
    let n = t.free_top.(c) in
    for i = 0 to (n / 2) - 1 do
      let x = stack.(i) in
      stack.(i) <- stack.(n - 1 - i);
      stack.(n - 1 - i) <- x
    done
  done;
  !used
