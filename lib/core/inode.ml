open Repro_util
module Device = Repro_pmem.Device
module Site = Repro_pmem.Site
module Sched = Repro_sched.Sched
module Types = Repro_vfs.Types
module Dir_index = Repro_vfs.Dir_index
module Int_map = Repro_rbtree.Ordmap.Int_map
module Extent_tree = Repro_rbtree.Extent_tree
module Alloc = Repro_alloc.Aligned_alloc

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

(* Regular files a mount found valid but nobody has asked for yet: each
   one's decoded on-PM state, waiting in [desc] for its first lookup. *)
type pending = {
  at : int array;  (* [ino - 1] -> 1 + its descriptor's offset in [desc]; 0 if not pending *)
  names : string array;  (* [ino - 1] -> the name the directory pass found for it *)
  desc : Flat_vec.t;
  mutable count : int;  (* files still pending *)
}

(* The DRAM inode table and the scrub's refusals are only looked up,
   never traversed.  Inode numbers are dense, so the identity hash
   spreads them, and the table's [land (size - 1)] keeps a negative key
   from a corrupt dentry in range. *)
module Ino_hashtbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Fun.id
end)

type t = {
  dev : Device.t;
  layout : Layout.t;
  txns : Txn.t;
  files : file Ino_hashtbl.t;
  mutable pending : pending option;  (* [None] unless a scan left a file pending *)
  bad_inos : string Ino_hashtbl.t; (* ino -> why the scrub refused it *)
  free : int array array;
      (* per-CPU stacks of free inode idx, [free_top.(c)] deep: the top,
         at [free_top.(c) - 1], is handed out next *)
  free_top : int array;
}

(* Race-detector annotations (see {!Repro_race}) for the shared DRAM inode
   table and per-CPU free stacks — cross-CPU mutable state the per-CPU
   design is supposed to confine. *)
let note ~obj ~write ~site = if Sched.monitored () then Sched.access ~obj ~write ~site

(* The object name is built only under the monitor. *)
let note_free_stack c ~site =
  if Sched.monitored () then
    Sched.access ~obj:(Printf.sprintf "fs.inodes[%d]" c) ~write:true ~site

let create ~dev ~layout ~txns =
  {
    dev;
    layout;
    txns;
    files = Ino_hashtbl.create 1024;
    pending = None;
    bad_inos = Ino_hashtbl.create 8;
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

let make_file ?(entries = 0) ino kind ~lock =
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
    dir = (if Types.is_dir kind then Some (Dir_index.create ~entries Dram_rbtree) else None);
    free_dentries = [];
    lock;
    dirty_bytes = 0;
  }

let install t ino kind =
  let f = make_file ino kind ~lock:(Sched.create_mutex ()) in
  note ~obj:"fs.files" ~write:true ~site:"fs.install_file";
  Ino_hashtbl.replace t.files ino f;
  f

(* A descriptor is one valid inode's on-PM state as a run of ints in a
   [Flat_vec]:

     ino; mutex id; flags; size; nlink; parent; k; blk_1 .. blk_k; r;
     then r records of four ints: file_off; slot * 2 + asrc; phys; len

   flags has bit 0 for a directory and bit 1 for [xattr_align]; blk_i is
   the overflow chain in order, and the records are every live extent
   slot in ascending slot order.  A slot below the file's slot capacity
   with no record is free, so the free inline mask and free overflow
   slots need no ints of their own.  [parent] is filled in by the
   directory pass. *)
let d_mid = 1
let d_flags = 2
let d_size = 3
let d_nlink = 4
let d_parent = 5
let d_chain = 6

let desc_records v o = o + d_chain + Flat_vec.get v (o + d_chain) + 2

(* The dentry slots the directory pass reads for the directory at [o]:
   each record's, up to [size], as [Namespace.load_dir_index] counts
   them.  Neither the size nor an extent slot's length is checked at
   mount, so no record counts for more slots than the device holds. *)
let dentry_slots t v o ~size =
  let db = Codec.dentry_bytes in
  let cap = Device.size t.dev / db in
  let rb = desc_records v o in
  let n = ref 0 in
  for i = 0 to Flat_vec.get v (rb - 1) - 1 do
    let file_off = Flat_vec.get v (rb + (4 * i)) in
    let slots = min cap (Flat_vec.get v (rb + (4 * i) + 3) / db) in
    if file_off < size && slots > 0 then
      n := min cap (!n + min slots ((size - file_off + db - 1) / db))
  done;
  !n

(* Build exactly the file the eager loader built: the records inserted in
   slot order, every other slot below the capacity free, the overflow
   ones stacked so the highest comes out first.  A cache fill, not a
   table write: it notes nothing for the race detector. *)
let materialize t v o ~dname =
  let flags = Flat_vec.get v (o + d_flags) in
  let kind = if flags land 1 <> 0 then Types.Directory else Types.Regular in
  let size = Flat_vec.get v (o + d_size) in
  (* A directory's index is sized for the dentry slots its size spans,
     or for the slots its records hold if fewer: that bounds the names
     the directory pass adds. *)
  let entries =
    if flags land 1 = 0 then 0 else min (size / Codec.dentry_bytes) (dentry_slots t v o ~size)
  in
  let f =
    make_file ~entries (Flat_vec.get v o) kind
      ~lock:(Sched.create_reserved_mutex (Flat_vec.get v (o + d_mid)))
  in
  f.size <- size;
  f.nlink <- Flat_vec.get v (o + d_nlink);
  f.xattr_align <- flags land 2 <> 0;
  f.parent <- Flat_vec.get v (o + d_parent);
  f.dname <- dname;
  let k = Flat_vec.get v (o + d_chain) in
  for b = k downto 1 do
    f.overflow <- Flat_vec.get v (o + d_chain + b) :: f.overflow
  done;
  f.slot_cap <- Layout.inline_extents + (k * Codec.Overflow.capacity);
  let rb = desc_records v o in
  let r = Flat_vec.get v (rb - 1) in
  let next = ref 0 in
  for s = 0 to f.slot_cap - 1 do
    let p = rb + (4 * !next) in
    if !next < r && Flat_vec.get v (p + 1) lsr 1 = s then begin
      Int_map.insert f.records (Flat_vec.get v p)
        {
          slot = s;
          phys = Flat_vec.get v (p + 2);
          len = Flat_vec.get v (p + 3);
          asrc = Flat_vec.get v (p + 1) land 1 <> 0;
        };
      incr next
    end
    else if s < Layout.inline_extents then f.free_inline <- f.free_inline lor (1 lsl s)
    else f.free_slots <- s :: f.free_slots
  done;
  Ino_hashtbl.replace t.files f.ino f;
  f

(* [1 +] the offset of pending inode [ino]'s descriptor, or 0. *)
let pending_at t ino =
  match t.pending with
  | Some p when ino >= 1 && ino <= Array.length p.at -> p.at.(ino - 1)
  | _ -> 0

(* Take inode [ino] off the pending table, dropping the table once it
   holds no file. *)
let unpend t p ino =
  p.at.(ino - 1) <- 0;
  p.names.(ino - 1) <- "";
  p.count <- p.count - 1;
  if p.count = 0 then t.pending <- None

let materialize_pending t ino =
  match t.pending with
  | Some p when pending_at t ino > 0 ->
      let o = p.at.(ino - 1) - 1 and dname = p.names.(ino - 1) in
      unpend t p ino;
      Some (materialize t p.desc o ~dname)
  | _ -> None

let find t ino =
  note ~obj:"fs.files" ~write:false ~site:"fs.find_file";
  (match Ino_hashtbl.find_opt t.bad_inos ino with
  | Some why -> Types.err EIO "inode %d refused by scrub: %s" ino why
  | None -> ());
  match Ino_hashtbl.find_opt t.files ino with
  | Some f -> f
  | None -> (
      match materialize_pending t ino with
      | Some f -> f
      | None -> Types.err EBADF "stale inode %d" ino)

let find_opt t ino =
  match Ino_hashtbl.find_opt t.files ino with
  | Some _ as found -> found
  | None -> materialize_pending t ino

(* A pending inode is never in [files], so the pending table is asked
   first: the directory pass finds mostly pending children. *)
let set_name t ino ~parent ~name =
  match t.pending with
  | Some p when pending_at t ino > 0 ->
      Flat_vec.set p.desc (p.at.(ino - 1) - 1 + d_parent) parent;
      p.names.(ino - 1) <- name
  | _ -> (
      match Ino_hashtbl.find_opt t.files ino with
      | Some f ->
          f.parent <- parent;
          f.dname <- name
      | None -> ())

let forget t ~site ino =
  note ~obj:"fs.files" ~write:true ~site;
  Ino_hashtbl.remove t.files ino;
  match t.pending with Some p when pending_at t ino > 0 -> unpend t p ino | _ -> ()

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

(* Pop CPU [c]'s free stack: an inode number, or 0 when it is empty. *)
let pop_free t c =
  note_free_stack c ~site:"fs.alloc_ino";
  let n = t.free_top.(c) in
  if n = 0 then 0
  else begin
    t.free_top.(c) <- n - 1;
    Layout.ino_of t.layout ~cpu:c ~idx:t.free.(c).(n - 1)
  end

let rec steal t ~local c =
  if c >= t.layout.Layout.cpus then None
  else if c = local then steal t ~local (c + 1)
  else
    let ino = pop_free t c in
    if ino > 0 then Some ino else steal t ~local (c + 1)

let alloc_ino t (cpu : Cpu.t) =
  let local = cpu.id mod t.layout.Layout.cpus in
  let ino = pop_free t local in
  if ino > 0 then Some ino else steal t ~local 0

let release_ino t ino =
  let c = Layout.cpu_of_ino t.layout ino in
  note_free_stack c ~site:"fs.release_ino";
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

let refuse t ino why = Ino_hashtbl.replace t.bad_inos ino why
let is_bad t ino = Ino_hashtbl.mem t.bad_inos ino
let refused t = Ino_hashtbl.length t.bad_inos

(* Mount-time loading, in two steps.  The scan decodes every valid inode
   into a descriptor (see above), with the same device accesses in the
   same order as ever: a file's inline slot region is decoded from the
   table chunk that already holds it (the device charges it again as a
   read of its own), and the overflow chain's headers
   and slot regions are read into one [slots] buffer per scan, sized for
   an overflow block's records.  Directories are then materialized, in
   table order, because the directory pass needs them and follows that
   order; a regular file stays pending until {!find} or {!find_opt}
   first asks for it.

   The scan's hot loops read fields with [Bytes.get_int64_le] at
   {!Codec} offsets and store into per-scan int arrays: library modules
   are compiled with [-opaque] in dune's default profile, so no call
   across modules is inlined. *)
type scan = {
  slots : bytes;
  mutable d : int array;  (* the descriptor being built, appended in one piece *)
  mutable used : int array;  (* used extents, [off; len] pairs in scan order *)
  mutable n_used : int;
  (* The next inode the table sweep visits: its CPU, table index, number
     and device offset. *)
  mutable cpu_at : int;
  mutable idx_at : int;
  mutable ino_at : int;
  mutable addr_at : int;
}

let grown a need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let get_int b off = Int64.to_int (Bytes.get_int64_le b off)

(* Write the live records among the [count] slots numbered from
   [first_slot], whose bytes start at [at] in [b], into [d] from [p] on;
   return the end. *)
let decode_region d b at ~first_slot ~count p =
  let eb = Codec.Inode.extent_bytes and asrc = Codec.Inode.asrc_bit in
  let p = ref p in
  for i = 0 to count - 1 do
    let o = at + (i * eb) in
    let len_field = get_int b (o + Codec.Inode.extent_len_off) in
    let len = len_field land lnot asrc in
    if len > 0 then begin
      d.(!p) <- get_int b (o + Codec.Inode.extent_file_off_off);
      d.(!p + 1) <- ((first_slot + i) lsl 1) lor if len_field land asrc <> 0 then 1 else 0;
      d.(!p + 2) <- get_int b (o + Codec.Inode.extent_phys_off);
      d.(!p + 3) <- len;
      p := !p + 4
    end
  done;
  !p

let push_used s off len =
  let n = s.n_used in
  s.used <- grown s.used ((2 * n) + 2);
  s.used.(2 * n) <- off;
  s.used.((2 * n) + 1) <- len;
  s.n_used <- n + 1

(* Push a descriptor's extents (records from [rb], overflow blocks after
   [d_chain]) in the order the eager loader walked its record map:
   ascending file offset, where a repeated offset keeps only its highest
   slot (the map's last insertion), then the overflow blocks.  Records
   already in strictly ascending offset order, the common case, need no
   sort. *)
let add_used s rb ~r ~k =
  let d = s.d in
  let ascending = ref true in
  for i = 1 to r - 1 do
    if d.(rb + (4 * i)) <= d.(rb + (4 * (i - 1))) then ascending := false
  done;
  if !ascending then
    for i = 0 to r - 1 do
      push_used s d.(rb + (4 * i) + 2) d.(rb + (4 * i) + 3)
    done
  else begin
    let key i = d.(rb + (4 * i)) in
    let a = Array.init r Fun.id in
    Array.stable_sort (fun x y -> Int.compare (key x) (key y)) a;
    for j = 0 to r - 1 do
      if j + 1 = r || key a.(j + 1) <> key a.(j) then
        push_used s d.(rb + (4 * a.(j)) + 2) d.(rb + (4 * a.(j)) + 3)
    done
  end;
  for b = 1 to k do
    push_used s d.(d_chain + b) block
  done

(* Decode inode [ino], whose header (flags word [flags]) sits at [at] in
   [b] and whose record sits at [addr] on the device, into [s.d]; the
   inline slots are decoded from [b] when [b] holds the whole record
   ([in_chunk]), else read into [s.slots].  Returns the descriptor's
   length.  A media error escapes before anything is kept. *)
let decode t cpu s b at ~in_chunk ~ino ~addr ~mid ~flags =
  let d = grown s.d (d_chain + 2 + (4 * Layout.inline_extents)) in
  d.(0) <- ino;
  d.(d_mid) <- mid;
  d.(d_flags) <-
    (if flags land Codec.Inode.flag_dir <> 0 then 1 else 0)
    lor if flags land Codec.Inode.flag_xattr_align <> 0 then 2 else 0;
  d.(d_size) <- get_int b (at + Codec.Inode.size_off);
  d.(d_nlink) <- get_int b (at + Codec.Inode.nlink_off);
  d.(d_parent) <- 0;
  s.d <- d;
  let k = ref 0 and blk = ref (get_int b (at + Codec.Inode.overflow_off)) in
  while !blk <> 0 do
    Device.read t.dev cpu ~off:!blk ~len:Codec.Overflow.header_bytes ~dst:s.slots ~dst_off:0;
    incr k;
    s.d <- grown s.d (d_chain + !k + 1);
    s.d.(d_chain + !k) <- !blk;
    blk := fst (Codec.Overflow.decode_header s.slots)
  done;
  let k = !k and cap = Codec.Overflow.capacity and eb = Codec.Inode.extent_bytes in
  let rb = d_chain + k + 2 in
  s.d <- grown s.d (rb + (4 * (Layout.inline_extents + (k * cap))));
  let d = s.d in
  d.(d_chain) <- k;
  let inline_off = Codec.Inode.extent_slot_off 0 and inline_len = Layout.inline_extents * eb in
  let p =
    if in_chunk then begin
      Device.touch_read t.dev cpu ~off:(addr + inline_off) ~len:inline_len;
      decode_region d b (at + inline_off) ~first_slot:0 ~count:Layout.inline_extents rb
    end
    else begin
      Device.read t.dev cpu ~off:(addr + inline_off) ~len:inline_len ~dst:s.slots ~dst_off:0;
      decode_region d s.slots 0 ~first_slot:0 ~count:Layout.inline_extents rb
    end
  in
  let p = ref p in
  for i = 0 to k - 1 do
    Device.read t.dev cpu
      ~off:(d.(d_chain + 1 + i) + Codec.Overflow.record_off 0)
      ~len:(cap * eb) ~dst:s.slots ~dst_off:0;
    p := decode_region d s.slots 0 ~first_slot:(Layout.inline_extents + (i * cap)) ~count:cap !p
  done;
  let r = (!p - rb) / 4 in
  d.(rb - 1) <- r;
  add_used s rb ~r ~k;
  !p

let pending_of t =
  match t.pending with
  | Some p -> p
  | None ->
      let n = Layout.max_ino t.layout in
      let p =
        {
          at = Array.make n 0;
          names = Array.make n "";
          desc = Flat_vec.create ~capacity:(2 * n) ();
          count = 0;
        }
      in
      t.pending <- Some p;
      p

let scan_tables t cpu ~on_refuse =
  let layout = t.layout in
  (* Inode tables are contiguous per CPU, so the header sweep reads whole
     table chunks in one device access and tests, verifies and decodes
     each inode in place, in the device's own bytes.  A poisoned line
     anywhere in a chunk fails the bulk read before any cost is charged;
     that chunk falls back to per-header reads into [hb] so refusal stays
     per-inode. *)
  let chunk_inodes = 256 in
  let ib = Layout.inode_bytes in
  let s =
    {
      slots = Bytes.create (Codec.Overflow.capacity * Codec.Inode.extent_bytes);
      d = [||];
      used = [||];
      n_used = 0;
      cpu_at = 0;
      idx_at = 0;
      ino_at = 0;
      addr_at = 0;
    }
  in
  let dirs = Flat_vec.create ~capacity:8 () in
  t.pending <- None;
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
  (* The header of inode [ino] (CPU [c], table index [idx], on the device
     at [addr]) sits at [at] in [b]. *)
  let visit c ~idx ~ino ~addr b at ~in_chunk =
    (* All eight header words zero: a slot never written.  Tested here
       rather than through [Codec.Inode.header_is_blank]: it runs for
       every table slot, and a call across modules is never inlined in
       the default build. *)
    if
      Int64.equal 0L
        (Int64.logor
           (Int64.logor
              (Int64.logor (Bytes.get_int64_le b at) (Bytes.get_int64_le b (at + 8)))
              (Int64.logor (Bytes.get_int64_le b (at + 16)) (Bytes.get_int64_le b (at + 24))))
           (Int64.logor
              (Int64.logor (Bytes.get_int64_le b (at + 32)) (Bytes.get_int64_le b (at + 40)))
              (Int64.logor (Bytes.get_int64_le b (at + 48)) (Bytes.get_int64_le b (at + 56)))))
    then push_free c idx
    else if not (Codec.Inode.header_csum_ok_at b at) then
      (* A non-blank header failing its CRC cannot be trusted in any
         field — the corrupt bit may be [valid] itself — so the slot is
         never scrubbed or reused, only refused. *)
      refuse_ino ino "inode header failed CRC"
    else begin
      let flags = get_int b (at + Codec.Inode.flags_off) in
      if flags land Codec.Inode.flag_valid <> 0 then begin
        note ~obj:"fs.files" ~write:true ~site:"fs.install_file";
        let mid = Sched.reserve_mutex_id () in
        match decode t cpu s b at ~in_chunk ~ino ~addr ~mid ~flags with
        | len ->
            if flags land Codec.Inode.flag_dir <> 0 then Flat_vec.append dirs s.d ~len
            else begin
              let p = pending_of t in
              p.at.(ino - 1) <- Flat_vec.length p.desc + 1;
              p.count <- p.count + 1;
              Flat_vec.append p.desc s.d ~len
            end
        | exception Device.Media_error _ ->
            forget t ~site:"fs.scrub" ino;
            refuse_ino ino "media error loading extent metadata"
      end
      else push_free c idx
    end
  in
  (* The read of a chunk hands its inodes to [visit_run] in runs of the
     device's own bytes (a table is page-aligned, so no run splits an
     inode). *)
  let visit_run b at len =
    assert (len mod ib = 0);
    for j = 0 to (len / ib) - 1 do
      visit s.cpu_at ~idx:s.idx_at ~ino:s.ino_at ~addr:s.addr_at b (at + (j * ib)) ~in_chunk:true;
      s.idx_at <- s.idx_at + 1;
      s.ino_at <- s.ino_at + 1;
      s.addr_at <- s.addr_at + ib
    done
  in
  for c = 0 to layout.Layout.cpus - 1 do
    t.free_top.(c) <- 0;
    let base = ref 0 in
    while !base < layout.Layout.inodes_per_cpu do
      let n = min chunk_inodes (layout.Layout.inodes_per_cpu - !base) in
      let ino0 = Layout.ino_of layout ~cpu:c ~idx:!base in
      let chunk_off = Layout.inode_off layout ino0 in
      s.cpu_at <- c;
      s.idx_at <- !base;
      s.ino_at <- ino0;
      s.addr_at <- chunk_off;
      (match Device.read_in_place t.dev cpu ~off:chunk_off ~len:(n * ib) visit_run with
      | () -> ()
      | exception Device.Media_error _ ->
          let hb = Bytes.create Codec.Inode.header_bytes in
          for i = 0 to n - 1 do
            let addr = chunk_off + (i * ib) in
            match
              Device.read t.dev cpu ~off:addr ~len:Codec.Inode.header_bytes ~dst:hb ~dst_off:0
            with
            | () -> visit c ~idx:(!base + i) ~ino:(ino0 + i) ~addr hb 0 ~in_chunk:false
            | exception Device.Media_error _ -> refuse_ino (ino0 + i) "poisoned inode header"
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
  let built = ref [] and o = ref 0 in
  while !o < Flat_vec.length dirs do
    built := materialize t dirs !o ~dname:"" :: !built;
    let rb = desc_records dirs !o in
    o := rb + (4 * Flat_vec.get dirs (rb - 1))
  done;
  (List.rev !built, { Alloc.ext = s.used; n = s.n_used })

(* Claim the used extents in the metadata pool in [meta] and keep the
   others, both in scan order: that order decides which double use is
   reported first, and which of two data extents at one offset the
   rebuild names.  The data pairs are packed to the front in place. *)
let split_used t (used : Alloc.used) ~meta =
  let e = used.ext and n = used.n in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let off = e.(2 * i) and len = e.((2 * i) + 1) in
    if Layout.in_meta_pool t.layout ~off ~len then begin
      if not (Extent_tree.alloc_exact meta ~off ~len) then
        Types.err EINVAL "corrupt image: metadata block %d double-used" off
    end
    else begin
      e.(2 * !m) <- off;
      e.((2 * !m) + 1) <- len;
      incr m
    end
  done;
  { Alloc.ext = e; n = !m }
