(** SplitFS model (Kadekodi et al., SOSP '19): a user-space layer over
    ext4-DAX.

    Reads and in-place overwrites go straight to PM through memory maps —
    no kernel trap, which is SplitFS's speedup.  Appends are staged in
    pre-allocated staging extents and {e relinked} into the target file at
    fsync with one metadata journal operation (no data copy).  All other
    metadata operations pass through to ext4-DAX, so SplitFS inherits
    JBD2's poor scalability for creates and deletes (§5.5, §5.6). *)

open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Fd_table = Repro_vfs.Fd_table
module Block_map = Repro_vfs.Block_map
module Alloc = Repro_alloc.Pool_alloc
module Site = Repro_pmem.Site

(* Durability-lint sites: label SplitFS's user-space persistence regions
   so sanitizer/faultcheck findings name the layer at fault. *)
let site_mmap = Site.v "splitfs" "mmap_write"
let site_staging = Site.v "splitfs" "staging"

let name = "SplitFS"

(* Per-file staging state: appended-but-not-relinked extents. *)
type staged = {
  smap : Block_map.t; (* staged file_off -> phys (block-granular) *)
  mutable sbytes : int; (* staged volume *)
  mutable s_size : int; (* logical end of staged data *)
}

type t = { inner : Basefs.t; staging : (int, staged) Hashtbl.t }

let format dev cfg = { inner = Ext4_dax.format dev cfg; staging = Hashtbl.create 64 }

let mount _dev _cfg =
  Types.err EINVAL "baseline models do not support mount-from-image (see DESIGN.md)"

let unmount t cpu = Basefs.unmount t.inner cpu
let recovery_ns _ = 0
let device t = Basefs.device t.inner
let config t = Basefs.config t.inner

(* Namespace: pure pass-through to ext4-DAX. *)
let mkdir t = Basefs.mkdir t.inner
let rmdir t = Basefs.rmdir t.inner
let create t = Basefs.create t.inner
let openf t = Basefs.openf t.inner
let close t = Basefs.close t.inner
let rename t = Basefs.rename t.inner
let readdir t = Basefs.readdir t.inner
let exists t = Basefs.exists t.inner
let file_extents t = Basefs.file_extents t.inner
let statfs t = Basefs.statfs t.inner
let set_xattr_align t = Basefs.set_xattr_align t.inner
let mmap_backing t = Basefs.mmap_backing t.inner

let dev_of t = Basefs.device t.inner

let staged_for t ino =
  match Hashtbl.find_opt t.staging ino with
  | Some s -> s
  | None ->
      let s = { smap = Block_map.create (); sbytes = 0; s_size = 0 } in
      Hashtbl.replace t.staging ino s;
      s

let staged_size s = s.s_size

let file_size t fd =
  let ino = (Fd_table.get t.inner.ns.fds fd).ino in
  let base = Basefs.file_size t.inner fd in
  match Hashtbl.find_opt t.staging ino with
  | Some s -> max base (staged_size s)
  | None -> base

let unlink t cpu path =
  (* Drop any staging for the victim. *)
  (match Dram_ns.resolve t.inner.ns cpu path with
  | ino -> (
      match Hashtbl.find_opt t.staging ino with
      | Some s ->
          List.iter
            (fun (_, phys, len) -> Alloc.free t.inner.ns.alloc ~off:phys ~len)
            (Block_map.extents s.smap);
          Hashtbl.remove t.staging ino
      | None -> ())
  | exception Types.Error ((ENOENT | ENOTDIR), _) -> ());
  Basefs.unlink t.inner cpu path

let stat t cpu path =
  let st = Basefs.stat t.inner cpu path in
  match Hashtbl.find_opt t.staging st.Types.st_ino with
  | Some s -> { st with Types.st_size = max st.st_size (staged_size s) }
  | None -> st

(* Overwrites within the committed size bypass the kernel entirely (mmap
   path: no syscall charge).  Writes past EOF are staged appends. *)
let pwrite_sub t cpu fd ~off ~src ~src_off ~len =
  let f = Dram_ns.check_write t.inner.ns fd ~off ~src ~src_off ~len in
  if len = 0 then 0
  else if off + len <= f.size && Block_map.covered f.bmap ~file_off:off ~len
  then begin
    (* User-space overwrite through the file's mmap. *)
    Dram_ns.write_mapped (dev_of t) cpu ~site:site_mmap f ~off ~src ~src_off ~len;
    Device.with_site (dev_of t) site_mmap (fun () -> Device.fence (dev_of t) cpu);
    ignore (Basefs.clear_unwritten f ~off ~len);
    len
  end
  else begin
    (* Staged append path: allocate staging space, write there; the
       relink happens at fsync. *)
    let s = staged_for t f.ino in
    let exts = Dram_ns.alloc t.inner.ns ~cpu:0 ~len:(Units.round_up len Units.base_page) in
    let fo = ref off and written = ref 0 in
    Device.with_site (dev_of t) site_staging (fun () ->
        List.iter
          (fun (ext : Alloc.extent) ->
            let n = min ext.len (len - !written) in
            if n > 0 then
              Device.write_string_nt (dev_of t) cpu ~off:ext.off ~src
                ~src_off:(src_off + !written) ~len:n;
            (* Staged map may overlap an earlier staged write; replace. *)
            let _ = Block_map.remove_range s.smap ~file_off:!fo ~len:ext.len in
            Block_map.insert s.smap ~file_off:!fo ~phys:ext.off ~len:ext.len;
            fo := !fo + ext.len;
            written := !written + n)
          exts;
        Device.fence (dev_of t) cpu);
    s.sbytes <- s.sbytes + len;
    s.s_size <- max s.s_size (off + len);
    len
  end

let pwrite t cpu fd ~off ~src =
  pwrite_sub t cpu fd ~off ~src ~src_off:0 ~len:(String.length src)

let append t cpu fd ~src = pwrite t cpu fd ~off:(file_size t fd) ~src

let pread t cpu fd ~off ~len =
  let ino = (Fd_table.get t.inner.ns.fds fd).ino in
  match Hashtbl.find_opt t.staging ino with
  | None | Some { sbytes = 0; _ } ->
      (* No kernel trap for mmap reads: charge only the PM access by
         reading through the inner FS minus the syscall overhead. *)
      Basefs.pread t.inner cpu fd ~off ~len
  | Some s ->
      let f = Dram_ns.check_read t.inner.ns fd ~off ~len in
      let total = file_size t fd in
      let len = max 0 (min len (total - off)) in
      if len = 0 then ""
      else begin
        let dst = Bytes.make len '\000' in
        let cur = ref off in
        while !cur < off + len do
          match Block_map.lookup s.smap ~file_off:!cur with
          | Some (phys, run) ->
              let n = min (off + len - !cur) run in
              Device.read (dev_of t) cpu ~off:phys ~len:n ~dst ~dst_off:(!cur - off);
              cur := !cur + n
          | None -> (
              (* Read committed bytes only up to the next staged extent,
                 which must win over stale committed data. *)
              let limit =
                match Block_map.next_mapped s.smap ~file_off:(!cur + 1) with
                | Some o -> min (off + len) o
                | None -> off + len
              in
              match Block_map.lookup f.bmap ~file_off:!cur with
              | Some (phys, run) ->
                  let n = min (limit - !cur) run in
                  Device.read (dev_of t) cpu ~off:phys ~len:n ~dst ~dst_off:(!cur - off);
                  Basefs.zero_unwritten f ~off:!cur ~len:n dst ~dst_off:(!cur - off);
                  cur := !cur + n
              | None -> cur := max (!cur + 1) limit)
        done;
        Bytes.unsafe_to_string dst
      end

(* fsync: the relink — staged extents become file extents via one ext4
   journal transaction; no data copy. *)
let fsync t cpu fd =
  let e = Fd_table.get t.inner.ns.fds fd in
  (match Hashtbl.find_opt t.staging e.ino with
  | Some s when Block_map.extents s.smap <> [] ->
      let f = Dram_ns.find_file t.inner.ns e.ino in
      List.iter
        (fun (fo, phys, len) ->
          Dram_ns.remap t.inner.ns f ~file_off:fo ~len [ { Alloc.off = phys; len } ] ~commit:ignore;
          ignore (Basefs.clear_unwritten f ~off:fo ~len))
        (Block_map.extents s.smap);
      let new_size = max f.size (staged_size s) in
      f.size <- new_size;
      Block_map.clear s.smap;
      s.sbytes <- 0;
      s.s_size <- 0;
      (* One metadata journal transaction on the ext4 journal. *)
      Basefs.meta_sync t.inner cpu ~addr:f.p.meta_addr ~bytes:128
  | _ -> ());
  Basefs.fsync t.inner cpu fd

let fallocate t = Basefs.fallocate t.inner

(* Truncation must see staged appends: relink first, then delegate. *)
let ftruncate t cpu fd new_size =
  fsync t cpu fd;
  Basefs.ftruncate t.inner cpu fd new_size
