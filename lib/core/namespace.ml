open Repro_util
module Device = Repro_pmem.Device
module Sched = Repro_sched.Sched
module Types = Repro_vfs.Types
module Path = Repro_vfs.Path
module Dir_index = Repro_vfs.Dir_index
module Int_map = Repro_rbtree.Ordmap.Int_map

let block = Units.base_page

type t = { dev : Device.t; txns : Txn.t; inodes : Inode.t; map : Extent_map.t }

let create ~dev ~txns ~inodes ~map = { dev; txns; inodes; map }

(* ------------------------------------------------------------------ *)
(* Path resolution                                                     *)

let root_ino = 1

let resolve t cpu path =
  let parts = Path.split path in
  let rec walk ino = function
    | [] -> ino
    | name :: rest -> (
        let f = Inode.find t.inodes ino in
        match f.dir with
        | None -> Types.err ENOTDIR "%s" path
        | Some idx -> (
            match Dir_index.lookup idx cpu name with
            | Some (child, _) -> walk child rest
            | None -> Types.err ENOENT "%s" path))
  in
  walk root_ino parts

let resolve_parent t cpu path =
  let dir = Path.dirname path and name = Path.basename path in
  let ino = resolve t cpu dir in
  let f = Inode.find t.inodes ino in
  if not (Types.is_dir f.kind) then Types.err ENOTDIR "%s" dir;
  (f, name)

(* ------------------------------------------------------------------ *)
(* Directory entries on PM                                             *)

(* A directory's data blocks are arrays of 64B dentry slots.  Finding a
   free slot may extend the directory by one 4K block. *)
let take_dentry_slot t cpu txn (dirf : Inode.file) =
  match dirf.free_dentries with
  | s :: rest ->
      dirf.free_dentries <- rest;
      s
  | [] ->
      let old_size = dirf.size in
      let phys = Extent_map.zeroed_meta_block t.map cpu in
      Extent_map.add_record t.map cpu txn dirf ~file_off:old_size ~phys ~len:block
        ~asrc:false;
      dirf.size <- old_size + block;
      Inode.persist_header t.inodes cpu txn dirf;
      let slots = block / Codec.dentry_bytes in
      dirf.free_dentries <-
        List.init (slots - 1) (fun i -> phys + ((i + 1) * Codec.dentry_bytes));
      phys

let write_dentry t cpu txn ~slot_phys ~ino ~name =
  Txn.meta_write t.txns cpu txn ~addr:slot_phys (Codec.Dentry.encode { ino; name })

let clear_dentry t cpu txn ~slot_phys =
  Txn.meta_write t.txns cpu txn ~addr:slot_phys (Bytes.copy Codec.Dentry.free_slot)

(* ------------------------------------------------------------------ *)
(* Journaled namespace operations (§3.4: one transaction each)         *)

(* Journaled creation of an inode + dentry (create/mkdir share this). *)
let create_node t cpu (parent : Inode.file) name kind ~xattr_align =
  (match Dir_index.lookup (Option.get parent.dir) cpu name with
  | Some _ -> Types.err EEXIST "%s" name
  | None -> ());
  let ino =
    match Inode.alloc_ino t.inodes cpu with
    | Some ino -> ino
    | None -> Types.err ENOSPC "out of inodes"
  in
  let f = Inode.install t.inodes ino kind in
  f.xattr_align <- xattr_align;
  Inode.init_slots t.inodes cpu ino;
  (try
     Txn.with_txn t.txns cpu ~reserve:10 (fun txn ->
         Inode.persist_header t.inodes cpu txn f;
         let slot_phys = take_dentry_slot t cpu txn parent in
         write_dentry t cpu txn ~slot_phys ~ino ~name;
         Dir_index.add (Option.get parent.dir) cpu ~name ~ino ~slot:slot_phys;
         if Types.is_dir kind then begin
           parent.nlink <- parent.nlink + 1;
           Inode.persist_header t.inodes cpu txn parent
         end)
   with e ->
     Inode.forget t.inodes ~site:"fs.create_undo" ino;
     Inode.release_ino t.inodes ino;
     raise e);
  f.parent <- parent.ino;
  f.dname <- name;
  f

let mkdir t cpu path =
  let parent, name = resolve_parent t cpu path in
  Sched.with_lock parent.lock (fun () ->
      ignore (create_node t cpu parent name Types.Directory ~xattr_align:false))

let create_file t cpu path =
  let parent, name = resolve_parent t cpu path in
  Sched.with_lock parent.lock (fun () ->
      create_node t cpu parent name Types.Regular ~xattr_align:parent.xattr_align)

let unlink t cpu path =
  let parent, name = resolve_parent t cpu path in
  Sched.with_lock parent.lock (fun () ->
      let idx = Option.get parent.dir in
      match Dir_index.lookup idx cpu name with
      | None -> Types.err ENOENT "%s" path
      | Some (ino, slot_phys) ->
          let f = Inode.find t.inodes ino in
          if Types.is_dir f.kind then Types.err EISDIR "%s" path;
          Sched.with_lock f.lock (fun () ->
              Txn.with_txn t.txns cpu ~reserve:6 (fun txn ->
                  clear_dentry t cpu txn ~slot_phys;
                  f.nlink <- f.nlink - 1;
                  if f.nlink = 0 then Inode.persist_invalid t.inodes cpu txn f
                  else Inode.persist_header t.inodes cpu txn f);
              Dir_index.remove idx cpu name;
              parent.free_dentries <- slot_phys :: parent.free_dentries;
              if f.nlink = 0 then begin
                Extent_map.free_file_space t.map f;
                Inode.forget t.inodes ~site:"fs.unlink" ino;
                Inode.release_ino t.inodes ino
              end))

let rmdir t cpu path =
  let parent, name = resolve_parent t cpu path in
  Sched.with_lock parent.lock (fun () ->
      let idx = Option.get parent.dir in
      match Dir_index.lookup idx cpu name with
      | None -> Types.err ENOENT "%s" path
      | Some (ino, slot_phys) ->
          let f = Inode.find t.inodes ino in
          if not (Types.is_dir f.kind) then Types.err ENOTDIR "%s" path;
          if Dir_index.size (Option.get f.dir) > 0 then Types.err ENOTEMPTY "%s" path;
          Txn.with_txn t.txns cpu ~reserve:6 (fun txn ->
              clear_dentry t cpu txn ~slot_phys;
              Inode.persist_invalid t.inodes cpu txn f;
              parent.nlink <- parent.nlink - 1;
              Inode.persist_header t.inodes cpu txn parent);
          Dir_index.remove idx cpu name;
          parent.free_dentries <- slot_phys :: parent.free_dentries;
          Extent_map.free_file_space t.map f;
          Inode.forget t.inodes ~site:"fs.rmdir" ino;
          Inode.release_ino t.inodes ino)

let rename t cpu ~old_path ~new_path =
  let src_parent, src_name = resolve_parent t cpu old_path in
  let dst_parent, dst_name = resolve_parent t cpu new_path in
  (* Lock ordering by inode number prevents ABBA deadlocks. *)
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
      | Some (ino, src_slot) ->
          let moved = Inode.find t.inodes ino in
          let replaced =
            match Dir_index.lookup dst_idx cpu dst_name with
            | Some (dst_ino, _) when dst_ino = ino -> None
            | Some (dst_ino, _) ->
                let victim = Inode.find t.inodes dst_ino in
                if Types.is_dir victim.kind then Types.err EISDIR "%s" new_path;
                Some victim
            | None -> None
          in
          let dst_slot_used = ref 0 in
          Txn.with_txn t.txns cpu ~reserve:10 (fun txn ->
              (match replaced with
              | Some victim ->
                  (* Re-point the existing dentry; invalidate the victim. *)
                  let _, dst_slot = Option.get (Dir_index.lookup dst_idx cpu dst_name) in
                  dst_slot_used := dst_slot;
                  write_dentry t cpu txn ~slot_phys:dst_slot ~ino ~name:dst_name;
                  victim.nlink <- victim.nlink - 1;
                  if victim.nlink = 0 then Inode.persist_invalid t.inodes cpu txn victim
              | None ->
                  let dst_slot = take_dentry_slot t cpu txn dst_parent in
                  dst_slot_used := dst_slot;
                  write_dentry t cpu txn ~slot_phys:dst_slot ~ino ~name:dst_name);
              clear_dentry t cpu txn ~slot_phys:src_slot;
              if Types.is_dir moved.kind && src_parent.ino <> dst_parent.ino then begin
                src_parent.nlink <- src_parent.nlink - 1;
                dst_parent.nlink <- dst_parent.nlink + 1;
                Inode.persist_header t.inodes cpu txn src_parent;
                Inode.persist_header t.inodes cpu txn dst_parent
              end);
          Dir_index.remove src_idx cpu src_name;
          src_parent.free_dentries <- src_slot :: src_parent.free_dentries;
          Dir_index.remove dst_idx cpu dst_name;
          Dir_index.add dst_idx cpu ~name:dst_name ~ino ~slot:!dst_slot_used;
          moved.parent <- dst_parent.ino;
          moved.dname <- dst_name;
          (match replaced with
          | Some victim when victim.nlink = 0 ->
              Extent_map.free_file_space t.map victim;
              Inode.forget t.inodes ~site:"fs.rename" victim.ino;
              Inode.release_ino t.inodes victim.ino
          | _ -> ()))

let readdir t cpu path =
  let ino = resolve t cpu path in
  let f = Inode.find t.inodes ino in
  match f.dir with
  | None -> Types.err ENOTDIR "%s" path
  | Some idx ->
      (* Charge a DRAM walk per entry. *)
      Simclock.advance cpu.Cpu.clock (Dir_index.size idx * 12);
      List.map fst (Dir_index.entries idx)

(* ------------------------------------------------------------------ *)
(* Mount-time index rebuild                                            *)

let load_dir_index t cpu (f : Inode.file) =
  let idx = Option.get f.dir in
  let free = ref [] in
  (* One read per directory extent, its dentries decoded in place in the
     device's own bytes: a dentry block is page-aligned, so no run the
     device hands over splits a dentry.  [phys] follows the runs.  An
     extent slot carries no checksum, so a misaligned one is refused
     rather than read at shifted offsets. *)
  Int_map.iter f.records (fun file_off (r : Inode.record) ->
      if r.phys mod Codec.dentry_bytes <> 0 then
        Types.err EINVAL "corrupt image: directory %d extent at %d misaligned" f.ino r.phys;
      let slots = r.len / Codec.dentry_bytes in
      let live =
        if f.size <= file_off then 0
        else min slots ((f.size - file_off + Codec.dentry_bytes - 1) / Codec.dentry_bytes)
      in
      if live > 0 then begin
        let phys = ref r.phys in
        Device.read_in_place t.dev cpu ~off:r.phys ~len:(live * Codec.dentry_bytes)
          (fun b at len ->
            for i = 0 to (len / Codec.dentry_bytes) - 1 do
              let at = at + (i * Codec.dentry_bytes) in
              let ino = Int64.to_int (Bytes.get_int64_le b (at + Codec.Dentry.ino_off)) in
              if ino = 0 then free := !phys :: !free
              else begin
                let name =
                  Bytes.sub_string b (at + Codec.Dentry.name_off)
                    (Char.code (Bytes.get b (at + Codec.Dentry.name_len_off)))
                in
                Dir_index.add idx cpu ~name ~ino ~slot:!phys;
                Inode.set_name t.inodes ino ~parent:f.ino ~name
              end;
              phys := !phys + Codec.dentry_bytes
            done)
      end);
  f.free_dentries <- !free

(* ------------------------------------------------------------------ *)
(* Rewriter support (§3.6 atomic swap)                                 *)

let rewrite_dentry_slot _t cpu ~(parent : Inode.file) ~name =
  match Dir_index.lookup (Option.get parent.dir) cpu name with
  | Some (_, slot_phys) -> slot_phys
  | None -> Types.err ENOENT "rewrite: dentry for %s vanished" name

let retarget_index _t cpu ~(parent : Inode.file) ~name ~ino ~slot =
  let idx = Option.get parent.dir in
  Dir_index.remove idx cpu name;
  Dir_index.add idx cpu ~name ~ino ~slot
