(* Planted-corruption scenarios for winefs_fsck: each one damages a real
   image in a precisely-known way (raw slot surgery, a crash image, a
   poisoned line), runs fsck, and checks the repair is exactly the
   intended one — then that a second fsck finds nothing (convergence)
   and the image remounts writable.  Backs `pmcheck fsckcheck`. *)

open Repro_util
module Device = Repro_pmem.Device
module Site = Repro_pmem.Site
module Types = Repro_vfs.Types
module Fs = Winefs.Fs
module Layout = Winefs.Layout
module Codec = Winefs.Codec

type outcome = { s_name : string; ok : bool; detail : string }

let site_surgery = Site.v "fsck" "scenario-surgery"

(* Tiny tree signature: sorted (path, kind, size) of every object. *)
let rec tree_sig fs cpu path acc =
  List.fold_left
    (fun acc name ->
      let child = Repro_vfs.Path.concat path name in
      let st = Fs.stat fs cpu child in
      match st.Types.st_kind with
      | Types.Directory -> tree_sig fs cpu child ((child, "dir", 0) :: acc)
      | Types.Regular -> (child, "file", st.st_size) :: acc)
    acc (Fs.readdir fs cpu path)

let signature fs cpu = List.sort compare (tree_sig fs cpu "/" [])

let fresh ~device_size =
  let dev = Device.create ~cost:Device.Cost.free ~size:device_size () in
  let cfg = Types.config ~cpus:2 ~inodes_per_cpu:256 () in
  let fs = Fs.format dev cfg in
  (dev, cfg, fs)

let layout_of dev (cfg : Types.config) =
  Layout.compute ~size:(Device.size dev) ~cpus:cfg.cpus ~inodes_per_cpu:cfg.inodes_per_cpu

(* Raw repair-bench writes used to plant corruption. *)
let surgery_write dev cpu ~off b =
  Device.with_site dev site_surgery (fun () ->
      Device.write dev cpu ~off ~src:b ~src_off:0 ~len:(Bytes.length b);
      Device.persist dev cpu ~off ~len:(Bytes.length b))

let has_rule (r : Fsck.report) rule = List.exists (fun f -> f.Fsck.rule = rule) r.findings

let fail s_name fmt = Printf.ksprintf (fun detail -> { s_name; ok = false; detail }) fmt
let pass s_name detail = { s_name; ok = true; detail }

(* Remount must be writable and pass a probe mutation; returns an error
   string on failure. *)
let writable_remount dev cfg cpu =
  match Fs.mount dev cfg with
  | exception e ->
      Error
        (Printf.sprintf "remount raised %s\n%s" (Printexc.to_string e)
           (Printexc.get_backtrace ()))
  | fs ->
      if Fs.read_only fs then Error "remount is degraded (read-only)"
      else begin
        let fd = Fs.create fs cpu "/__fsck_probe" in
        let _ = Fs.pwrite fs cpu fd ~off:0 ~src:"probe" in
        Fs.close fs cpu fd;
        Fs.unlink fs cpu "/__fsck_probe";
        Ok fs
      end

(* 1. A cleanly-unmounted image: fsck finds nothing, repair mode writes
   nothing, and two check runs render byte-identical reports. *)
let clean_image ~device_size =
  let name = "clean-image" in
  let cpu = Cpu.make ~id:0 () in
  let dev, cfg, fs = fresh ~device_size in
  Fs.mkdir fs cpu "/d";
  let fd = Fs.create fs cpu "/d/a" in
  let _ = Fs.pwrite fs cpu fd ~off:0 ~src:(String.make 5000 'a') in
  Fs.close fs cpu fd;
  let fd = Fs.create fs cpu "/b" in
  let _ = Fs.append fs cpu fd ~src:"clean image" in
  Fs.close fs cpu fd;
  let expect = signature fs cpu in
  Fs.unmount fs cpu;
  let r1 = Fsck.run ~repair:false dev in
  let r2 = Fsck.run ~repair:false dev in
  if not r1.Fsck.clean then fail name "check found %d findings on a clean image" (List.length r1.findings)
  else if Fsck.to_string r1 <> Fsck.to_string r2 then fail name "check report is not byte-stable"
  else
    let before = Bytes.create 4096 in
    Device.peek dev ~off:0 ~len:4096 ~dst:before ~dst_off:0;
    let r3 = Fsck.run ~repair:true dev in
    let after = Bytes.create 4096 in
    Device.peek dev ~off:0 ~len:4096 ~dst:after ~dst_off:0;
    if not r3.Fsck.clean then fail name "repair found findings on a clean image"
    else if before <> after then fail name "repair mode wrote to a clean image"
    else
      match writable_remount dev cfg cpu with
      | Error e -> fail name "%s" e
      | Ok fs2 ->
          if signature fs2 cpu <> expect then
            fail name "tree changed across fsck"
          else pass name "clean, byte-stable, no-op repair"

(* Build the double-alloc image: /a and /b one block each, then /b's
   first extent slot repointed at /a's block. *)
let plant_double_alloc ~device_size =
  let cpu = Cpu.make ~id:0 () in
  let dev, cfg, fs = fresh ~device_size in
  let write path src =
    let fd = Fs.create fs cpu path in
    let _ = Fs.pwrite fs cpu fd ~off:0 ~src in
    Fs.close fs cpu fd
  in
  write "/a" (String.make 4096 'A');
  write "/b" (String.make 4096 'B');
  let phys_a = match Fs.file_extents fs cpu "/a" with (_, p, _) :: _ -> p | [] -> 0 in
  let ino_b = (Fs.stat fs cpu "/b").Types.st_ino in
  Fs.unmount fs cpu;
  let layout = layout_of dev cfg in
  let slot_off = Layout.inode_off layout ino_b + Codec.Inode.extent_slot_off 0 in
  let b = Bytes.create Codec.Inode.extent_bytes in
  Device.peek dev ~off:slot_off ~len:Codec.Inode.extent_bytes ~dst:b ~dst_off:0;
  let file_off, _, len_field = Codec.Inode.decode_extent b in
  surgery_write dev cpu ~off:slot_off (Codec.Inode.encode_extent ~file_off ~phys:phys_a ~len:len_field);
  (dev, cfg, cpu)

(* 2. Double-allocated extent: the later claimer is cloned onto fresh
   space; both files stay readable and a second fsck is clean. *)
let double_alloc ~device_size =
  let name = "double-alloc" in
  let dev, cfg, cpu = plant_double_alloc ~device_size in
  let dev2, _, _ = plant_double_alloc ~device_size in
  let chk = Fsck.run ~repair:false dev in
  let chk2 = Fsck.run ~repair:false dev2 in
  if Fsck.to_string chk <> Fsck.to_string chk2 then
    fail name "identical plantings produced different reports"
  else if not (has_rule chk "extent-double-alloc") then
    fail name "check did not flag the double allocation"
  else
    let rep = Fsck.run ~repair:true dev in
    if not (has_rule rep "extent-double-alloc") then fail name "repair did not flag it"
    else
      match writable_remount dev cfg cpu with
      | Error e -> fail name "%s" e
      | Ok fs2 -> (
          let read path =
            let fd = Fs.openf fs2 cpu path Types.o_rdonly in
            let s = Fs.pread fs2 cpu fd ~off:0 ~len:4096 in
            Fs.close fs2 cpu fd;
            s
          in
          match (read "/a", read "/b") with
          | exception e -> fail name "post-repair read raised %s" (Printexc.to_string e)
          | a, b ->
              if a <> String.make 4096 'A' then fail name "/a content damaged by repair"
              else if b <> String.make 4096 'A' then
                fail name "/b was not cloned from the shared block"
              else begin
                Fs.unmount fs2 cpu;
                let again = Fsck.run ~repair:false dev in
                if not again.Fsck.clean then
                  fail name "second fsck still finds problems: %s" (Fsck.to_string again)
                else pass name "cloned, both files readable, converged"
              end)

(* 3. Orphaned file: the dentry is zeroed but the inode stays live, as a
   crash between the two halves of unlink would leave it.  fsck must
   reattach it under /lost+found with its content intact. *)
let orphan ~device_size =
  let name = "orphan" in
  let cpu = Cpu.make ~id:0 () in
  let dev, cfg, fs = fresh ~device_size in
  Fs.mkdir fs cpu "/d";
  let content = "hello orphan, content must survive reattachment" in
  let fd = Fs.create fs cpu "/d/f" in
  let _ = Fs.pwrite fs cpu fd ~off:0 ~src:content in
  Fs.close fs cpu fd;
  let f_ino = (Fs.stat fs cpu "/d/f").Types.st_ino in
  let d_ino = (Fs.stat fs cpu "/d").Types.st_ino in
  Fs.unmount fs cpu;
  let layout = layout_of dev cfg in
  (* Find /d's dentry block, then the slot naming f_ino, and zero it. *)
  let b = Bytes.create Codec.Inode.extent_bytes in
  Device.peek dev
    ~off:(Layout.inode_off layout d_ino + Codec.Inode.extent_slot_off 0)
    ~len:Codec.Inode.extent_bytes ~dst:b ~dst_off:0;
  let _, blk, _ = Codec.Inode.decode_extent b in
  let zeroed = ref false in
  let slot = Bytes.create Codec.dentry_bytes in
  for k = 0 to (Units.base_page / Codec.dentry_bytes) - 1 do
    if not !zeroed then begin
      Device.peek dev ~off:(blk + (k * Codec.dentry_bytes)) ~len:Codec.dentry_bytes ~dst:slot
        ~dst_off:0;
      match Codec.Dentry.decode slot with
      | Some d when d.Codec.Dentry.ino = f_ino ->
          surgery_write dev cpu ~off:(blk + (k * Codec.dentry_bytes)) Codec.Dentry.free_slot;
          zeroed := true
      | _ -> ()
    end
  done;
  if not !zeroed then fail name "could not locate the dentry to zero"
  else
    let rep = Fsck.run ~repair:true dev in
    if rep.Fsck.orphans_reattached <> 1 then
      fail name "expected 1 orphan reattached, got %d" rep.orphans_reattached
    else if not (has_rule rep "orphan") then fail name "no orphan finding recorded"
    else
      match writable_remount dev cfg cpu with
      | Error e -> fail name "%s" e
      | Ok fs2 -> (
          let lf_path = Printf.sprintf "/lost+found/ino_%d" f_ino in
          match Fs.openf fs2 cpu lf_path Types.o_rdonly with
          | exception e -> fail name "open %s raised %s" lf_path (Printexc.to_string e)
          | fd ->
              let s = Fs.pread fs2 cpu fd ~off:0 ~len:(String.length content) in
              Fs.close fs2 cpu fd;
              if s <> content then fail name "reattached file content damaged"
              else begin
                Fs.unmount fs2 cpu;
                let again = Fsck.run ~repair:false dev in
                if not again.Fsck.clean then fail name "second fsck still finds problems"
                else pass name (Printf.sprintf "reattached as %s, content intact" lf_path)
              end)

(* 4. Unfinished journal transaction: crash at an early fence of an
   operation with every store persisted.  Check mode must report the
   pending transaction; repair mode rolls it back and the image then
   remounts writable. *)
let journal_pending ~device_size =
  let name = "journal-pending" in
  let cpu = Cpu.make ~id:0 () in
  let rec at fence =
    if fence > 8 then fail name "no fence in the first 8 left a pending transaction"
    else
      let dev, cfg, fs = fresh ~device_size in
      Fs.mkdir fs cpu "/d";
      let fd = Fs.create fs cpu "/d/x" in
      let _ = Fs.pwrite fs cpu fd ~off:0 ~src:"payload" in
      Fs.close fs cpu fd;
      match
        Device.crash_at dev ~fence (fun () -> Fs.rename fs cpu ~old_path:"/d/x" ~new_path:"/d/y")
      with
      | None -> fail name "rename finished before fence %d" fence
      | Some _ -> (
          let img = Device.crash_image dev ~persisted:(fun _ -> true) in
          if not (has_rule (Fsck.run ~repair:false img) "journal-pending") then at (fence + 1)
          else if not (has_rule (Fsck.run ~repair:true img) "journal-pending") then
            fail name "repair run lost the pending-journal finding"
          else
            match writable_remount img cfg cpu with
            | Error e -> fail name "%s" e
            | Ok fs2 ->
                Fs.unmount fs2 cpu;
                if not (Fsck.run ~repair:false img).Fsck.clean then
                  fail name "second fsck still finds problems"
                else pass name (Printf.sprintf "pending txn at fence %d rolled back" fence))
  in
  at 1

(* 5. The degraded-unmount dead end: a poisoned inode header degrades the
   mount to read-only, and unmounting a degraded mount is a no-op — the
   image used to stay unhealable.  fsck --repair must clear the poisoned
   record and make the image mount writable again. *)
let degraded_remount ~device_size =
  let name = "degraded-remount" in
  let cpu = Cpu.make ~id:0 () in
  let dev, cfg, fs = fresh ~device_size in
  let fd = Fs.create fs cpu "/keep" in
  let _ = Fs.pwrite fs cpu fd ~off:0 ~src:"survivor" in
  Fs.close fs cpu fd;
  let fd = Fs.create fs cpu "/victim" in
  let _ = Fs.pwrite fs cpu fd ~off:0 ~src:"poisoned inode" in
  Fs.close fs cpu fd;
  let v_ino = (Fs.stat fs cpu "/victim").Types.st_ino in
  Fs.unmount fs cpu;
  let layout = layout_of dev cfg in
  Device.inject dev (Device.Poison_line { off = Layout.inode_off layout v_ino });
  let fs1 = Fs.mount dev cfg in
  if not (Fs.read_only fs1) then fail name "poisoned header did not degrade the mount"
  else begin
    Fs.unmount fs1 cpu (* degraded unmount: a no-op — the dead end *);
    let rep = Fsck.run ~repair:true dev in
    if not (has_rule rep "inode-media") then fail name "fsck did not flag the poisoned record"
    else
      match writable_remount dev cfg cpu with
      | Error e -> fail name "%s" e
      | Ok fs2 ->
          if Fs.exists fs2 cpu "/victim" then fail name "unreadable inode was kept"
          else
            let fd = Fs.openf fs2 cpu "/keep" Types.o_rdonly in
            let s = Fs.pread fs2 cpu fd ~off:0 ~len:8 in
            Fs.close fs2 cpu fd;
            if s <> "survivor" then fail name "surviving file damaged"
            else begin
              Fs.unmount fs2 cpu;
              let again = Fsck.run ~repair:false dev in
              if not again.Fsck.clean then fail name "second fsck still finds problems"
              else pass name "degraded image healed; writable remount"
            end
  end

let all = [ clean_image; double_alloc; orphan; journal_pending; degraded_remount ]
let count = List.length all

let run ?(device_size = 48 * Units.mib) () =
  Printexc.record_backtrace true;
  List.map (fun scenario -> scenario ~device_size) all
