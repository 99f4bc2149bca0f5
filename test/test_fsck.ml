(* winefs_fsck: crash-image orphan scenarios (unlink and rename torn at
   the pre-commit fence, journal defeated so the half-state reaches
   fsck), the degraded-unmount regression, fsck.* counters, and a small
   fixed-seed torture campaign. *)

open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Fs = Winefs.Fs
module Layout = Winefs.Layout
module Codec = Winefs.Codec
module Fsck = Repro_fsck.Fsck
module Torturecheck = Repro_crashcheck.Torturecheck
module Stats = Repro_stats.Stats
module Geriatrix = Repro_aging.Geriatrix

let cpu () = Cpu.make ~id:0 ()
let cfg () = Types.config ~cpus:2 ~inodes_per_cpu:256 ()

let layout_of dev (c : Types.config) =
  Layout.compute ~size:(Device.size dev) ~cpus:c.cpus ~inodes_per_cpu:c.inodes_per_cpu

let has_rule (r : Fsck.report) rule = List.exists (fun f -> f.Fsck.rule = rule) r.findings

(* Byte offset of the dentry slot naming [child_ino] in [dir_ino]'s
   first dentry block, or -1. *)
let dentry_slot_off dev layout ~dir_ino ~child_ino =
  let b = Bytes.create Codec.Inode.extent_bytes in
  Device.peek dev
    ~off:(Layout.inode_off layout dir_ino + Codec.Inode.extent_slot_off 0)
    ~len:Codec.Inode.extent_bytes ~dst:b ~dst_off:0;
  let _, blk, _ = Codec.Inode.decode_extent b in
  let found = ref (-1) in
  let slot = Bytes.create Codec.dentry_bytes in
  for k = 0 to (Units.base_page / Codec.dentry_bytes) - 1 do
    if !found < 0 then begin
      Device.peek dev
        ~off:(blk + (k * Codec.dentry_bytes))
        ~len:Codec.dentry_bytes ~dst:slot ~dst_off:0;
      match Codec.Dentry.decode slot with
      | Some d when d.Codec.Dentry.ino = child_ino -> found := blk + (k * Codec.dentry_bytes)
      | _ -> ()
    end
  done;
  !found

(* Crash [op] at the highest fence whose in-flight line set satisfies
   [want], returning the crash image of that exact moment.  The snapshot
   must be taken by [on_crash], inside the aborting fence: once the
   crash unwinds, the transaction's abort path rolls the in-place stores
   back and fences again, destroying the torn state.  Rebuilds the
   (deterministic) image for every probed fence. *)
let crash_where build op want =
  let dev0, _, fs0 = build () in
  Device.reset_fence_seq dev0;
  op fs0;
  let fences = Device.fence_seq dev0 in
  let rec search target =
    if target < 1 then None
    else begin
      let dev, c, fs = build () in
      let snap = ref None in
      let on_crash pending =
        if want pending then snap := Some (Device.crash_image dev ~persisted:(fun _ -> true))
      in
      ignore (Device.crash_at ~on_crash dev ~fence:target (fun () -> op fs));
      match !snap with
      | Some img -> Some (img, c, target)
      | None -> search (target - 1)
    end
  in
  search fences

(* Defeat recovery: zero each per-CPU journal header so neither mount
   nor fsck phase 2 can roll the unfinished transaction back — the torn
   half-state must survive to the connectivity phase. *)
let zero_journals img c (layout : Layout.t) =
  Array.iter
    (fun off ->
      Device.write img c ~off ~src:(Bytes.make 64 '\000') ~src_off:0 ~len:64;
      Device.persist img c ~off ~len:64)
    layout.Layout.journal_off

let cl = Units.cacheline
let header_lines layout ino = Layout.inode_off layout ino / cl
let content = "orphan payload: must survive fsck reattachment byte-for-byte"

(* Image builder shared by the crash tests: /d/f (the torn file), /e/z
   (so /e's dentry block pre-exists a cross-directory rename). *)
let build_tree () =
  let dev = Device.create ~cost:Device.Cost.free ~size:(48 * Units.mib) () in
  let c = cfg () in
  let fs = Fs.format dev c in
  let u = cpu () in
  Fs.mkdir fs u "/d";
  Fs.mkdir fs u "/e";
  let fd = Fs.create fs u "/d/f" in
  let _ = Fs.pwrite fs u fd ~off:0 ~src:content in
  Fs.close fs u fd;
  let fd = Fs.create fs u "/e/z" in
  let _ = Fs.pwrite fs u fd ~off:0 ~src:"sibling" in
  Fs.close fs u fd;
  (dev, c, fs)

(* Inode numbers and the /d/f dentry address are deterministic across
   rebuilds; capture them once from a probe build. *)
let probe_tree () =
  let dev, c, fs = build_tree () in
  let u = cpu () in
  let f_ino = (Fs.stat fs u "/d/f").Types.st_ino in
  let d_ino = (Fs.stat fs u "/d").Types.st_ino in
  let layout = layout_of dev c in
  let slot = dentry_slot_off dev layout ~dir_ino:d_ino ~child_ino:f_ino in
  Alcotest.(check bool) "found /d/f dentry slot" true (slot >= 0);
  (f_ino, slot, layout)

(* Crash between the two halves of unlink: the dentry clear has been
   flushed (and the next journal append's fence makes it durable) but
   the inode invalidation has not happened yet — the file's inode
   survives with no name.  fsck must reattach exactly that inode under
   /lost+found. *)
let test_unlink_orphan () =
  let u = cpu () in
  let f_ino, slot, layout0 = probe_tree () in
  let hline = header_lines layout0 f_ino in
  let dline = slot / cl in
  let want pending = List.mem dline pending && not (List.mem hline pending) in
  match crash_where build_tree (fun fs -> Fs.unlink fs u "/d/f") want with
  | None -> Alcotest.fail "no fence caught the dentry clear in flight alone"
  | Some (img, c, _) ->
      zero_journals img u (layout_of img c);
      let rep = Fsck.run ~repair:true img in
      Alcotest.(check bool) "orphan finding" true (has_rule rep "orphan");
      Alcotest.(check int) "exactly one orphan reattached" 1 rep.Fsck.orphans_reattached;
      let fs2 = Fs.mount img c in
      Alcotest.(check bool) "writable remount" false (Fs.read_only fs2);
      let lf = Printf.sprintf "/lost+found/ino_%d" f_ino in
      let fd = Fs.openf fs2 u lf Types.o_rdonly in
      let s = Fs.pread fs2 u fd ~off:0 ~len:(String.length content) in
      Fs.close fs2 u fd;
      Alcotest.(check string) "reattached content intact" content s;
      Alcotest.(check bool) "name removed from /d" false (Fs.exists fs2 u "/d/f");
      Alcotest.(check bool) "sibling intact" true (Fs.exists fs2 u "/e/z");
      Fs.unmount fs2 u;
      Alcotest.(check bool) "second fsck clean" true (Fsck.run ~repair:false img).Fsck.clean

(* The mirror half-state — name present, inode freed — cannot arise from
   a natural unlink crash (the FS clears the dentry strictly before
   invalidating the header), so plant it surgically: fsck must clear the
   dangling name, free exactly that inode, and reattach nothing. *)
let test_dangling_dentry () =
  let u = cpu () in
  let dev, c, fs = build_tree () in
  let f_ino = (Fs.stat fs u "/d/f").Types.st_ino in
  Fs.unmount fs u;
  let layout = layout_of dev c in
  let off = Layout.inode_off layout f_ino in
  let hdr = Bytes.create Codec.Inode.header_bytes in
  Device.peek dev ~off ~len:Codec.Inode.header_bytes ~dst:hdr ~dst_off:0;
  let dead =
    Codec.Inode.encode_header { (Codec.Inode.decode_header hdr) with Codec.Inode.valid = false }
  in
  Device.write dev u ~off ~src:dead ~src_off:0 ~len:(Bytes.length dead);
  Device.persist dev u ~off ~len:(Bytes.length dead);
  let rep = Fsck.run ~repair:true dev in
  Alcotest.(check bool) "dangling dentry cleared" true (has_rule rep "dentry-dangling");
  Alcotest.(check int) "no orphan invented" 0 rep.Fsck.orphans_reattached;
  let fs2 = Fs.mount dev c in
  Alcotest.(check bool) "writable remount" false (Fs.read_only fs2);
  Alcotest.(check bool) "dead name gone" false (Fs.exists fs2 u "/d/f");
  Alcotest.(check bool) "no lost+found created" false (Fs.exists fs2 u "/lost+found");
  Alcotest.(check bool) "sibling intact" true (Fs.exists fs2 u "/e/z");
  Fs.unmount fs2 u;
  Alcotest.(check bool) "second fsck clean" true (Fsck.run ~repair:false dev).Fsck.clean

(* Mid-rename crash on the overwrite path (/d/f onto /e/z): the victim's
   dentry slot is repointed at the moved inode before the victim's
   header is invalidated, so crashing between the two leaves z's inode
   alive with no name — fsck must reattach exactly the victim, while the
   moved file (briefly carrying both names) gets its link count fixed. *)
let test_rename_victim_orphan () =
  let u = cpu () in
  let dev0, c0, fs0 = build_tree () in
  let z_ino = (Fs.stat fs0 u "/e/z").Types.st_ino in
  let e_ino = (Fs.stat fs0 u "/e").Types.st_ino in
  let layout0 = layout_of dev0 c0 in
  let z_slot = dentry_slot_off dev0 layout0 ~dir_ino:e_ino ~child_ino:z_ino in
  Alcotest.(check bool) "found /e/z dentry slot" true (z_slot >= 0);
  let zline = z_slot / cl in
  let z_hline = header_lines layout0 z_ino in
  let want pending = List.mem zline pending && not (List.mem z_hline pending) in
  match
    crash_where build_tree
      (fun fs -> Fs.rename fs u ~old_path:"/d/f" ~new_path:"/e/z")
      want
  with
  | None -> Alcotest.fail "no fence caught the dentry repoint in flight alone"
  | Some (img, c, _) ->
      zero_journals img u (layout_of img c);
      let rep = Fsck.run ~repair:true img in
      Alcotest.(check bool) "orphan finding" true (has_rule rep "orphan");
      Alcotest.(check int) "exactly one orphan reattached" 1 rep.Fsck.orphans_reattached;
      let fs2 = Fs.mount img c in
      Alcotest.(check bool) "writable remount" false (Fs.read_only fs2);
      let read path len =
        let fd = Fs.openf fs2 u path Types.o_rdonly in
        let s = Fs.pread fs2 u fd ~off:0 ~len in
        Fs.close fs2 u fd;
        s
      in
      let lf = Printf.sprintf "/lost+found/ino_%d" z_ino in
      Alcotest.(check string) "victim content intact in lost+found" "sibling" (read lf 7);
      Alcotest.(check string) "moved file readable at destination" content
        (read "/e/z" (String.length content));
      Alcotest.(check bool) "source name still present" true (Fs.exists fs2 u "/d/f");
      Fs.unmount fs2 u;
      Alcotest.(check bool) "second fsck clean" true (Fsck.run ~repair:false img).Fsck.clean

(* Regression for the degraded-unmount dead end: a poisoned inode header
   degrades the mount to read-only and unmount is then a no-op, so
   before fsck existed the image could never be healed. *)
let test_degraded_heals () =
  let u = cpu () in
  let dev = Device.create ~cost:Device.Cost.free ~size:(48 * Units.mib) () in
  let c = cfg () in
  let fs = Fs.format dev c in
  let fd = Fs.create fs u "/keep" in
  let _ = Fs.pwrite fs u fd ~off:0 ~src:"survivor" in
  Fs.close fs u fd;
  let fd = Fs.create fs u "/victim" in
  let _ = Fs.pwrite fs u fd ~off:0 ~src:"doomed" in
  Fs.close fs u fd;
  let v_ino = (Fs.stat fs u "/victim").Types.st_ino in
  Fs.unmount fs u;
  let layout = layout_of dev c in
  Device.inject dev (Device.Poison_line { off = Layout.inode_off layout v_ino });
  let fs1 = Fs.mount dev c in
  Alcotest.(check bool) "mount degraded" true (Fs.read_only fs1);
  Fs.unmount fs1 u;
  let rep = Fsck.run ~repair:true dev in
  Alcotest.(check bool) "poisoned record flagged" true (has_rule rep "inode-media");
  let fs2 = Fs.mount dev c in
  Alcotest.(check bool) "writable after repair" false (Fs.read_only fs2);
  Alcotest.(check bool) "victim dropped" false (Fs.exists fs2 u "/victim");
  let fd = Fs.openf fs2 u "/keep" Types.o_rdonly in
  let s = Fs.pread fs2 u fd ~off:0 ~len:8 in
  Fs.close fs2 u fd;
  Alcotest.(check string) "survivor intact" "survivor" s;
  let fd = Fs.create fs2 u "/new" in
  let _ = Fs.pwrite fs2 u fd ~off:0 ~src:"writable" in
  Fs.close fs2 u fd;
  Fs.unmount fs2 u;
  Alcotest.(check bool) "second fsck clean" true (Fsck.run ~repair:false dev).Fsck.clean

(* fsck.* counters land in the registry when stats are on. *)
let test_counters () =
  let u = cpu () in
  let dev = Device.create ~cost:Device.Cost.free ~size:(48 * Units.mib) () in
  let c = cfg () in
  let fs = Fs.format dev c in
  let fd = Fs.create fs u "/f" in
  let _ = Fs.pwrite fs u fd ~off:0 ~src:"stats" in
  Fs.close fs u fd;
  Fs.unmount fs u;
  Stats.reset ();
  Stats.set_enabled true;
  ignore (Fsck.run ~repair:false dev);
  Stats.set_enabled false;
  Alcotest.(check int) "fsck.runs" 1 (Stats.Counter.get (Stats.Counter.v "fsck.runs"));
  List.iter
    (fun phase ->
      let n =
        Stats.Counter.get (Stats.Counter.v ~labels:[ ("phase", phase) ] "fsck.phase_ns")
      in
      Alcotest.(check bool) (phase ^ " phase timed") true (n >= 0))
    [ "sb"; "journal"; "inodes"; "extents"; "connectivity"; "rewrite" ]

(* A small fixed-seed slice of the torture campaign: every crash image
   must repair to a writable, invariant-clean, convergent remount. *)
let test_mini_torture () =
  let r = Torturecheck.run ~seed:5 ~iterations:6 () in
  Alcotest.(check int) "all iterations crashed" 6 r.Torturecheck.crashes;
  Alcotest.(check int) "no failures" 0 (List.length r.Torturecheck.failures)

(* Aging an 8-CPU image once tail-merged two extent records that met at
   the boundary between two per-CPU data stripes, so fsck reported
   extent-bounds and then a stale serialized free list.  This seed
   reached it. *)
let test_aged_no_cross_stripe_extent () =
  let dev = Device.create ~size:(128 * Units.mib) () in
  let (Repro_vfs.Fs_intf.Handle ((module F), fs) as h) =
    Repro_baselines.Registry.winefs.make dev (Types.config ~cpus:8 ~inodes_per_cpu:8192 ())
  in
  ignore
    (Geriatrix.age h ~seed:367035675 ~profile:Geriatrix.agrawal ~target_util:0.9
       ~churn_bytes:(128 * Units.mib) ());
  F.unmount fs (cpu ());
  let r = Fsck.run dev in
  Alcotest.(check (list string)) "no fsck findings" [] (List.map (fun f -> f.Fsck.rule) r.findings)

(* Mount and fsck read the superblock through one reader that refuses a
   device shorter than the replica or of a size the superblock does not
   record: EINVAL, never a layout computed for a size the device lacks or
   an out-of-bounds Invalid_argument. *)
let truncated ~bytes =
  let src = Device.create ~cost:Device.Cost.free ~size:(16 * Units.mib) () in
  let c = cpu () in
  Fs.unmount (Fs.format src (cfg ())) c;
  let keep = min bytes (Device.size src) in
  let buf = Bytes.create keep in
  Device.peek src ~off:0 ~len:keep ~dst:buf ~dst_off:0;
  let dev = Device.create ~cost:Device.Cost.free ~size:bytes () in
  Device.write dev c ~off:0 ~src:buf ~src_off:0 ~len:keep;
  dev

let expect_einval what f =
  match f () with
  | _ -> Alcotest.failf "%s accepted" what
  | exception Types.Error (EINVAL, _) -> ()
  | exception e -> Alcotest.failf "%s raised %s, not EINVAL" what (Printexc.to_string e)

let test_size_mismatch ~bytes () =
  let dev = truncated ~bytes in
  expect_einval "mount" (fun () -> Fs.mount dev (cfg ()));
  expect_einval "fsck" (fun () -> Fsck.run dev)

let suite =
  [
    Alcotest.test_case "unlink crash: orphan reattached" `Quick test_unlink_orphan;
    Alcotest.test_case "dangling dentry: inode freed, name cleared" `Quick test_dangling_dentry;
    Alcotest.test_case "rename crash: victim reattached" `Quick test_rename_victim_orphan;
    Alcotest.test_case "degraded image heals to writable" `Quick test_degraded_heals;
    Alcotest.test_case "fsck counters populate" `Quick test_counters;
    Alcotest.test_case "mini torture campaign" `Slow test_mini_torture;
    Alcotest.test_case "16 MiB image truncated to 8 MiB" `Quick (test_size_mismatch ~bytes:(8 * Units.mib));
    Alcotest.test_case "16 MiB image truncated to 1 MiB" `Quick (test_size_mismatch ~bytes:Units.mib);
    Alcotest.test_case "1024-byte device" `Quick (test_size_mismatch ~bytes:1024);
    Alcotest.test_case "64-byte device" `Quick (test_size_mismatch ~bytes:64);
    Alcotest.test_case "aged 8-CPU image: no cross-stripe extent" `Quick
      test_aged_no_cross_stripe_extent;
  ]
