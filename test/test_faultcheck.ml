(* Media-fault hardening: CRC32C correctness, superblock repair from the
   replica, read-only degradation semantics, and the faultcheck campaign
   end to end. *)

open Repro_util
module Device = Repro_pmem.Device
module Fault = Repro_pmem.Fault
module Types = Repro_vfs.Types
module Fs = Winefs.Fs
module Layout = Winefs.Layout
module Codec = Winefs.Codec
module Faultcheck = Repro_crashcheck.Faultcheck
module Ace = Repro_crashcheck.Ace

let cpu () = Cpu.make ~id:0 ()

let cfg () = Types.config ~cpus:2 ~inodes_per_cpu:256 ()

let fresh () =
  let dev = Device.create ~cost:Device.Cost.free ~size:(48 * Units.mib) () in
  (dev, Fs.format dev (cfg ()))

(* CRC-32C known-answer vector (RFC 3720 appendix): "123456789". *)
let test_crc32c_vector () =
  Alcotest.(check int) "check vector" 0xE3069283 (Crc32c.digest_string "123456789");
  Alcotest.(check int) "empty string" 0 (Crc32c.digest_string "");
  (* Incremental = one-shot. *)
  let b = Bytes.of_string "123456789" in
  let acc = Crc32c.update Crc32c.init b ~off:0 ~len:4 in
  let acc = Crc32c.update acc b ~off:4 ~len:5 in
  Alcotest.(check int) "incremental update" 0xE3069283 (Crc32c.finish acc)

(* An independent byte-at-a-time CRC-32C of [off, off+len) of [b]. *)
let bytewise =
  let poly = 0x82F63B78 in
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  fun b ~off ~len ->
    let c = ref Crc32c.init in
    for i = off to off + len - 1 do
      c := table.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
    done;
    Crc32c.finish !c

(* The production [update] consumes 8 bytes per step (slicing-by-8);
   check it against the byte-at-a-time fold over every alignment and
   length class, including bytes with the top bit set (which an int64
   load would truncate). *)
let test_crc32c_slicing_matches_bytewise () =
  let reference = bytewise in
  let rng = Rng.create 0xC12C in
  for _ = 1 to 500 do
    let n = Rng.int rng 200 in
    let b = Bytes.init n (fun _ -> Char.chr (Rng.int rng 256)) in
    let off = if n = 0 then 0 else Rng.int rng (n + 1) in
    let len = n - off in
    Alcotest.(check int)
      (Printf.sprintf "crc slicing off=%d len=%d" off len)
      (reference b ~off ~len)
      (Crc32c.finish (Crc32c.update Crc32c.init b ~off ~len))
  done;
  let ones = Bytes.make 33 '\xff' in
  Alcotest.(check int) "all-0xff (top bits)" (reference ones ~off:0 ~len:33)
    (Crc32c.finish (Crc32c.update Crc32c.init ones ~off:0 ~len:33))

(* [digest_zeroed] folds the checksum field as one 4-byte step of zeros;
   check it, and [verify_zeroed], against copying the range, zeroing the
   field and folding the copy byte by byte, over random lengths, range
   offsets and field positions (first bytes, last bytes, and the tail
   after the field of every length, the zero-length one included). *)
let test_crc32c_zeroed_matches_copy () =
  let rng = Rng.create 0x2E80 in
  for _ = 1 to 1000 do
    let len = 4 + Rng.int rng 160 in
    let off = Rng.int rng 9 in
    let b = Bytes.init (off + len + Rng.int rng 9) (fun _ -> Char.chr (Rng.int rng 256)) in
    let csum_off = off + Rng.int rng (len - 3) in
    let copy = Bytes.sub b off len in
    Bytes.fill copy (csum_off - off) 4 '\000';
    let want = bytewise copy ~off:0 ~len in
    let what = Printf.sprintf "off=%d len=%d csum_off=%d" off len csum_off in
    Alcotest.(check int) ("digest_zeroed " ^ what) want
      (Crc32c.digest_zeroed b ~off ~len ~csum_off);
    Crc32c.put b ~csum_off (if Rng.int rng 2 = 0 then want else want lxor (1 lsl Rng.int rng 32));
    Alcotest.(check bool) ("verify_zeroed " ^ what)
      (Crc32c.get b ~csum_off = want)
      (Crc32c.verify_zeroed b ~off ~len ~csum_off)
  done

let test_crc32c_zeroed_field () =
  let b = Bytes.init 64 (fun i -> Char.chr (i * 7 mod 256)) in
  Crc32c.set_zeroed b ~off:0 ~len:64 ~csum_off:40;
  Alcotest.(check bool) "verifies after set" true
    (Crc32c.verify_zeroed b ~off:0 ~len:64 ~csum_off:40);
  (* Every single-bit flip anywhere in the structure must be caught,
     including inside the checksum field itself. *)
  let missed = ref 0 in
  for bit = 0 to (64 * 8) - 1 do
    let byte = bit / 8 in
    let c = Bytes.copy b in
    Bytes.set c byte (Char.chr (Char.code (Bytes.get c byte) lxor (1 lsl (bit mod 8))));
    if Crc32c.verify_zeroed c ~off:0 ~len:64 ~csum_off:40 then incr missed
  done;
  Alcotest.(check int) "all 512 single-bit flips detected" 0 !missed

let test_sb_repair_from_replica () =
  let dev, fs = fresh () in
  let c = cpu () in
  Fs.close fs c (Fs.create fs c "/keep");
  Fs.unmount fs c;
  (* Corrupt the primary superblock; mount must repair it from the
     replica and stay writable. *)
  Device.inject dev (Device.Bit_flip { off = 17; bit = 3 });
  let fs2 = Fs.mount dev (cfg ()) in
  Alcotest.(check bool) "mount not degraded" false (Fs.read_only fs2);
  Alcotest.(check bool) "file survived" true (Fs.exists fs2 c "/keep");
  Alcotest.(check bool) "detection counted" true
    ((Fs.faults fs2).detected >= 1);
  Alcotest.(check bool) "repair counted" true
    ((Fs.faults fs2).repaired >= 1);
  Fs.unmount fs2 c;
  (* The repair rewrote the primary: a second mount is clean. *)
  let fs3 = Fs.mount dev (cfg ()) in
  Alcotest.(check int) "primary healthy after repair" 0
    ((Fs.faults fs3).detected)

let test_sb_poison_repair () =
  let dev, fs = fresh () in
  let c = cpu () in
  Fs.unmount fs c;
  Device.inject dev (Device.Poison_line { off = 0 });
  let fs2 = Fs.mount dev (cfg ()) in
  Alcotest.(check bool) "repaired from replica" false (Fs.read_only fs2);
  Alcotest.(check (list int)) "full-line rewrite cleared the poison" []
    (Device.poisoned_lines dev)

let test_sb_both_copies_dead () =
  let dev, fs = fresh () in
  let c = cpu () in
  Fs.unmount fs c;
  Device.inject dev (Device.Bit_flip { off = 9; bit = 0 });
  Device.inject dev (Device.Bit_flip { off = Layout.sb_replica_off + 9; bit = 0 });
  match Fs.mount dev (cfg ()) with
  | _ -> Alcotest.fail "mount must refuse when both superblocks are corrupt"
  | exception Types.Error (Types.EIO, _) -> ()

let test_degraded_mount_semantics () =
  let dev, fs = fresh () in
  let c = cpu () in
  let fd = Fs.create fs c "/victim" in
  ignore (Fs.pwrite fs c fd ~off:0 ~src:"doomed data");
  Fs.close fs c fd;
  Fs.close fs c (Fs.create fs c "/survivor");
  let victim_ino = (Fs.stat fs c "/victim").Types.st_ino in
  let layout =
    let fcfg = Fs.config fs in
    Layout.compute ~size:(Device.size dev) ~cpus:fcfg.cpus ~inodes_per_cpu:fcfg.inodes_per_cpu
  in
  Fs.unmount fs c;
  (* Flip a bit in the victim's inode header: there is no redundant copy,
     so scrub must refuse the inode and degrade the mount. *)
  Device.inject dev (Device.Bit_flip { off = Layout.inode_off layout victim_ino + 20; bit = 5 });
  let fs2 = Fs.mount dev (cfg ()) in
  Alcotest.(check bool) "mount degraded to read-only" true (Fs.read_only fs2);
  Alcotest.(check bool) "refused inodes counted" true (Fs.refused_inodes fs2 >= 1);
  Alcotest.(check bool) "refusal in fault counters" true
    ((Fs.faults fs2).refused >= 1);
  (* Mutations fail with EROFS... *)
  (match Fs.create fs2 c "/new" with
  | _ -> Alcotest.fail "create must fail on a degraded mount"
  | exception Types.Error (Types.EROFS, _) -> ());
  (match Fs.mkdir fs2 c "/newdir" with
  | () -> Alcotest.fail "mkdir must fail on a degraded mount"
  | exception Types.Error (Types.EROFS, _) -> ());
  (match Fs.openf fs2 c "/survivor" { Types.o_rdonly with wr = true } with
  | _ -> Alcotest.fail "open for write must fail on a degraded mount"
  | exception Types.Error (Types.EROFS, _) -> ());
  (match Fs.unlink fs2 c "/survivor" with
  | () -> Alcotest.fail "unlink must fail on a degraded mount"
  | exception Types.Error (Types.EROFS, _) -> ());
  (* ...the refused inode fails loudly with EIO... *)
  (match Fs.stat fs2 c "/victim" with
  | _ -> Alcotest.fail "refused inode must not stat"
  | exception Types.Error (Types.EIO, _) -> ());
  (* ...and untouched objects still read. *)
  Alcotest.(check bool) "survivor readable" true (Fs.exists fs2 c "/survivor");
  let fd = Fs.openf fs2 c "/survivor" Types.o_rdonly in
  Alcotest.(check string) "survivor data intact" "" (Fs.pread fs2 c fd ~off:0 ~len:0);
  Fs.close fs2 c fd;
  (* Unmount of a degraded fs must not stamp the image clean. *)
  Fs.unmount fs2 c;
  let fs3 = Fs.mount dev (cfg ()) in
  Alcotest.(check bool) "corruption still refused on remount" true (Fs.read_only fs3)

let test_campaign_small () =
  let workloads =
    List.filter
      (fun (w : Ace.workload) -> List.mem w.w_name [ "seq1-create"; "seq1-append" ])
      Ace.all
  in
  let r = Faultcheck.run ~seed:7 ~workloads ~torn_fences:2 () in
  Alcotest.(check int) "seed echoed for replay" 7 r.seed;
  Alcotest.(check bool) "faults were planted" true (r.faults_planted > 0);
  Alcotest.(check int) "every fault repaired or refused"
    r.faults_planted (r.repaired + r.refused);
  Alcotest.(check int) "no silent corruption" 0 (List.length r.findings);
  (* Same seed, same campaign. *)
  let r2 = Faultcheck.run ~seed:7 ~workloads ~torn_fences:2 () in
  Alcotest.(check int) "replay plants the same faults" r.faults_planted r2.faults_planted;
  Alcotest.(check int) "replay repairs the same faults" r.repaired r2.repaired

let suite =
  [
    Alcotest.test_case "crc32c check vector" `Quick test_crc32c_vector;
    Alcotest.test_case "crc32c slicing-by-8 = bytewise" `Quick
      test_crc32c_slicing_matches_bytewise;
    Alcotest.test_case "crc32c zeroed-field covers every bit" `Quick test_crc32c_zeroed_field;
    Alcotest.test_case "crc32c zeroed field = copy, zero, fold" `Quick
      test_crc32c_zeroed_matches_copy;
    Alcotest.test_case "sb repair from replica" `Quick test_sb_repair_from_replica;
    Alcotest.test_case "sb poison repair" `Quick test_sb_poison_repair;
    Alcotest.test_case "sb both copies dead" `Quick test_sb_both_copies_dead;
    Alcotest.test_case "degraded mount semantics" `Quick test_degraded_mount_semantics;
    Alcotest.test_case "faultcheck campaign" `Quick test_campaign_small;
  ]
