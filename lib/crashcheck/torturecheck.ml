(* Crash-fsck-remount torture campaign: run a workload, crash it at a
   seeded persist point keeping a seeded subset of the in-flight lines,
   optionally plant a media fault on the wreck, fsck it with repair, and
   demand a writable invariant-clean remount — then that a second fsck
   finds nothing.  Every iteration must end healthy; the seed replays
   the whole campaign. *)

open Repro_util
module Device = Repro_pmem.Device
module Fault = Repro_pmem.Fault
module Types = Repro_vfs.Types
module Fs = Winefs.Fs
module Layout = Winefs.Layout
module Codec = Winefs.Codec
module Fsck = Repro_fsck.Fsck

type failure = { t_iter : int; t_workload : string; t_fence : int; t_diagnosis : string }

type report = {
  seed : int;
  iterations : int;
  workloads : int;
  crashes : int;
  faults_planted : int;
  repairs : int;
  orphans : int;
  failures : failure list;
}

let fresh = Checker.fresh
let handle = Checker.handle

(* Two fixed workloads the campaign alternates between: a small-file op
   mix across two directories, and a directory-tree reshaping mix. *)
let smallfiles =
  {
    Ace.w_name = "smallfiles";
    setup =
      [
        Ace.Mkdir "/d0"; Ace.Mkdir "/d1"; Ace.Create "/d0/a";
        Ace.Write ("/d0/a", 0, String.make 2048 'a'); Ace.Create "/d1/b";
        Ace.Append ("/d1/b", "bb");
      ];
    test =
      [
        Ace.Create "/d0/c"; Ace.Append ("/d0/c", String.make 512 'c');
        Ace.Write ("/d0/a", 1024, String.make 1024 'A');
        Ace.Rename ("/d0/a", "/d1/a2"); Ace.Unlink "/d1/b"; Ace.Create "/d1/d";
        Ace.Append ("/d1/d", String.make 100 'd'); Ace.Unlink "/d0/c";
        Ace.Rename ("/d1/d", "/d0/d2"); Ace.Append ("/d0/d2", String.make 64 'e');
      ];
  }

let dirtree =
  {
    Ace.w_name = "dirtree";
    setup =
      [
        Ace.Mkdir "/a"; Ace.Mkdir "/a/b"; Ace.Mkdir "/c"; Ace.Create "/a/b/f";
        Ace.Append ("/a/b/f", "ffff");
      ];
    test =
      [
        Ace.Mkdir "/a/b/e"; Ace.Create "/c/g"; Ace.Write ("/c/g", 0, String.make 4096 'g');
        Ace.Rename ("/a/b/f", "/c/f2"); Ace.Ftruncate ("/c/g", 100); Ace.Rmdir "/a/b/e";
        Ace.Rename ("/a/b", "/b2"); Ace.Create "/b2/h"; Ace.Append ("/b2/h", "hh");
        Ace.Unlink "/c/f2";
      ];
  }

(* One seeded media fault on the crash image's metadata: a superblock
   bit flip or poisoned line (primary or replica), or the same on a
   nonblank inode header.  All are within fsck's repair envelope. *)
let plant_fault rng img (layout : Layout.t) =
  let sb_target which off = { Fault.label = "superblock " ^ which; off; len = Codec.Superblock.bytes } in
  let header_target () =
    let headers = Checker.nonblank_inode_headers img layout in
    if Array.length headers = 0 then None
    else
      let _, off = headers.(Rng.int rng (Array.length headers)) in
      Some { Fault.label = "inode header"; off; len = Codec.Inode.header_bytes }
  in
  let planted =
    match Rng.int rng 4 with
    | 0 -> Some (Fault.bit_flip rng (sb_target "primary" 0))
    | 1 -> Some (Fault.poison rng (sb_target "replica" Layout.sb_replica_off))
    | 2 -> Option.map (Fault.bit_flip rng) (header_target ())
    | _ -> Option.map (Fault.poison rng) (header_target ())
  in
  match planted with
  | None -> None
  | Some p ->
      Fault.apply img p;
      Some (Fault.to_string p)

let run ?(seed = 42) ?(iterations = 60) ?(fault_rate = 0.5) ?(device_size = 48 * Units.mib) () =
  let rng = Rng.create seed in
  let cpu = Cpu.make ~id:0 () in
  let crashes = ref 0 and faults = ref 0 and repairs = ref 0 and orphans = ref 0 in
  let failures = ref [] in
  for it = 1 to iterations do
    let w = if it mod 2 = 1 then smallfiles else dirtree in
    let failed fence fmt =
      Printf.ksprintf
        (fun d ->
          failures :=
            { t_iter = it; t_workload = w.Ace.w_name; t_fence = fence; t_diagnosis = d }
            :: !failures)
        fmt
    in
    (* Dry run: count the fences the test phase executes. *)
    let dev0, _, fs0 = fresh ~device_size in
    List.iter (Ace.apply (handle fs0) cpu) w.setup;
    Device.reset_fence_seq dev0;
    List.iter (Ace.apply (handle fs0) cpu) w.test;
    let fences = Device.fence_seq dev0 in
    if fences = 0 then failed 0 "workload executed no fences"
    else begin
      (* Crash run: same build, abort at a seeded fence, keep a seeded
         subset of the in-flight lines. *)
      let target = 1 + Rng.int rng fences in
      let salt = Rng.int rng 0x3FFFFFFF in
      let dev, cfg, fs = fresh ~device_size in
      List.iter (Ace.apply (handle fs) cpu) w.setup;
      match
        Device.crash_at dev ~fence:target (fun () -> List.iter (Ace.apply (handle fs) cpu) w.test)
      with
      | None -> failed target "workload finished before the target fence"
      | Some _ -> (
        incr crashes;
        let keep line = (((line lxor salt) * 1103515245) + 12345) land 0x10000 = 0 in
        let img = Device.crash_image dev ~persisted:keep in
        let layout =
          Layout.compute ~size:(Device.size img) ~cpus:cfg.Types.cpus
            ~inodes_per_cpu:cfg.Types.inodes_per_cpu
        in
        let fault =
          if Rng.float rng 1.0 < fault_rate then plant_fault rng img layout else None
        in
        (match fault with Some _ -> incr faults | None -> ());
        let fault_str = Option.value ~default:"none" fault in
        match Fsck.run ~repair:true img with
        | exception e ->
            failed target "fsck raised %s (fault: %s)" (Printexc.to_string e) fault_str
        | rep -> (
            repairs := !repairs + rep.Fsck.repairs;
            orphans := !orphans + rep.Fsck.orphans_reattached;
            match Fs.mount img cfg with
            | exception e ->
                failed target "post-fsck mount raised %s (fault: %s)" (Printexc.to_string e)
                  fault_str
            | fs2 ->
                if Fs.read_only fs2 then
                  failed target "post-fsck mount degraded to read-only (fault: %s)" fault_str
                else begin
                  (match Checker.signature_of (handle fs2) cpu with
                  | _ -> ()
                  | exception e ->
                      failed target "post-fsck walk raised %s (fault: %s)"
                        (Printexc.to_string e) fault_str);
                  (match
                     let fd = Fs.create fs2 cpu "/__torture_probe" in
                     let _ = Fs.pwrite fs2 cpu fd ~off:0 ~src:"probe" in
                     Fs.close fs2 cpu fd;
                     Fs.unlink fs2 cpu "/__torture_probe"
                   with
                  | () -> ()
                  | exception e ->
                      failed target "post-fsck probe raised %s (fault: %s)"
                        (Printexc.to_string e) fault_str);
                  Fs.unmount fs2 cpu;
                  match Fsck.run ~repair:false img with
                  | exception e ->
                      failed target "re-check raised %s (fault: %s)" (Printexc.to_string e)
                        fault_str
                  | again ->
                      if not again.Fsck.clean then
                        failed target "fsck did not converge (fault: %s): %s" fault_str
                          (Fsck.to_string again)
                end))
    end
  done;
  {
    seed;
    iterations;
    workloads = 2;
    crashes = !crashes;
    faults_planted = !faults;
    repairs = !repairs;
    orphans = !orphans;
    failures = List.rev !failures;
  }
