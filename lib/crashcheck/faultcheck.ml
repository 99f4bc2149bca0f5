(* Media-fault campaign: plant bit flips, torn words and poisoned lines in
   WineFS images, remount (or crash-and-remount), and verify every fault
   is either repaired from a redundant copy or safely refused — never
   silently absorbed into a wrong answer.  Fully seeded: the same seed
   replays the same campaign. *)

open Repro_util
module Device = Repro_pmem.Device
module Fault = Repro_pmem.Fault
module Types = Repro_vfs.Types
module Fs = Winefs.Fs
module Layout = Winefs.Layout
module Codec = Winefs.Codec

type finding = {
  f_workload : string;
  f_scenario : string;
  f_fault : string;
  f_diagnosis : string;
}

type report = {
  seed : int;
  scenarios_run : int;
  faults_planted : int;
  repaired : int;
  refused : int;
  findings : finding list;
}

let handle = Checker.handle

let rec collect_files fs cpu path acc =
  List.fold_left
    (fun acc name ->
      let child = Repro_vfs.Path.concat path name in
      let st = Fs.stat fs cpu child in
      match st.Types.st_kind with
      | Types.Directory -> collect_files fs cpu child acc
      | Types.Regular -> (child, st.st_size) :: acc)
    acc (Fs.readdir fs cpu path)

let shuffle rng arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let run ?(seed = 42) ?(workloads = Ace.seq1) ?(torn_fences = 4)
    ?(device_size = 48 * Units.mib) () =
  let rng = Rng.create seed in
  let cpu = Cpu.make ~id:0 () in
  let scenarios = ref 0 and planted = ref 0 in
  let repaired = ref 0 and refused = ref 0 in
  let findings = ref [] in
  let finding w s fault diag =
    findings :=
      { f_workload = w; f_scenario = s; f_fault = fault; f_diagnosis = diag } :: !findings
  in
  (* Build the workload's final image, cleanly unmounted, plus everything
     a scenario needs to aim and judge: the expected tree signature, a
     data extent, and the image's layout. *)
  let prepare (w : Ace.workload) =
    let dev, cfg, fs = Checker.fresh ~device_size in
    List.iter (Ace.apply (handle fs) cpu) (w.setup @ w.test);
    let expect = Checker.signature_of (handle fs) cpu in
    let files = collect_files fs cpu "/" [] in
    let data =
      List.find_map
        (fun (p, size) ->
          match Fs.file_extents fs cpu p with
          | (file_off, phys, _) :: _ when file_off < size -> Some (p, file_off, phys, size)
          | _ -> None)
        files
    in
    let fcfg = Fs.config fs in
    let layout =
      Layout.compute ~size:(Device.size dev) ~cpus:fcfg.cpus
        ~inodes_per_cpu:fcfg.inodes_per_cpu
    in
    Fs.unmount fs cpu;
    (dev, cfg, expect, data, layout)
  in
  (* Verdict for a metadata fault planted on a quiesced image: the remount
     must repair it (identical tree, writable) or refuse it (EIO mount, or
     a read-only mount that rejects mutations) — anything else is a
     finding. *)
  let remount_check w s_name fault_str dev cfg expect =
    incr scenarios;
    incr planted;
    match Fs.mount dev cfg with
    | exception Types.Error (Types.EIO, _) -> incr refused
    | exception e ->
        finding w s_name fault_str
          (Printf.sprintf "mount raised %s" (Printexc.to_string e))
    | fs2 ->
        let detected = (Fs.faults fs2).detected in
        if Fs.read_only fs2 then begin
          let safe = ref (detected > 0) in
          if not !safe then
            finding w s_name fault_str "mount degraded without counting a detection";
          (match Fs.create fs2 cpu "/__faultcheck_probe" with
          | _ ->
              safe := false;
              finding w s_name fault_str "degraded mount accepted create (expected EROFS)"
          | exception Types.Error (Types.EROFS, _) -> ());
          (* Surviving objects must still read; refused ones must fail
             loudly with EIO, never with fabricated contents. *)
          (match Checker.signature_of (handle fs2) cpu with
          | _ -> ()
          | exception Types.Error (Types.EIO, _) -> ()
          | exception e ->
              safe := false;
              finding w s_name fault_str
                (Printf.sprintf "degraded walk raised %s" (Printexc.to_string e)));
          if !safe then incr refused
        end
        else if detected = 0 then
          finding w s_name fault_str "fault silently absorbed (writable mount, no detection)"
        else
          match Checker.signature_of (handle fs2) cpu with
          | s when s = expect -> incr repaired
          | _ -> finding w s_name fault_str "repaired mount recovered a different tree"
          | exception e ->
              finding w s_name fault_str
                (Printf.sprintf "post-repair walk raised %s" (Printexc.to_string e))
  in
  let static_campaign (w : Ace.workload) =
    (* A superblock fault (bit flip, or a poisoned line: a simulated MCE
       on the primary) must be repaired from the replica.  An inode
       header has no replica, so the scrub must refuse the inode (or the
       whole mount when it is the root's). *)
    let superblock _ _ = { Fault.label = "superblock"; off = 0; len = Codec.Superblock.bytes } in
    let inode_header dev layout =
      let headers = Checker.nonblank_inode_headers dev layout in
      let ino, off = headers.(Rng.int rng (Array.length headers)) in
      { Fault.label = Printf.sprintf "inode %d header" ino; off; len = Codec.Inode.header_bytes }
    in
    List.iter
      (fun (s_name, aim, plant) ->
        let dev, cfg, expect, _, layout = prepare w in
        let target = aim dev layout in
        let p = plant rng target in
        Fault.apply dev p;
        remount_check w.w_name s_name (Fault.to_string p) dev cfg expect)
      [ ("sb-flip", superblock, Fault.bit_flip); ("sb-poison", superblock, Fault.poison);
        ("inode-flip", inode_header, Fault.bit_flip);
        ("inode-poison", inode_header, Fault.poison) ];
    (* Poisoned file data: the mount stays clean and writable (data is not
       scanned), but reading the line must refuse with EIO, never return
       fabricated bytes. *)
    let dev, cfg, _, data, _ = prepare w in
    match data with
    | None -> () (* workload leaves no file data to poison *)
    | Some (path, file_off, phys, size) -> (
        incr scenarios;
        incr planted;
        let p = Fault.poison rng { Fault.label = "data " ^ path; off = phys; len = 64 } in
        Fault.apply dev p;
        match Fs.mount dev cfg with
        | exception e ->
            finding w.w_name "data-poison" (Fault.to_string p)
              (Printf.sprintf "mount raised %s" (Printexc.to_string e))
        | fs2 -> (
            let fd = Fs.openf fs2 cpu path Types.o_rdonly in
            let len = min 64 (size - file_off) in
            match Fs.pread fs2 cpu fd ~off:file_off ~len with
            | _ ->
                finding w.w_name "data-poison" (Fault.to_string p)
                  "read of poisoned data returned bytes (silent absorption)"
            | exception Types.Error (Types.EIO, _) -> incr refused
            | exception e ->
                finding w.w_name "data-poison" (Fault.to_string p)
                  (Printf.sprintf "read raised %s (expected EIO)" (Printexc.to_string e))))
  in
  (* Torn-word scenarios: crash at a fence with a seeded 8-byte tear on one
     in-flight line, persist everything else, remount.  Journal entry
     checksums must demote a torn COMMIT to a rollback, so recovery lands
     on one side of the in-flight operation. *)
  let torn_campaign (w : Ace.workload) =
    let expected = Checker.expected_signatures ~device_size cpu w in
    Checker.each_crash ~max_fences:torn_fences ~device_size cpu w
      (fun ~fence ~op dev cfg pending ->
        let lines = shuffle rng (Array.of_list pending) in
        let p =
          Array.fold_left
            (fun acc line ->
              match acc with Some _ -> acc | None -> Fault.torn_word rng dev ~line)
            None lines
        in
        match p with
        | None -> () (* no pending word differs at this fence *)
        | Some p -> (
            incr scenarios;
            incr planted;
            Fault.apply dev p;
            let img = Device.crash_image dev ~persisted:(fun _ -> true) in
            match Fs.mount img cfg with
            | exception Types.Error ((Types.EIO | Types.EROFS), _) -> incr refused
            | exception e ->
                finding w.w_name "torn-word" (Fault.to_string p)
                  (Printf.sprintf "recovery raised %s" (Printexc.to_string e))
            | fs2 -> (
                if Fs.read_only fs2 then incr refused
                else
                  match Checker.signature_of (handle fs2) cpu with
                  | s when s = expected.(op) || s = expected.(op + 1) -> incr repaired
                  | _ ->
                      finding w.w_name "torn-word" (Fault.to_string p)
                        (Printf.sprintf
                           "fence %d: recovered state matches neither side of op %d" fence op)
                  | exception e ->
                      finding w.w_name "torn-word" (Fault.to_string p)
                        (Printf.sprintf "post-recovery walk raised %s" (Printexc.to_string e)))))
  in
  List.iter
    (fun w ->
      static_campaign w;
      torn_campaign w)
    workloads;
  {
    seed;
    scenarios_run = !scenarios;
    faults_planted = !planted;
    repaired = !repaired;
    refused = !refused;
    findings = List.rev !findings;
  }
