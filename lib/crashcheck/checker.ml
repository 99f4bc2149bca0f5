open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Fs_intf = Repro_vfs.Fs_intf
module Fs = Winefs.Fs
module Layout = Winefs.Layout
module Codec = Winefs.Codec

type result = {
  workloads_run : int;
  crash_points : int;
  states_checked : int;
  failures : (string * string) list;
}

(* FNV-1a over the content: the signature only needs a deterministic
   digest — the runtime's polymorphic hash is an implementation detail,
   and Crc32c is owned by the metadata layers. *)
let content_digest s =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x7FFFFFFF) s;
  !h

(* Canonical tree signature: sorted (path kind size digest) lines.  In
   relaxed mode data content is not guaranteed, so digests are elided. *)
let signature ?(with_content = true) (Fs_intf.Handle ((module F), fs)) cpu =
  let buf = Buffer.create 256 in
  let rec walk path =
    let entries = List.sort compare (F.readdir fs cpu path) in
    List.iter
      (fun name ->
        let child = Repro_vfs.Path.concat path name in
        let st = F.stat fs cpu child in
        (match st.Types.st_kind with
        | Types.Directory ->
            Buffer.add_string buf (Printf.sprintf "%s dir\n" child);
            walk child
        | Types.Regular ->
            let digest =
              if with_content then begin
                let fd = F.openf fs cpu child Types.o_rdonly in
                let content = F.pread fs cpu fd ~off:0 ~len:st.st_size in
                F.close fs cpu fd;
                content_digest content
              end
              else 0
            in
            Buffer.add_string buf
              (Printf.sprintf "%s file size=%d digest=%d\n" child st.st_size digest)))
      entries
  in
  walk "/";
  Buffer.contents buf

let signature_of h cpu = signature ~with_content:true h cpu

(* Enumerate persisted-subset predicates over [lines]. *)
let subsets ?(max_random = 24) rng lines =
  let n = List.length lines in
  let arr = Array.of_list lines in
  if n = 0 then [ (fun _ -> false) ]
  else if n <= 6 then
    List.init (1 lsl n) (fun mask line ->
        let rec idx i = if arr.(i) = line then i else idx (i + 1) in
        match idx 0 with
        | i -> mask land (1 lsl i) <> 0
        | exception Invalid_argument _ -> false)
  else begin
    let fixed =
      [ (fun _ -> false); (fun _ -> true) ]
      @ List.init (min n 8) (fun i line -> line <> arr.(i)) (* one line lost *)
      @ List.init (min n 8) (fun i line -> line = arr.(i)) (* only one line survives *)
    in
    let random =
      List.init max_random (fun _ ->
          let keep = Hashtbl.create 8 in
          Array.iter (fun l -> if Rng.bool rng then Hashtbl.replace keep l ()) arr;
          fun line -> Hashtbl.mem keep line)
    in
    fixed @ random
  end

let fresh ~device_size =
  let dev = Device.create ~cost:Device.Cost.free ~size:device_size () in
  let cfg = Types.config ~cpus:2 ~inodes_per_cpu:256 () in
  (dev, cfg, Fs.format dev cfg)

let handle fs = Fs_intf.Handle ((module Fs : Fs_intf.S with type t = Fs.t), fs)

let nonblank_inode_headers dev (layout : Layout.t) =
  let res = ref [] in
  for c = 0 to layout.cpus - 1 do
    for idx = 0 to layout.inodes_per_cpu - 1 do
      let ino = Layout.ino_of layout ~cpu:c ~idx in
      let off = Layout.inode_off layout ino in
      let b = Bytes.create Codec.Inode.header_bytes in
      Device.peek dev ~off ~len:Codec.Inode.header_bytes ~dst:b ~dst_off:0;
      if not (Codec.Inode.header_is_blank b) then res := (ino, off) :: !res
    done
  done;
  Array.of_list (List.rev !res)

let expected_signatures ?(with_content = true) ~device_size cpu (w : Ace.workload) =
  let _, _, fs = fresh ~device_size in
  List.iter (Ace.apply (handle fs) cpu) w.setup;
  let now () = signature ~with_content (handle fs) cpu in
  let initial = now () in
  Array.of_list (initial :: List.map (fun op -> Ace.apply (handle fs) cpu op; now ()) w.test)

let each_crash ?(max_fences = max_int) ~device_size cpu (w : Ace.workload) judge =
  let rec from fence =
    if fence <= max_fences then begin
      let dev, cfg, fs = fresh ~device_size in
      List.iter (Ace.apply (handle fs) cpu) w.setup;
      let op = ref 0 in
      let test () = List.iter (fun o -> Ace.apply (handle fs) cpu o; incr op) w.test in
      match Device.crash_at dev ~fence test with
      | None -> ()
      | Some pending ->
          judge ~fence ~op:!op dev cfg pending;
          from (fence + 1)
    end
  in
  from 1

let run ?(mode = Types.Strict) ?(workloads = Ace.all) ?(max_random_subsets = 24)
    ?(device_size = 48 * Units.mib) () =
  let with_content = mode = Types.Strict in
  let rng = Rng.create 0xC4A54 in
  let cpu = Cpu.make ~id:0 () in
  let crash_points = ref 0 and states = ref 0 in
  let failures = ref [] in
  let run_workload (w : Ace.workload) =
    let expected = expected_signatures ~with_content ~device_size cpu w in
    each_crash ~device_size cpu w (fun ~fence ~op dev cfg pending ->
        incr crash_points;
        let fail fmt =
          Printf.ksprintf
            (fun d -> failures := (w.w_name, Printf.sprintf "fence %d: %s" fence d) :: !failures)
            fmt
        in
        List.iter
          (fun persisted ->
            incr states;
            let img = Device.crash_image dev ~persisted in
            match Fs.mount img cfg with
            | exception e -> fail "recovery failed: %s" (Printexc.to_string e)
            | fs2 -> (
                match signature ~with_content (handle fs2) cpu with
                | s when s = expected.(op) || s = expected.(op + 1) -> ()
                | s -> fail "recovered state matches neither side of op %d:\n%s" op s
                | exception e -> fail "post-recovery walk failed: %s" (Printexc.to_string e)))
          (subsets ~max_random:max_random_subsets rng pending))
  in
  List.iter run_workload workloads;
  {
    workloads_run = List.length workloads;
    crash_points = !crash_points;
    states_checked = !states;
    failures = List.rev !failures;
  }

let recovery_time ~files ~file_bytes =
  let size = max (64 * Units.mib) (files * file_bytes * 2) in
  let dev = Device.create ~size () in
  let cfg = Types.config ~cpus:4 ~inodes_per_cpu:(max 256 (2 * files / 4)) () in
  let fs = Fs.format dev cfg in
  let cpu = Cpu.make ~id:0 () in
  let payload = String.make file_bytes 'r' in
  for i = 1 to files do
    let fd = Fs.create fs cpu (Printf.sprintf "/f%d" i) in
    ignore (Fs.pwrite fs cpu fd ~off:0 ~src:payload);
    Fs.close fs cpu fd
  done;
  (* Crash: no unmount.  Mount performs journal recovery plus the full
     inode-table scan and allocator rebuild. *)
  let fs2 = Fs.mount dev cfg in
  (Fs.recovery_ns fs2, files)
