(* The measured boundary between the benchmark and the program.

   [Make (F)] is [F] with every call counted (calls, simulated ns charged
   to the calling CPU, errno returns) and, while [Trace.on], wrapped in a
   host-clock span.  [mmap_backing] is wrapped too, so every fault the
   FS resolves is classified (2MB, 4KB, SIGBUS) and timed.  The Vmem
   wrappers do the same for the mapped accesses the benchmark issues.
   With tracing off no clock is read: the counts are plain array bumps. *)

open Repro_util
open Repro_vfs
module Vmem = Repro_memsim.Vmem
module Registry = Repro_baselines.Registry

let fs_labels = [| "winefs"; "ext4"; "nova"; "strata" |]
let n_fs = Array.length fs_labels
let winefs = 0
let nova = 2

let fs_slot = function
  | "WineFS" -> 0
  | "ext4-DAX" -> 1
  | "NOVA" -> 2
  | "Strata" -> 3
  | name -> invalid_arg ("Timed.fs_slot: not measured: " ^ name)

(* The 16 operations the per-layer metrics name.  Aliases fold in:
   pwrite_sub into pwrite, exists into stat, rmdir into unlink, ftruncate
   into fallocate, format (mkfs + mount) into mount. *)
let ops =
  [|
    "create"; "openf"; "close"; "pwrite"; "pread"; "append"; "fsync"; "unlink"; "mkdir";
    "rename"; "stat"; "readdir"; "statfs"; "fallocate"; "mount"; "unmount";
  |]

let n_ops = Array.length ops
let op_create = 0
let op_openf = 1
let op_close = 2
let op_pwrite = 3
let op_pread = 4
let op_append = 5
let op_fsync = 6
let op_unlink = 7
let op_mkdir = 8
let op_rename = 9
let op_stat = 10
let op_readdir = 11
let op_statfs = 12
let op_fallocate = 13
let op_mount = 14
let op_unmount = 15

(* Counts since the last [reset], indexed [fs * n_ops + op]. *)
let calls = Array.make (n_fs * n_ops) 0
let sim_ns = Array.make (n_fs * n_ops) 0
let errors = ref 0
let user_bytes = ref 0

let fs_kinds =
  Array.init (n_fs * n_ops) (fun i ->
      Trace.kind ~layer:"fs" (fs_labels.(i / n_ops) ^ "." ^ ops.(i mod n_ops)))

let faults_huge = Array.make n_fs 0
let faults_base = Array.make n_fs 0
let faults_sigbus = Array.make n_fs 0
let fault_kinds = Array.init n_fs (fun i -> Trace.kind ~layer:"fault" fs_labels.(i))

(* File lifecycles (create through close) on [lifecycle_fs], in simulated
   ns: the latency sample of the [age] workload. *)
let lifecycle_fs = ref (-1)
let lifecycles = ref (Histogram.create ())
let open_since : (int, int) Hashtbl.t = Hashtbl.create 64

let vmem_calls = ref 0
let vk_read = Trace.kind ~layer:"vmem" "read"
let vk_write = Trace.kind ~layer:"vmem" "write"
let vk_mmap = Trace.kind ~layer:"vmem" "mmap"
let vk_munmap = Trace.kind ~layer:"vmem" "munmap"

let reset () =
  Array.fill calls 0 (Array.length calls) 0;
  Array.fill sim_ns 0 (Array.length sim_ns) 0;
  errors := 0;
  user_bytes := 0;
  List.iter (fun a -> Array.fill a 0 n_fs 0) [ faults_huge; faults_base; faults_sigbus ];
  vmem_calls := 0

(* Simulated ns charged to the calls of one file system so far. *)
let fs_sim_ns slot =
  let s = ref 0 in
  for op = 0 to n_ops - 1 do
    s := !s + sim_ns.((slot * n_ops) + op)
  done;
  !s

let[@inline] count i dt =
  calls.(i) <- calls.(i) + 1;
  sim_ns.(i) <- sim_ns.(i) + dt

module Make (F : Fs_intf.S) : Fs_intf.S with type t = F.t = struct
  include F

  let slot = fs_slot F.name

  let call op cpu f =
    let i = (slot * n_ops) + op in
    if !Trace.on then Trace.enter fs_kinds.(i);
    let s = Cpu.now cpu in
    match f () with
    | r ->
        count i (Cpu.now cpu - s);
        if !Trace.on then Trace.exit ();
        r
    | exception e ->
        (match e with Types.Error _ -> incr errors | _ -> ());
        count i (Cpu.now cpu - s);
        if !Trace.on then Trace.exit ();
        raise e

  (* Operations with no calling CPU: [sim] reads their simulated cost. *)
  let call_nocpu op ~sim f =
    let i = (slot * n_ops) + op in
    if !Trace.on then Trace.enter fs_kinds.(i);
    match f () with
    | r ->
        count i (sim r);
        if !Trace.on then Trace.exit ();
        r
    | exception e ->
        (match e with Types.Error _ -> incr errors | _ -> ());
        count i 0;
        if !Trace.on then Trace.exit ();
        raise e

  let format dev cfg = call_nocpu op_mount ~sim:(fun _ -> 0) (fun () -> F.format dev cfg)
  let mount dev cfg = call_nocpu op_mount ~sim:F.recovery_ns (fun () -> F.mount dev cfg)
  let unmount t cpu = call op_unmount cpu (fun () -> F.unmount t cpu)
  let statfs t = call_nocpu op_statfs ~sim:(fun _ -> 0) (fun () -> F.statfs t)
  let mkdir t cpu p = call op_mkdir cpu (fun () -> F.mkdir t cpu p)
  let rmdir t cpu p = call op_unlink cpu (fun () -> F.rmdir t cpu p)

  let create t cpu p =
    let s = Cpu.now cpu in
    let fd = call op_create cpu (fun () -> F.create t cpu p) in
    if slot = !lifecycle_fs then Hashtbl.replace open_since fd s;
    fd

  let openf t cpu p flags = call op_openf cpu (fun () -> F.openf t cpu p flags)

  let close t cpu fd =
    call op_close cpu (fun () -> F.close t cpu fd);
    if slot = !lifecycle_fs then
      match Hashtbl.find_opt open_since fd with
      | Some s ->
          Histogram.add !lifecycles (Cpu.now cpu - s);
          Hashtbl.remove open_since fd
      | None -> ()

  let unlink t cpu p = call op_unlink cpu (fun () -> F.unlink t cpu p)

  let rename t cpu ~old_path ~new_path =
    call op_rename cpu (fun () -> F.rename t cpu ~old_path ~new_path)

  let readdir t cpu p = call op_readdir cpu (fun () -> F.readdir t cpu p)
  let stat t cpu p = call op_stat cpu (fun () -> F.stat t cpu p)
  let exists t cpu p = call op_stat cpu (fun () -> F.exists t cpu p)

  let pwrite t cpu fd ~off ~src =
    user_bytes := !user_bytes + String.length src;
    call op_pwrite cpu (fun () -> F.pwrite t cpu fd ~off ~src)

  let pwrite_sub t cpu fd ~off ~src ~src_off ~len =
    user_bytes := !user_bytes + len;
    call op_pwrite cpu (fun () -> F.pwrite_sub t cpu fd ~off ~src ~src_off ~len)

  let pread t cpu fd ~off ~len = call op_pread cpu (fun () -> F.pread t cpu fd ~off ~len)

  let append t cpu fd ~src =
    user_bytes := !user_bytes + String.length src;
    call op_append cpu (fun () -> F.append t cpu fd ~src)

  let fsync t cpu fd = call op_fsync cpu (fun () -> F.fsync t cpu fd)

  let fallocate t cpu fd ~off ~len =
    call op_fallocate cpu (fun () -> F.fallocate t cpu fd ~off ~len)

  let ftruncate t cpu fd len = call op_fallocate cpu (fun () -> F.ftruncate t cpu fd len)

  let mmap_backing t fd : Vmem.backing =
    let backing = F.mmap_backing t fd in
    fun cpu ~file_off ~huge_ok ->
      if !Trace.on then Trace.enter fault_kinds.(slot);
      let r =
        match backing cpu ~file_off ~huge_ok with
        | r -> r
        | exception e ->
            if !Trace.on then Trace.exit ();
            raise e
      in
      (match r with
      | Vmem.Huge _ -> faults_huge.(slot) <- faults_huge.(slot) + 1
      | Vmem.Base _ -> faults_base.(slot) <- faults_base.(slot) + 1
      | Vmem.Sigbus -> faults_sigbus.(slot) <- faults_sigbus.(slot) + 1);
      if !Trace.on then Trace.exit ();
      r
end

let wrap (Fs_intf.Handle ((module F), fs)) =
  let module T = Make (F) in
  Fs_intf.Handle ((module T), fs)

(* mkfs + mount through [factory], counted as a [mount] of that FS. *)
let format (factory : Registry.factory) dev cfg =
  let i = (fs_slot factory.fs_name * n_ops) + op_mount in
  if !Trace.on then Trace.enter fs_kinds.(i);
  let h = factory.make dev cfg in
  count i 0;
  if !Trace.on then Trace.exit ();
  wrap h

(* ---- Vmem calls the benchmark issues itself ---- *)

let traced k f =
  incr vmem_calls;
  if not !Trace.on then f ()
  else begin
    Trace.enter k;
    match f () with
    | r ->
        Trace.exit ();
        r
    | exception e ->
        Trace.exit ();
        raise e
  end

let vmmap vm ~len ~backing = traced vk_mmap (fun () -> Vmem.mmap vm ~len ~backing ())
let vmunmap vm region = traced vk_munmap (fun () -> Vmem.munmap vm region)

let vread vm cpu region ~off ~len =
  incr vmem_calls;
  if not !Trace.on then Vmem.read vm cpu region ~off ~len
  else begin
    Trace.enter vk_read;
    Vmem.read vm cpu region ~off ~len;
    Trace.exit ()
  end

let vwrite vm cpu region ~off ~src =
  incr vmem_calls;
  user_bytes := !user_bytes + String.length src;
  if not !Trace.on then Vmem.write vm cpu region ~off ~src
  else begin
    Trace.enter vk_write;
    Vmem.write vm cpu region ~off ~src;
    Trace.exit ()
  end

let vread_into vm cpu region ~off ~dst ~len =
  traced vk_read (fun () -> Vmem.read_into vm cpu region ~off ~dst ~dst_off:0 ~len)
