open Repro_util
open Repro_vfs

type profile = { profile_name : string; size_dist : Dist.t; dirs : int }

(* Agrawal et al.: small files are roughly log-normal with a median of a
   few KB; a sparse population of multi-MB files holds most bytes.  The
   mixture weight is calibrated so >=2MB files carry ~56% of capacity. *)
let agrawal =
  {
    profile_name = "agrawal";
    size_dist =
      Dist.mixture
        [
          (0.989, Dist.lognormal ~mu:(log 16384.) ~sigma:1.6 ~min:256 ~max:(Units.huge_page - 1));
          (0.011, Dist.lognormal ~mu:(log (8. *. float_of_int Units.mib)) ~sigma:0.7
             ~min:Units.huge_page ~max:(64 * Units.mib));
        ];
    dirs = 32;
  }

(* Wang's HPC study: checkpoint-style big files dominate capacity, plus a
   blizzard of small metadata-ish files that chew up aligned regions. *)
let wang_hpc =
  {
    profile_name = "wang-hpc";
    size_dist =
      Dist.mixture
        [
          (0.90, Dist.lognormal ~mu:(log 8192.) ~sigma:2.0 ~min:64 ~max:(Units.huge_page - 1));
          (0.10, Dist.lognormal ~mu:(log (16. *. float_of_int Units.mib)) ~sigma:0.8
             ~min:Units.huge_page ~max:(128 * Units.mib));
        ];
    dirs = 16;
  }

type report = {
  files_created : int;
  files_deleted : int;
  bytes_written : int;
  live_files : int;
  utilization : float;
  aligned_free_2m : int;
  free_frag_ratio : float;
}

let census (Fs_intf.Handle ((module F), fs)) =
  let s = F.statfs fs in
  let ratio =
    if s.Types.free = 0 then 1.0
    else float_of_int (s.aligned_free_2m * Units.huge_page) /. float_of_int s.free
  in
  (min 1.0 ratio, s.aligned_free_2m)

(* Growable array of live files for O(1) random deletion. *)
type live = { mutable paths : string array; mutable n : int }

let live_add l p =
  if l.n >= Array.length l.paths then begin
    let bigger = Array.make (max 64 (2 * Array.length l.paths)) "" in
    Array.blit l.paths 0 bigger 0 l.n;
    l.paths <- bigger
  end;
  l.paths.(l.n) <- p;
  l.n <- l.n + 1

let live_remove_at l i =
  let p = l.paths.(i) in
  l.paths.(i) <- l.paths.(l.n - 1);
  l.n <- l.n - 1;
  p

let age (Fs_intf.Handle ((module F), fs)) ?(seed = 0xA6E) ?(write_chunk = 16 * Units.mib)
    ~profile ~target_util ~churn_bytes () =
  if target_util <= 0. || target_util >= 1. then invalid_arg "Geriatrix.age: bad target";
  let rng = Rng.create seed in
  (* Aging runs across all logical CPUs (Geriatrix is multi-threaded), so
     per-CPU pools age the way they would in production. *)
  let cpus = Array.init 8 (fun id -> Cpu.make ~id ()) in
  let op_count = ref 0 in
  let next_cpu () =
    incr op_count;
    cpus.(!op_count mod Array.length cpus)
  in
  let cpu = cpus.(0) in
  let chunk = String.make write_chunk 'g' in
  (* Directory fan-out. *)
  for d = 0 to profile.dirs - 1 do
    let path = Printf.sprintf "/g%d" d in
    if not (F.exists fs cpu path) then F.mkdir fs cpu path
  done;
  let live = { paths = Array.make 1024 ""; n = 0 } in
  let created = ref 0 and deleted = ref 0 and written = ref 0 in
  let next_id = ref 0 in
  let capacity = (F.statfs fs).Types.capacity in
  let delete_random () =
    if live.n > 0 then begin
      (* File lifetimes are heavily skewed: most files die young (Agrawal
         et al. 2007), so deletions favour recently-created files.  This
         concentrates churn in recently-allocated regions, as in real
         traces. *)
      let i =
        if live.n >= 8 && Rng.bool rng then live.n - 1 - Rng.int rng (live.n / 8)
        else Rng.int rng live.n
      in
      let path = live_remove_at live i in
      (try F.unlink fs (next_cpu ()) path with Types.Error (ENOENT, _) -> ());
      incr deleted
    end
  in
  let create_one size =
    let path = Printf.sprintf "/g%d/f%d" (Rng.int rng profile.dirs) !next_id in
    incr next_id;
    let cpu = next_cpu () in
    match F.create fs cpu path with
    | exception Types.Error (ENOSPC, _) -> false
    | fd ->
        let ok = ref true in
        let off = ref 0 in
        (try
           while !off < size do
             let n = min write_chunk (size - !off) in
             (* pwrite_sub: one shared buffer for the whole campaign.  A
                String.sub per chunk allocates the payload again — at
                churn volumes that is tens of GB through the major heap,
                and it dominated aging wall time. *)
             ignore (F.pwrite_sub fs cpu fd ~off:!off ~src:chunk ~src_off:0 ~len:n);
             written := !written + n;
             off := !off + n
           done
         with Types.Error (ENOSPC, _) -> ok := false);
        F.fsync fs cpu fd;
        F.close fs cpu fd;
        if !ok then begin
          live_add live path;
          incr created;
          true
        end
        else begin
          (* Cleanup of a possibly half-created file: only its absence is
             benign; ENOSPC etc. must not be masked here. *)
          (try F.unlink fs cpu path with Types.Error (ENOENT, _) -> ());
          false
        end
  in
  let util () = Types.utilization (F.statfs fs) in
  (* Phase 1: fill to target utilization. *)
  let stall = ref 0 in
  while util () < target_util && !stall < 64 do
    let size = Dist.sample profile.size_dist rng in
    let size = min size (max Units.base_page (capacity / 8)) in
    if create_one size then stall := 0
    else begin
      incr stall;
      (* Out of space before the target: free a little and retry. *)
      delete_random ()
    end
  done;
  (* Phase 2: churn at the target level — delete enough to make room,
     then recreate, preserving utilization. *)
  while !written < churn_bytes do
    let size = Dist.sample profile.size_dist rng in
    let size = min size (max Units.base_page (capacity / 8)) in
    (* Make room: keep utilization near the target. *)
    let guard = ref 0 in
    while
      (util () > target_util
      || float_of_int ((F.statfs fs).Types.free) < 1.5 *. float_of_int size)
      && live.n > 0 && !guard < 10_000
    do
      delete_random ();
      incr guard
    done;
    if not (create_one size) then delete_random ()
  done;
  let ratio, aligned = census (Fs_intf.Handle ((module F), fs)) in
  {
    files_created = !created;
    files_deleted = !deleted;
    bytes_written = !written;
    live_files = live.n;
    utilization = util ();
    aligned_free_2m = aligned;
    free_frag_ratio = ratio;
  }
