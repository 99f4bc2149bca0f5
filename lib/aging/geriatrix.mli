(** File-system aging in the style of Geriatrix (Kadekodi et al., ATC '18).

    Ages a mounted file system by creating and deleting files drawn from a
    size profile until (a) utilization reaches the target and (b) the
    requested churn volume has been written — the paper ages 100–500GB
    partitions with up to 165TB of churn under the Agrawal profile (§5.1).

    The ager is deterministic given a seed and works against any
    {!Repro_vfs.Fs_intf.handle}, so the same churn sequence hits WineFS
    and every baseline. *)

open Repro_vfs

(** A file-size profile plus directory fan-out. *)
type profile = {
  profile_name : string;
  size_dist : Repro_util.Dist.t;
  dirs : int;  (** files are spread over this many directories *)
}

val agrawal : profile
(** Agrawal et al. (2007/2009): log-normal small files plus a heavy tail;
    calibrated so that files >= 2MB hold about 56% of used capacity
    (§5.1). *)

val wang_hpc : profile
(** Wang (2012) HPC profile: capacity dominated by large files, with the
    more adversarial small-file churn the paper discusses in §4. *)

type report = {
  files_created : int;
  files_deleted : int;
  bytes_written : int;
  live_files : int;
  utilization : float;
  aligned_free_2m : int;
  free_frag_ratio : float;
      (** fraction of free space usable as aligned 2MB regions — the
          Figure 3 y-axis *)
}

val age :
  Fs_intf.handle ->
  ?seed:int ->
  ?write_chunk:int ->
  profile:profile ->
  target_util:float ->
  churn_bytes:int ->
  unit ->
  report
(** Fill to [target_util], then keep creating/deleting at that level until
    [churn_bytes] have been written in total.  Raises nothing on ENOSPC:
    the ager deletes and retries, exactly like a real aging run. *)

val census : Fs_intf.handle -> float * int
(** [(free_frag_ratio, aligned_free_2m)] of a mounted file system. *)
