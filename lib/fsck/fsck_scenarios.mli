(** Planted-corruption scenarios backing [pmcheck fsckcheck].

    Each scenario damages a real WineFS image in a precisely-known way —
    a double-allocated extent planted by raw slot surgery, a zeroed
    dentry leaving a live orphan inode, a crash image with an unfinished
    journal transaction, a poisoned inode header that degrades the mount
    — runs {!Fsck.run}, and demands the exact intended repair, a clean
    second fsck (convergence) and a writable remount.  A clean image
    must produce a byte-stable, finding-free report and a no-op repair. *)

type outcome = { s_name : string; ok : bool; detail : string }

val count : int
(** Number of scenarios {!run} runs (five). *)

val run : ?device_size:int -> unit -> outcome list
(** Run all five scenarios in a fixed order (deterministic; no seed
    needed).  Default devices are 48 MiB. *)
