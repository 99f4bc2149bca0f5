(** Seeded fault-campaign planning over {!Device} targets.

    A campaign names byte regions of interest (a superblock, an inode
    header, a data extent), then draws concrete faults from a seeded RNG —
    the same seed reproduces the same campaign exactly, which is how
    faultcheck findings stay replayable. *)

open Repro_util

type target = { label : string; off : int; len : int }

type planted = { target : string; fault : Device.fault }

val bit_flip : Rng.t -> target -> planted
(** A random single-bit flip inside the target. *)

val poison : Rng.t -> target -> planted
(** Poison the cache line containing a random byte of the target. *)

val torn_word : Rng.t -> Device.t -> line:int -> planted option
(** Pick an 8-byte word of a pending cache line whose pre-store bytes
    differ from its current contents and register it to tear at the next
    crash image; [None] when the line is not pending or nothing differs. *)

val apply : Device.t -> planted -> unit

val to_string : planted -> string
