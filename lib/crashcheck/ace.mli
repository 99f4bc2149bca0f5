(** Automatic Crash Explorer-style workload generation (§5.2).

    Produces small system-call sequences that mutate file-system metadata
    (and data, in strict mode), each with a setup phase that establishes
    its preconditions — the same shape as the ACE workloads CrashMonkey
    replays against WineFS in the paper. *)

type op =
  | Mkdir of string
  | Create of string
  | Write of string * int * string  (** path, offset, data *)
  | Append of string * string
  | Rename of string * string
  | Unlink of string
  | Rmdir of string
  | Fallocate of string * int * int
  | Ftruncate of string * int

type workload = { w_name : string; setup : op list; test : op list }

val seq1 : workload list
(** Every single-operation workload over the canonical namespace. *)

val seq2 : workload list
(** Two-operation sequences (dependent pairs, ACE seq-2 style). *)

val seq3 : workload list
(** A curated set of three-operation sequences. *)

val all : workload list

val apply : Repro_vfs.Fs_intf.handle -> Repro_util.Cpu.t -> op -> unit
(** Execute one operation (open/close handled internally). *)
