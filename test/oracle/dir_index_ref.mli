(** Reference model of {!Repro_vfs.Dir_index}: the ordered-map version it
    replaced, kept as a differential-test oracle.

    Names live in a [String_map]; every call charges the simulated clock
    exactly as the index's cost model says, computing the
    [Dram_rbtree] level count from the float formula on every call.  A
    differential test drives it and a [Dir_index] with the same stream of
    calls and compares every result and every charge. *)

open Repro_util

type t

val create : Repro_vfs.Dir_index.policy -> t
val add : t -> Cpu.t -> name:string -> ino:int -> slot:int -> unit
val remove : t -> Cpu.t -> string -> unit
val lookup : t -> Cpu.t -> string -> (int * int) option
val mem : t -> Cpu.t -> string -> bool
val entries : t -> (string * int) list
val size : t -> int
