(** Directory-entry index with a pluggable lookup cost model.

    WineFS and NOVA keep per-directory red-black trees in DRAM, making
    lookups effectively free next to PM accesses; PMFS scans its directory
    entries sequentially on PM, which the paper blames for its poor
    metadata performance (§3.5, §5.5).  Both behaviours share this one
    structure — the policy only changes the simulated cost.

    The index itself is a hash table on the name, so an insertion costs
    a bucket cell, not a path copy; {!entries} sorts by name, so listings
    come out in the order an ordered map gave.  The cost model does not
    depend on the representation: [Dram_rbtree] charges
    [ceil (log n / log 2)] levels for [n = max 2 size] entries (the float
    formula, memoized per [n]), [Pm_linear_scan] half the entries. *)

open Repro_util

type policy =
  | Dram_rbtree  (** O(log n) DRAM walk; a few ns per level *)
  | Pm_linear_scan of float
      (** PMFS-style: lookup/remove charge [cost_ns] per live entry
          scanned (expected half the directory). *)

type t

val create : ?entries:int -> policy -> t
(** An empty index, presized for [entries] names (default 0): the size
    adding them one by one would grow it to, without the rehashes. *)

val add : t -> Cpu.t -> name:string -> ino:int -> slot:int -> unit
(** [slot] is an FS-private payload (e.g. the PM offset of the dentry). *)

val remove : t -> Cpu.t -> string -> unit
val lookup : t -> Cpu.t -> string -> (int * int) option
(** [(ino, slot)]. *)

val mem : t -> Cpu.t -> string -> bool
val entries : t -> (string * int) list
(** [(name, ino)], sorted by name; free of simulated cost (used by tests
    and readdir, which charges separately). *)

val size : t -> int
