(** PmemKV-like key-value store (§5.4, Figure 7c): data lives in
    [fallocate]d pool files that are memory-mapped and extended by
    creating more pool files as they fill; fillseq inserts 4KB values
    from concurrent threads (the cmap engine). *)

open Repro_vfs

type t

val create :
  Fs_intf.handle -> ?dir:string -> ?pool_bytes:int -> ?value_bytes:int -> unit -> t

val get : t -> Repro_util.Cpu.t -> key:int -> bool

type result = {
  keys : int;
  elapsed_ns : int;
  kops_per_s : float;
  page_faults : int;
  huge_faults : int;
}

val fillseq : t -> threads:int -> keys:int -> result
