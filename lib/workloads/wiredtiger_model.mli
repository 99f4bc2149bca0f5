(** WiredTiger model (§5.5): FillRandom appends variable-sized (~1KB)
    records at unaligned offsets — the pattern that forces NOVA to CoW
    partial tail blocks — and ReadRandom reads records back via an
    index. *)

open Repro_vfs

type result = { ops : int; elapsed_ns : int; kops_per_s : float }

val run :
  Fs_intf.handle ->
  ?seed:int ->
  mode:[ `FillRandom | `ReadRandom ] ->
  threads:int ->
  keys:int ->
  ops_per_thread:int ->
  unit ->
  result
