(** PostgreSQL pgbench read-write model (§5.5; TPC-B-like): page-granular
    read+overwrite of three tables, a history append, and a WAL append +
    fsync per transaction, from concurrent threads. *)

open Repro_vfs

type result = { txns : int; elapsed_ns : int; tps : float }

val run :
  Fs_intf.handle ->
  ?seed:int ->
  threads:int ->
  scale_pages:int ->
  txns_per_thread:int ->
  unit ->
  result
