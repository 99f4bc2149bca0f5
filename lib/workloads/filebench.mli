(** Filebench personalities (§5.5, Figure 9): varmail, fileserver,
    webserver, webproxy — multi-threaded operation mixes over a
    pre-created file population, following the stock Filebench workload
    definitions. *)

open Repro_vfs

type personality = Varmail | Fileserver | Webserver | Webproxy

val name : personality -> string
val all : personality list

val default_threads : personality -> int
(** Table 1's thread counts (16/50/100/100). *)

type result = { ops : int; elapsed_ns : int; kops_per_s : float }

val run :
  Fs_intf.handle ->
  ?seed:int ->
  personality:personality ->
  threads:int ->
  files:int ->
  ops_per_thread:int ->
  unit ->
  result
