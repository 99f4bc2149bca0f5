type errno =
  | ENOENT
  | EEXIST
  | ENOSPC
  | ENOTDIR
  | EISDIR
  | ENOTEMPTY
  | EBADF
  | EINVAL
  | ENAMETOOLONG
  | EIO
  | EROFS

exception Error of errno * string

let errno_to_string = function
  | ENOENT -> "ENOENT"
  | EEXIST -> "EEXIST"
  | ENOSPC -> "ENOSPC"
  | ENOTDIR -> "ENOTDIR"
  | EISDIR -> "EISDIR"
  | ENOTEMPTY -> "ENOTEMPTY"
  | EBADF -> "EBADF"
  | EINVAL -> "EINVAL"
  | ENAMETOOLONG -> "ENAMETOOLONG"
  | EIO -> "EIO"
  | EROFS -> "EROFS"

let err e fmt = Format.kasprintf (fun msg -> raise (Error (e, msg))) fmt

type file_kind = Regular | Directory

let is_dir = function Directory -> true | Regular -> false
let is_regular = function Regular -> true | Directory -> false

type stat = {
  st_ino : int;
  st_kind : file_kind;
  st_size : int;
  st_blocks : int;
  st_nlink : int;
}

type open_flags = {
  rd : bool;
  wr : bool;
  creat : bool;
  excl : bool;
  trunc : bool;
  append : bool;
}

let o_rdonly = { rd = true; wr = false; creat = false; excl = false; trunc = false; append = false }
let o_rdwr = { o_rdonly with wr = true }
let o_creat_rdwr = { o_rdwr with creat = true }

type mode = Strict | Relaxed

let is_strict = function Strict -> true | Relaxed -> false

type config = { cpus : int; mode : mode; numa_nodes : int; inodes_per_cpu : int }

let default_config = { cpus = 4; mode = Strict; numa_nodes = 1; inodes_per_cpu = 16384 }

let config ?(cpus = 4) ?(mode = Strict) ?(numa_nodes = 1) ?(inodes_per_cpu = 16384) () =
  if cpus <= 0 then invalid_arg "Types.config: non-positive cpus";
  { cpus; mode; numa_nodes; inodes_per_cpu }

type fs_stats = {
  capacity : int;
  used : int;
  free : int;
  free_extents : int;
  largest_free : int;
  aligned_free_2m : int;
}

let utilization s =
  if s.capacity = 0 then 0. else float_of_int s.used /. float_of_int s.capacity
