(** LMDB-like memory-mapped B-tree database (§5.4, Figure 7b).

    The behaviours the paper traces LMDB's file-system sensitivity to:

    - one big {e sparse} data file created with [ftruncate] (never
      [fallocate]), so space materialises on page faults — "this reduces
      space-amplification, but leads to costly page faults";
    - copy-on-write pages: every committed batch writes its leaves (and a
      B-tree spine) to {e fresh} page numbers, then flips one of the two
      meta pages;
    - [fillseqbatch]: batched sequential inserts of 1KB values — LMDB's
      best-performing workload.

    On WineFS a fault in the sparse file is served by allocating an entire
    aligned extent (hugepage); on ext4-DAX/NOVA every 4KB page faults
    separately — reproducing Table 2's 200–250x page-fault gap. *)

open Repro_util
open Repro_vfs
module Vmem = Repro_memsim.Vmem

type t = {
  h : Fs_intf.handle;
  vm : Vmem.t;
  region : Vmem.region;
  page_bytes : int;
  value_bytes : int;
  map_pages : int;
  mutable next_page : int; (* CoW frontier *)
  mutable meta_flip : int;
  index : (int, int * int) Hashtbl.t; (* key -> (page, slot) *)
  mutable committed : int;
}

let create (Fs_intf.Handle ((module F), fs) as h) ?(path = "/lmdb.data")
    ?(map_bytes = 64 * Units.mib) ?(value_bytes = 1024) () =
  let cpu = Cpu.make ~id:0 () in
  let fd = F.create fs cpu path in
  (* Sparse mapping via ftruncate — the LMDB signature move. *)
  F.ftruncate fs cpu fd map_bytes;
  let vm = Vmem.create (F.device fs) in
  let region = Vmem.mmap vm ~len:map_bytes ~backing:(F.mmap_backing fs fd) () in
  F.close fs cpu fd;
  {
    h;
    vm;
    region;
    page_bytes = Units.base_page;
    value_bytes;
    map_pages = map_bytes / Units.base_page;
    next_page = 2 (* pages 0 and 1 are the meta pages *);
    meta_flip = 0;
    index = Hashtbl.create 4096;
    committed = 0;
  }

exception Full

let alloc_page t =
  if t.next_page >= t.map_pages then raise Full;
  let p = t.next_page in
  t.next_page <- p + 1;
  p

let entries_per_leaf t = t.page_bytes / (16 + t.value_bytes)

(* Commit one write transaction containing [keys]: CoW-write the leaf
   pages, a spine of branch pages, then flip a meta page and persist. *)
let commit_batch t cpu keys =
  let per_leaf = max 1 (entries_per_leaf t) in
  let rec leaves = function
    | [] -> 0
    | ks ->
        let batch = List.filteri (fun i _ -> i < per_leaf) ks in
        let rest = List.filteri (fun i _ -> i >= per_leaf) ks in
        let page = alloc_page t in
        let off = page * t.page_bytes in
        List.iteri
          (fun slot key ->
            let e_off = off + (slot * (16 + t.value_bytes)) in
            Vmem.write_u64 t.vm cpu t.region ~off:e_off (Int64.of_int key);
            Vmem.write_u64 t.vm cpu t.region ~off:(e_off + 8) (Int64.of_int t.value_bytes);
            Vmem.fill t.vm cpu t.region ~off:(e_off + 16) ~len:t.value_bytes 'l';
            Hashtbl.replace t.index key (page, slot))
          batch;
        Vmem.persist t.vm cpu t.region ~off ~len:t.page_bytes;
        1 + leaves rest
  in
  let leaf_pages = leaves keys in
  (* Branch spine: roughly log_fanout of the tree, rewritten per commit. *)
  let spine = max 1 (1 + (leaf_pages / 64)) in
  for _ = 1 to spine do
    let page = alloc_page t in
    let off = page * t.page_bytes in
    Vmem.fill t.vm cpu t.region ~off ~len:t.page_bytes 'b';
    Vmem.persist t.vm cpu t.region ~off ~len:t.page_bytes
  done;
  (* Meta-page flip. *)
  let meta_off = t.meta_flip * t.page_bytes in
  t.meta_flip <- 1 - t.meta_flip;
  Vmem.write_u64 t.vm cpu t.region ~off:meta_off (Int64.of_int t.committed);
  Vmem.persist t.vm cpu t.region ~off:meta_off ~len:t.page_bytes;
  t.committed <- t.committed + 1

type result = {
  keys : int;
  elapsed_ns : int;
  kops_per_s : float;
  page_faults : int;
  huge_faults : int;
}

(* db_bench fillseqbatch: sequential keys in batches of [batch]. *)
let fillseqbatch t ?(batch = 100) ~keys () =
  let cpu = Cpu.make ~id:0 () in
  let t0 = Cpu.now cpu in
  let k = ref 0 in
  (try
     while !k < keys do
       let n = min batch (keys - !k) in
       commit_batch t cpu (List.init n (fun i -> !k + i));
       k := !k + n
     done
   with Full -> ());
  let elapsed = Cpu.now cpu - t0 in
  let c = Vmem.counters t.vm in
  {
    keys = !k;
    elapsed_ns = elapsed;
    kops_per_s =
      (if elapsed = 0 then 0. else float_of_int !k /. (float_of_int elapsed /. 1e9) /. 1000.);
    page_faults = Counters.get c "mm.page_faults";
    huge_faults = Counters.get c "mm.huge_faults";
  }

let read t cpu ~key =
  match Hashtbl.find_opt t.index key with
  | Some (page, slot) ->
      let off = (page * t.page_bytes) + (slot * (16 + t.value_bytes)) in
      Vmem.read t.vm cpu t.region ~off ~len:(16 + t.value_bytes);
      true
  | None -> false
