open Repro_util
module Device = Repro_pmem.Device
module Site = Repro_pmem.Site
module Sched = Repro_sched.Sched
module Types = Repro_vfs.Types
module Alloc = Repro_alloc.Aligned_alloc
module Extent_tree = Repro_rbtree.Extent_tree
module Int_map = Repro_rbtree.Ordmap.Int_map

let block = Units.base_page
let huge = Units.huge_page
let site_meta_block = Site.v "core" "meta-block"

type t = {
  dev : Device.t;
  layout : Layout.t;
  txns : Txn.t;
  inodes : Inode.t;
  alloc : Alloc.t;
  meta_free : Extent_tree.t;
      (* free 4K blocks of the dedicated metadata region (§3.3) *)
}

let note ~obj ~write ~site = if Sched.monitored () then Sched.access ~obj ~write ~site

let create ~dev ~layout ~txns ~inodes ~alloc =
  { dev; layout; txns; inodes; alloc; meta_free = Extent_tree.create () }

let seed_meta_pool t =
  Extent_tree.insert_free t.meta_free ~off:t.layout.Layout.meta_pool_off
    ~len:t.layout.Layout.meta_pool_len

let add_meta_free t ~off ~len = Extent_tree.insert_free t.meta_free ~off ~len

let in_meta_region t off =
  off >= t.layout.Layout.meta_pool_off
  && off < t.layout.Layout.meta_pool_off + t.layout.Layout.meta_pool_len

let alloc_meta_block t (cpu : Cpu.t) =
  note ~obj:"fs.meta_free" ~write:true ~site:"fs.alloc_meta_block";
  match Extent_tree.alloc_first_fit t.meta_free ~len:block with
  | Some off -> off
  | None -> (
      match
        Alloc.alloc t.alloc ~cpu:(cpu.id mod t.layout.Layout.cpus) ~len:block
          ~prefer_aligned:false
      with
      | Some [ e ] when e.len = block -> e.off
      | Some exts ->
          List.iter (fun (e : Alloc.extent) -> Alloc.free t.alloc ~off:e.off ~len:e.len) exts;
          Types.err ENOSPC "no space for a metadata block"
      | None -> Types.err ENOSPC "no space for a metadata block")

(* Initialize-then-publish: the fresh block is unreachable until the
   caller's journaled pointer update commits. *)
let zeroed_meta_block t cpu =
  let blk = alloc_meta_block t cpu in
  Device.annotate t.dev (Fresh { addr = blk; len = block });
  Device.with_site t.dev site_meta_block (fun () ->
      Device.memset t.dev cpu ~off:blk ~len:block '\000';
      Device.persist t.dev cpu ~off:blk ~len:block);
  blk

let free_any t ~off ~len =
  if in_meta_region t off then begin
    note ~obj:"fs.meta_free" ~write:true ~site:"fs.free_meta_block";
    Extent_tree.insert_free t.meta_free ~off ~len
  end
  else Alloc.free t.alloc ~off ~len

(* Ensure a free slot exists, allocating an overflow block if needed
   (metadata blocks come from the dedicated pool: contained
   fragmentation). *)
let ensure_slot t cpu txn (f : Inode.file) =
  let s = Inode.take_slot f in
  if s >= 0 then s
  else begin
    let blk = zeroed_meta_block t cpu in
    let tail = List.rev f.overflow in
    let s = Inode.add_overflow_block f blk in
    (* Link it at the tail of the chain (journaled pointer update). *)
    (match tail with
    | [] -> Inode.persist_header t.inodes cpu txn f
    | last :: _ ->
        Txn.meta_write t.txns cpu txn ~addr:last (Codec.Overflow.encode_header ~next:blk ~count:0));
    s
  end

(* A record never crosses a per-CPU stripe boundary (fsck rejects one
   that does), so a merge also needs both runs in the same stripe;
   metadata-pool records are in no stripe and merge as before. *)
let same_stripe t a b =
  let stripes = t.layout.Layout.stripes in
  Option.equal Int.equal (Alloc.region_of stripes a) (Alloc.region_of stripes b)

let add_record t cpu txn (f : Inode.file) ~file_off ~phys ~len ~asrc =
  let merged =
    match Int_map.find_last_leq f.records (file_off - 1) with
    | Some (o, (r : Inode.record))
      when o + r.len = file_off && r.phys + r.len = phys && r.asrc = asrc
           && same_stripe t r.phys phys ->
        let r' = { r with len = r.len + len } in
        Int_map.insert f.records o r';
        Inode.persist_slot t.inodes cpu txn f ~slot:r.slot ~file_off:o ~phys:r.phys
          ~len:r'.len ~asrc;
        true
    | _ -> false
  in
  if not merged then begin
    let slot = ensure_slot t cpu txn f in
    Int_map.insert f.records file_off { Inode.slot; phys; len; asrc };
    Inode.persist_slot t.inodes cpu txn f ~slot ~file_off ~phys ~len ~asrc
  end

let remove_records ?(budget = max_int) t cpu txn (f : Inode.file) ~file_off ~len =
  let stop = file_off + len in
  let freed = ref [] in
  let removed = ref 0 in
  let continue_scan = ref true in
  while !continue_scan && !removed < budget do
    let hit =
      match Int_map.find_last_leq f.records (stop - 1) with
      | Some (o, (r : Inode.record)) when o + r.len > file_off -> Some (o, r)
      | _ -> None
    in
    match hit with
    | None -> continue_scan := false
    | Some (o, r) ->
        Int_map.remove f.records o;
        let cut_lo = max o file_off and cut_hi = min (o + r.len) stop in
        freed := (r.phys + (cut_lo - o), cut_hi - cut_lo) :: !freed;
        let head_len = cut_lo - o and tail_len = o + r.len - cut_hi in
        if head_len > 0 && tail_len > 0 then begin
          (* Split: reuse the slot for the head, new slot for the tail. *)
          Int_map.insert f.records o { r with len = head_len };
          Inode.persist_slot t.inodes cpu txn f ~slot:r.slot ~file_off:o ~phys:r.phys
            ~len:head_len ~asrc:r.asrc;
          let slot = ensure_slot t cpu txn f in
          let tail_phys = r.phys + (cut_hi - o) in
          Int_map.insert f.records cut_hi
            { Inode.slot; phys = tail_phys; len = tail_len; asrc = r.asrc };
          Inode.persist_slot t.inodes cpu txn f ~slot ~file_off:cut_hi ~phys:tail_phys
            ~len:tail_len ~asrc:r.asrc
        end
        else if head_len > 0 then begin
          Int_map.insert f.records o { r with len = head_len };
          Inode.persist_slot t.inodes cpu txn f ~slot:r.slot ~file_off:o ~phys:r.phys
            ~len:head_len ~asrc:r.asrc
        end
        else if tail_len > 0 then begin
          let tail_phys = r.phys + (cut_hi - o) in
          Int_map.insert f.records cut_hi { r with phys = tail_phys; len = tail_len };
          Inode.persist_slot t.inodes cpu txn f ~slot:r.slot ~file_off:cut_hi
            ~phys:tail_phys ~len:tail_len ~asrc:r.asrc
        end
        else begin
          (* Fully removed: zero the slot. *)
          Inode.clear_slot t.inodes cpu txn f r.slot;
          Inode.release_slot f r.slot
        end;
        incr removed
  done;
  (!freed, !continue_scan)

let remove_records_batched t cpu f ~file_off ~len =
  let more = ref true in
  while !more do
    let freed, again =
      Txn.with_txn t.txns cpu ~reserve:200 (fun txn ->
          remove_records ~budget:60 t cpu txn f ~file_off ~len)
    in
    List.iter (fun (o, l) -> free_any t ~off:o ~len:l) freed;
    more := again
  done

let free_file_space t (f : Inode.file) =
  Int_map.iter f.records (fun _ (r : Inode.record) -> free_any t ~off:r.phys ~len:r.len);
  List.iter (fun blk -> free_any t ~off:blk ~len:block) f.overflow

let lookup_run (f : Inode.file) ~file_off =
  match Int_map.find_last_leq f.records file_off with
  | Some (o, (r : Inode.record)) when o + r.len > file_off ->
      Some (r.phys + (file_off - o), o + r.len - file_off)
  | _ -> None

let next_mapped (f : Inode.file) ~file_off =
  match lookup_run f ~file_off with
  | Some _ -> Some file_off
  | None -> (
      match Int_map.find_first_geq f.records file_off with Some (o, _) -> Some o | None -> None)

let chunk_huge_phys f ~chunk_off =
  match lookup_run f ~file_off:chunk_off with
  | Some (phys, run) when run >= huge && Units.is_aligned phys huge -> Some phys
  | _ -> None
