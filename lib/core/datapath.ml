open Repro_util
module Device = Repro_pmem.Device
module Site = Repro_pmem.Site
module Sched = Repro_sched.Sched
module Types = Repro_vfs.Types
module Vmem = Repro_memsim.Vmem
module Degraded = Repro_vfs.Degraded
module Alloc = Repro_alloc.Aligned_alloc
module Int_map = Repro_rbtree.Ordmap.Int_map
module Stats = Repro_stats.Stats

let block = Units.base_page
let huge = Units.huge_page
let site_data = Site.v "core" "data"
let site_data_journal = Site.v "core" "data-journal"
let site_cow = Site.v "core" "cow"
let site_zero = Site.v "core" "zero"
let site_fsync = Site.v "core" "fsync"

type t = {
  dev : Device.t;
  cfg : Types.config;
  txns : Txn.t;
  inodes : Inode.t;
  map : Extent_map.t;
  alloc : Alloc.t;
  faults : Degraded.tally;
}

let create ~dev ~cfg ~txns ~inodes ~map ~alloc ~faults =
  { dev; cfg; txns; inodes; map; alloc; faults }

let strict t = Types.is_strict t.cfg.Types.mode
let acpu t (cpu : Cpu.t) = cpu.id mod t.cfg.Types.cpus
let lookup_run = Extent_map.lookup_run
let next_mapped = Extent_map.next_mapped

(* Allocate backing for a hole, split at 2MB file-chunk boundaries so
   whole chunks land on aligned extents and stay hugepage-mappable
   (§3.2).  Records are inserted in one transaction per call. *)
let allocate_range t cpu txn (f : Inode.file) ~file_off ~len ~zero =
  Stats.count "fs.alloc_bytes" len;
  let cpu_id = acpu t cpu in
  let alloc_one ~file_off ~len =
    (* Alignment-preserving files grow contiguously after their previous
       extent when possible (§3.6). *)
    let contig_after =
      if not f.xattr_align then None
      else
        match Int_map.find_last_leq f.records (file_off - 1) with
        | Some (o, (r : Inode.record)) when o + r.len = file_off -> Some (r.phys + r.len)
        | _ -> None
    in
    let exts =
      match Alloc.alloc ?contig_after t.alloc ~cpu:cpu_id ~len ~prefer_aligned:f.xattr_align with
      | Some exts -> exts
      | None -> Types.err ENOSPC "allocating %d bytes" len
    in
    let cur = ref file_off in
    List.iter
      (fun (e : Alloc.extent) ->
        if zero then Alloc.zero_extents t.dev cpu [ e ];
        (* Whole aligned 2MB chunks come from the aligned pool; everything
           else is hole-sourced (including xattr-aligned fronts). *)
        let asrc = e.len = huge && Units.is_aligned e.off huge in
        Extent_map.add_record t.map cpu txn f ~file_off:!cur ~phys:e.off ~len:e.len ~asrc;
        cur := !cur + e.len)
      exts
  in
  let cur = ref file_off and stop = file_off + len in
  while !cur < stop do
    let chunk_end = min stop (Units.round_down !cur huge + huge) in
    let seg_end =
      if Units.is_aligned !cur huge then
        (* Take as many whole chunks as possible in one allocator call. *)
        let whole = Units.round_down (stop - !cur) huge in
        if whole > 0 then !cur + whole else chunk_end
      else chunk_end
    in
    alloc_one ~file_off:!cur ~len:(seg_end - !cur);
    cur := seg_end
  done

(* Backing for every hole intersecting [off, off+len), block-granular. *)
let ensure_backing t cpu txn f ~off ~len ~zero =
  let lo = Units.round_down off block and hi = Units.round_up (off + len) block in
  let cur = ref lo in
  while !cur < hi do
    match lookup_run f ~file_off:!cur with
    | Some (_, run) -> cur := !cur + run
    | None ->
        let hole_end =
          match next_mapped f ~file_off:(!cur + 1) with
          | Some o -> min hi o
          | None -> hi
        in
        allocate_range t cpu txn f ~file_off:!cur ~len:(hole_end - !cur) ~zero;
        cur := hole_end
  done

(* Large allocations run one bounded journal transaction per ~48MB
   segment (each extent record is a journal entry). *)
let ensure_backing_batched t cpu f ~off ~len ~zero =
  let seg = 48 * Units.mib in
  let cur = ref off in
  while !cur < off + len do
    let n = min seg (off + len - !cur) in
    Txn.with_txn t.txns cpu ~reserve:150 (fun txn ->
        ensure_backing t cpu txn f ~off:!cur ~len:n ~zero);
    cur := !cur + n
  done

(* Is the backing record an aligned-pool extent (data-journaling
   territory) or a hole (copy-on-write territory)?  §3.5 — decided by
   provenance. *)
let backed_aligned (f : Inode.file) ~file_off =
  match Int_map.find_last_leq f.records file_off with
  | Some (o, (r : Inode.record)) when o + r.len > file_off -> r.asrc
  | _ -> false

(* Strict-mode overwrite of a fully-backed range, journaled inside the
   caller's transaction so the enclosing system call stays atomic.
   Returns the physical runs to free after commit (from CoW swaps). *)
let overwrite_in_txn t cpu txn (f : Inode.file) ~off ~src ~src_off ~len =
  let freed_acc = ref [] in
  let cur = ref 0 in
  while !cur < len do
    let file_off = off + !cur in
    let phys, run =
      match lookup_run f ~file_off with Some pr -> pr | None -> assert false
    in
    let n = min (len - !cur) run in
    if backed_aligned f ~file_off then begin
      (* Data journaling: undo-log the old data, then write in place. *)
      Device.with_site t.dev site_data_journal (fun () ->
          Txn.log_range t.txns cpu txn ~addr:phys ~len:n;
          Device.write_string_nt t.dev cpu ~off:phys ~src ~src_off:(src_off + !cur) ~len:n;
          Device.fence t.dev cpu);
      Stats.count "fs.data_journal_bytes" n
    end
    else begin
      (* Copy-on-write into fresh holes: block-align the replaced range,
         preserve untouched head/tail bytes, then swap the records. *)
      let blo = Units.round_down file_off block in
      let bhi =
        min
          (Units.round_up (file_off + n) block)
          (Units.round_up (max f.size (file_off + n)) block)
      in
      let cow_len = bhi - blo in
      let exts =
        match Alloc.alloc t.alloc ~cpu:(acpu t cpu) ~len:cow_len ~prefer_aligned:false with
        | Some exts -> exts
        | None -> Types.err ENOSPC "CoW allocation of %d bytes" cow_len
      in
      let write_piece (e : Alloc.extent) ~piece_file_off =
        Device.with_site t.dev site_cow @@ fun () ->
        let ov_lo = max piece_file_off file_off
        and ov_hi = min (piece_file_off + e.len) (file_off + n) in
        (* Preserve only the block edges the new data does not cover. *)
        let rec preserve cur stop =
          if cur < stop then begin
            match lookup_run f ~file_off:cur with
            | Some (old_phys, old_run) ->
                let m = min (stop - cur) old_run in
                Device.copy_within_nt t.dev cpu ~src:old_phys
                  ~dst:(e.off + (cur - piece_file_off)) ~len:m;
                preserve (cur + m) stop
            | None ->
                Device.memset_nt t.dev cpu ~off:(e.off + (cur - piece_file_off))
                  ~len:(stop - cur) '\000'
          end
        in
        preserve piece_file_off (min ov_lo (piece_file_off + e.len));
        preserve (max ov_hi piece_file_off) (piece_file_off + e.len);
        if ov_hi > ov_lo then
          Device.write_string_nt t.dev cpu ~off:(e.off + (ov_lo - piece_file_off)) ~src
            ~src_off:(src_off + !cur + (ov_lo - file_off)) ~len:(ov_hi - ov_lo);
        Device.fence t.dev cpu
      in
      let pf = ref blo in
      List.iter
        (fun (e : Alloc.extent) ->
          Device.annotate t.dev (Fresh { addr = e.off; len = e.len });
          write_piece e ~piece_file_off:!pf;
          pf := !pf + e.len)
        exts;
      let freed, _ = Extent_map.remove_records t.map cpu txn f ~file_off:blo ~len:cow_len in
      freed_acc := freed @ !freed_acc;
      let pf = ref blo in
      List.iter
        (fun (e : Alloc.extent) ->
          Extent_map.add_record t.map cpu txn f ~file_off:!pf ~phys:e.off ~len:e.len
            ~asrc:false;
          pf := !pf + e.len)
        exts;
      Stats.count "fs.cow_bytes" cow_len
    end;
    cur := !cur + n
  done;
  !freed_acc

(* A write fits the single-transaction atomic path when its journal needs
   (undo copy bytes for aligned overwrites, entry slots for record churn)
   fit one transaction.  Larger writes fall back to a sequence of bounded
   transactions — each atomic, the whole write not (documented deviation;
   the paper bounds transactions at 640B of entries plus the copy area). *)
let fits_one_txn t f ~off ~len =
  len <= Txn.copy_capacity t.txns
  &&
  (* Count records the overlap touches — bounded scan. *)
  let stop = min (off + len) f.Inode.size in
  let rec count cur acc =
    if cur >= stop || acc > 50 then acc
    else
      match lookup_run f ~file_off:cur with
      | Some (_, run) -> count (cur + run) (acc + 1)
      | None -> (
          match next_mapped f ~file_off:(cur + 1) with
          | Some o -> count o (acc + 1)
          | None -> acc)
  in
  count off 0 <= 50

(* Hole ranges of [f] intersecting the block-aligned span of a write:
   after allocation, any part of these outside the written range must be
   zeroed or reads would see the blocks' previous contents. *)
let holes_in f ~off ~len =
  let lo = Units.round_down off block and hi = Units.round_up (off + len) block in
  let holes = ref [] in
  let cur = ref lo in
  while !cur < hi do
    match lookup_run f ~file_off:!cur with
    | Some (_, run) -> cur := !cur + run
    | None ->
        let hole_end =
          match next_mapped f ~file_off:(!cur + 1) with Some o -> min hi o | None -> hi
        in
        holes := (!cur, hole_end) :: !holes;
        cur := hole_end
  done;
  !holes

let zero_uncovered t cpu f holes ~off ~len =
  Device.with_site t.dev site_zero @@ fun () ->
  List.iter
    (fun (h_lo, h_hi) ->
      let zero_range lo hi =
        let cur = ref lo in
        while !cur < hi do
          match lookup_run f ~file_off:!cur with
          | Some (phys, run) ->
              let n = min (hi - !cur) run in
              Device.memset_nt t.dev cpu ~off:phys ~len:n '\000';
              cur := !cur + n
          | None -> cur := hi
        done
      in
      if h_lo < off then zero_range h_lo (min off h_hi);
      if h_hi > off + len then zero_range (max (off + len) h_lo) h_hi)
    holes

let pwrite t cpu (f : Inode.file) ~off ~src ~src_off ~len =
  if src_off < 0 || len < 0 || src_off + len > String.length src then
    Types.err EINVAL "pwrite outside src bounds";
  if len = 0 then 0
  else begin
    if off < 0 then Types.err EINVAL "negative offset";
    Sched.with_lock f.lock (fun () ->
        let pre_holes = holes_in f ~off ~len in
        let write_extension () =
          Device.with_site t.dev site_data @@ fun () ->
          (* Pure extension data: no old contents to protect; data lands
             before the size bump commits. *)
          let old_size = f.size in
          let ext_lo = max off (min (off + len) old_size) in
          let cur = ref ext_lo in
          while !cur < off + len do
            let phys, run = Option.get (lookup_run f ~file_off:!cur) in
            let n = min (off + len - !cur) run in
            Device.write_string_nt t.dev cpu ~off:phys ~src
              ~src_off:(src_off + (!cur - off)) ~len:n;
            cur := !cur + n
          done;
          if off + len > ext_lo then
            if strict t then Device.fence t.dev cpu
            else f.dirty_bytes <- f.dirty_bytes + (off + len - ext_lo)
        in
        let overlap_hi = min (off + len) f.size in
        if strict t && fits_one_txn t f ~off ~len then begin
          (* The whole system call is one journal transaction (§3.6). *)
          let freed = ref [] in
          Txn.with_txn t.txns cpu ~reserve:200 (fun txn ->
              ensure_backing t cpu txn f ~off ~len ~zero:false;
              zero_uncovered t cpu f pre_holes ~off ~len;
              if overlap_hi > off then
                freed :=
                  overwrite_in_txn t cpu txn f ~off ~src ~src_off
                    ~len:(overlap_hi - off);
              write_extension ();
              if off + len > f.size then begin
                f.size <- off + len;
                Inode.persist_size t.inodes cpu txn f
              end);
          List.iter (fun (o, l) -> Alloc.free t.alloc ~off:o ~len:l) !freed
        end
        else if (not (strict t)) && len <= 16 * Units.mib then begin
          (* Relaxed-mode fast path: allocation, in-place data, and the
             size bump share one journal transaction (fine-grained
             journaling, §3.5). *)
          let freed = ref [] in
          Txn.with_txn t.txns cpu ~reserve:150 (fun txn ->
              ensure_backing t cpu txn f ~off ~len ~zero:false;
              zero_uncovered t cpu f pre_holes ~off ~len;
              if overlap_hi > off then
                Device.with_site t.dev site_data (fun () ->
                    let cur = ref off in
                    while !cur < overlap_hi do
                      let phys, run = Option.get (lookup_run f ~file_off:!cur) in
                      let n = min (overlap_hi - !cur) run in
                      Device.write_string_nt t.dev cpu ~off:phys ~src
                        ~src_off:(src_off + (!cur - off)) ~len:n;
                      f.dirty_bytes <- f.dirty_bytes + n;
                      cur := !cur + n
                    done);
              write_extension ();
              if off + len > f.size then begin
                f.size <- off + len;
                Inode.persist_size t.inodes cpu txn f
              end);
          List.iter (fun (o, l) -> Alloc.free t.alloc ~off:o ~len:l) !freed
        end
        else begin
          (* Large or heavily fragmented write: bounded transactions. *)
          ensure_backing_batched t cpu f ~off ~len ~zero:false;
          zero_uncovered t cpu f pre_holes ~off ~len;
          if strict t && overlap_hi > off then begin
            let cap = Txn.copy_capacity t.txns in
            let cur = ref off in
            while !cur < overlap_hi do
              let piece = min cap (overlap_hi - !cur) in
              let freed = ref [] in
              Txn.with_txn t.txns cpu ~reserve:200 (fun txn ->
                  freed :=
                    overwrite_in_txn t cpu txn f ~off:!cur ~src
                      ~src_off:(src_off + (!cur - off)) ~len:piece);
              List.iter (fun (o, l) -> Alloc.free t.alloc ~off:o ~len:l) !freed;
              cur := !cur + piece
            done
          end
          else if overlap_hi > off then
            (* Relaxed: in-place, durable at fsync. *)
            Device.with_site t.dev site_data (fun () ->
                let cur = ref off in
                while !cur < overlap_hi do
                  let phys, run = Option.get (lookup_run f ~file_off:!cur) in
                  let n = min (overlap_hi - !cur) run in
                  Device.write_string_nt t.dev cpu ~off:phys ~src
                    ~src_off:(src_off + (!cur - off)) ~len:n;
                  f.dirty_bytes <- f.dirty_bytes + n;
                  cur := !cur + n
                done);
          write_extension ();
          if off + len > f.size then begin
            f.size <- off + len;
            Txn.with_txn t.txns cpu ~reserve:2 (fun txn -> Inode.persist_size t.inodes cpu txn f)
          end
        end);
    Stats.count "fs.write_bytes" len;
    len
  end

let pread t cpu (f : Inode.file) ~off ~len =
  if off < 0 || len < 0 then Types.err EINVAL "bad range";
  let len = max 0 (min len (f.size - off)) in
  if len = 0 then ""
  else begin
    let dst = Bytes.make len '\000' in
    let cur = ref off in
    while !cur < off + len do
      match lookup_run f ~file_off:!cur with
      | Some (phys, run) ->
          let n = min (off + len - !cur) run in
          (try Device.read t.dev cpu ~off:phys ~len:n ~dst ~dst_off:(!cur - off)
           with Device.Media_error { off = bad } ->
             (* Simulated MCE: never return made-up bytes — the read is
                refused with EIO, as a DAX read of a poisoned line would
                be. *)
             Degraded.count_fault t.faults ~detected:1 ~repaired:0 ~refused:1;
             Types.err EIO "media error at %#x reading ino %d" bad f.ino);
          cur := !cur + n
      | None ->
          (* Hole: zeros. *)
          let hole_end =
            match next_mapped f ~file_off:(!cur + 1) with
            | Some o -> min (off + len) o
            | None -> off + len
          in
          cur := hole_end
    done;
    Stats.count "fs.read_bytes" len;
    Bytes.unsafe_to_string dst
  end

let fsync t cpu (f : Inode.file) =
  if not (strict t) && f.dirty_bytes > 0 then begin
    let lines = (f.dirty_bytes + Units.cacheline - 1) / Units.cacheline in
    Simclock.advance cpu.Cpu.clock
      (int_of_float ((Device.cost t.dev).flush_ns *. float_of_int lines));
    Device.with_site t.dev site_fsync (fun () -> Device.fence t.dev cpu);
    f.dirty_bytes <- 0
  end

let fallocate t cpu (f : Inode.file) ~off ~len =
  if off < 0 || len <= 0 then Types.err EINVAL "bad range";
  Sched.with_lock f.lock (fun () ->
      (* WineFS zeroes at allocation time so page faults only build
         mappings (§5.4 PmemKV discussion). *)
      ensure_backing_batched t cpu f ~off ~len ~zero:true;
      if off + len > f.size then begin
        f.size <- off + len;
        Txn.with_txn t.txns cpu ~reserve:2 (fun txn -> Inode.persist_size t.inodes cpu txn f)
      end)

let ftruncate t cpu (f : Inode.file) new_size =
  if new_size < 0 then Types.err EINVAL "negative size";
  Sched.with_lock f.lock (fun () ->
      if new_size < f.size then begin
        let lo = Units.round_up new_size block in
        let old_size = f.size in
        f.size <- new_size;
        Txn.with_txn t.txns cpu ~reserve:2 (fun txn -> Inode.persist_size t.inodes cpu txn f);
        if old_size > lo then
          Extent_map.remove_records_batched t.map cpu f ~file_off:lo ~len:(old_size - lo);
        (* Zero the mapped tail of the last block so a later size extension
           reads zeros, per POSIX. *)
        (if lo > new_size then
           match lookup_run f ~file_off:new_size with
           | Some (phys, run) ->
               Device.with_site t.dev site_zero (fun () ->
                   Device.memset_nt t.dev cpu ~off:phys ~len:(min run (lo - new_size)) '\000';
                   Device.fence t.dev cpu)
           | None -> ())
      end
      else if new_size > f.size then begin
        (* Sparse extension: no allocation (LMDB relies on this). *)
        f.size <- new_size;
        Txn.with_txn t.txns cpu ~reserve:2 (fun txn -> Inode.persist_size t.inodes cpu txn f)
      end)

let truncate_on_open t cpu (f : Inode.file) =
  Sched.with_lock f.lock (fun () ->
      let old_size = f.size in
      f.size <- 0;
      Txn.with_txn t.txns cpu ~reserve:2 (fun txn -> Inode.persist_header t.inodes cpu txn f);
      Extent_map.remove_records_batched t.map cpu f ~file_off:0 ~len:old_size)

(* The hugepage-aware fault path (§3.6). *)
let fault t ~read_only ~enqueue ino : Vmem.backing =
 fun cpu ~file_off ~huge_ok ->
  let f = Inode.find t.inodes ino in
  if huge_ok then begin
    match Extent_map.chunk_huge_phys f ~chunk_off:file_off with
    | Some phys -> Vmem.Huge phys
    | None ->
        let covered = Option.is_some (lookup_run f ~file_off) in
        if covered then begin
          (* Unaligned or fragmented backing: fall back to base pages,
             and queue the file for reactive rewriting (§3.6). *)
          enqueue ino;
          match lookup_run f ~file_off with
          | Some (phys, run) when run >= block -> Vmem.Base phys
          | _ -> Vmem.Sigbus
        end
        else if read_only () then Vmem.Sigbus
          (* degraded: faulting a hole would allocate — refuse *)
        else begin
          (* Hole: allocate a whole aligned extent at fault time so the
             chunk maps as a hugepage (LMDB-style sparse files win here). *)
          match Alloc.alloc_hugepage t.alloc ~cpu:(acpu t cpu) with
          | Some phys ->
              Alloc.zero_extents t.dev cpu [ { Alloc.off = phys; len = huge } ];
              Sched.with_lock f.lock (fun () ->
                  Txn.with_txn t.txns cpu ~reserve:4 (fun txn ->
                      Extent_map.add_record t.map cpu txn f ~file_off ~phys ~len:huge
                        ~asrc:true));
              Stats.count "fs.fault_huge_allocs" 1;
              Vmem.Huge phys
          | None -> (
              (* No aligned extents left: 4K on demand. *)
              match
                Alloc.alloc t.alloc ~cpu:(acpu t cpu) ~len:block ~prefer_aligned:false
              with
              | Some [ ext ] ->
                  Alloc.zero_extents t.dev cpu [ ext ];
                  Sched.with_lock f.lock (fun () ->
                      Txn.with_txn t.txns cpu ~reserve:4 (fun txn ->
                          Extent_map.add_record t.map cpu txn f ~file_off ~phys:ext.off
                            ~len:block ~asrc:false));
                  Vmem.Base ext.off
              | _ -> Vmem.Sigbus)
        end
  end
  else begin
    match lookup_run f ~file_off with
    | Some (phys, _) -> Vmem.Base phys
    | None when read_only () -> Vmem.Sigbus
    | None -> (
        match Alloc.alloc t.alloc ~cpu:(acpu t cpu) ~len:block ~prefer_aligned:false with
        | Some [ ext ] ->
            Alloc.zero_extents t.dev cpu [ ext ];
            Sched.with_lock f.lock (fun () ->
                Txn.with_txn t.txns cpu ~reserve:4 (fun txn ->
                    Extent_map.add_record t.map cpu txn f ~file_off ~phys:ext.off ~len:block
                      ~asrc:false));
            Vmem.Base ext.off
        | _ -> Vmem.Sigbus)
  end
