(** Offline multi-phase checker/repairer (see fsck.mli for the phase
    walkthrough).  All device mutation is funneled through the pm_*
    helpers, and — apart from superblock repair, journal rollback and
    clone data copies, which must precede the phases that re-read the
    affected bytes — happens in phase 6 from the rebuilt in-memory
    picture, so a check run writes nothing and a repair run on a clean
    image is a byte-identical no-op. *)

open Repro_util
module Device = Repro_pmem.Device
module Site = Repro_pmem.Site
module Types = Repro_vfs.Types
module Layout = Winefs.Layout
module Codec = Winefs.Codec
module Journal = Repro_journal.Undo_journal
module Extent_tree = Repro_rbtree.Extent_tree
module Alloc = Repro_alloc.Aligned_alloc
module Stats = Repro_stats.Stats
module Json = Repro_stats.Json

let block = Units.base_page
let root_ino = 1

type severity = Note | Repair | Fatal

type finding = {
  phase : int;
  rule : string;
  obj : string;
  detail : string;
  action : string;
  severity : severity;
}

type report = {
  repair : bool;
  clean : bool;
  fatal : bool;
  findings : finding list;
  repairs : int;
  notes : int;
  orphans_reattached : int;
  phase_ns : (string * int) list;
}

(* ------------------------------------------------------------------ *)
(* In-memory picture of one on-PM inode, rebuilt by phase 3 and        *)
(* reconciled by phases 4-5.  [x_read_phys] keeps the original extent  *)
(* address after a clone-and-reassign so later phases read bytes that  *)
(* exist in both check and repair mode.                                *)

type xrec = {
  x_file_off : int;
  mutable x_phys : int;
  x_read_phys : int;
  x_len : int;
  x_asrc : bool;
}

type dent = { d_name : string; d_ino : int }

type info = {
  i_ino : int;
  mutable i_hdr : Codec.Inode.header;
  mutable i_recs : xrec list; (* ascending file offset *)
  mutable i_overflow : int list; (* chain order *)
  mutable i_dents : dent list; (* directories: live entries, slot order *)
  mutable i_parent : (int * string) option; (* directories: (parent, name) *)
  mutable i_refs : int; (* files: incoming dentry count *)
  mutable i_meta_dirty : bool; (* rewrite header + slots + chain *)
  mutable i_dents_dirty : bool; (* rewrite dentry blocks *)
  mutable i_cleared : bool;
}

type ctx = {
  dev : Device.t;
  cpu : Cpu.t;
  repair : bool;
  mutable findings : finding list; (* newest first *)
  mutable repairs : int;
  mutable notes : int;
  mutable fatal : bool;
  mutable orphans : int;
  mutable phase_ns : (string * int) list; (* newest first *)
  mutable clear_inos : int list; (* records to zero in phase 6 *)
  mutable fresh_inos : int list; (* installed by fsck; skip nlink noise *)
}

let record (c : ctx) ~phase ~rule ~obj ~severity ~detail ~action =
  c.findings <- { phase; rule; obj; detail; action; severity } :: c.findings;
  (match severity with
  | Note -> c.notes <- c.notes + 1
  | Repair ->
      c.repairs <- c.repairs + 1;
      if Stats.enabled () then Stats.counter_add ~labels:[ ("rule", rule) ] "fsck.repairs" 1
  | Fatal -> c.fatal <- true);
  Stats.count "fsck.findings" 1

let site_repair = Site.v "fsck" "repair"

let pm_write (c : ctx) ~off b =
  Device.with_site c.dev site_repair (fun () ->
      Device.write c.dev c.cpu ~off ~src:b ~src_off:0 ~len:(Bytes.length b);
      Device.persist c.dev c.cpu ~off ~len:(Bytes.length b))

let pm_zero (c : ctx) ~off ~len =
  Device.with_site c.dev site_repair (fun () ->
      Device.memset c.dev c.cpu ~off ~len '\000';
      Device.persist c.dev c.cpu ~off ~len)

(* Clone the content of a double-allocated extent.  Per cache line so a
   poisoned source line degrades to zeroes instead of aborting. *)
let copy_extent (c : ctx) ~src ~dst ~len =
  Device.with_site c.dev site_repair (fun () ->
      let b = Bytes.create 64 in
      let n = ref 0 in
      while !n < len do
        let chunk = min 64 (len - !n) in
        (match Device.read c.dev c.cpu ~off:(src + !n) ~len:chunk ~dst:b ~dst_off:0 with
        | () -> ()
        | exception Device.Media_error _ -> Bytes.fill b 0 chunk '\000');
        Device.write c.dev c.cpu ~off:(dst + !n) ~src:b ~src_off:0 ~len:chunk;
        n := !n + chunk
      done;
      Device.persist c.dev c.cpu ~off:dst ~len)

let phase_time (c : ctx) name f =
  let t0 = Simclock.now c.cpu.Cpu.clock in
  let r = Stats.span ~op:("fsck." ^ name) c.cpu f in
  let dt = Simclock.now c.cpu.Cpu.clock - t0 in
  c.phase_ns <- (name, dt) :: c.phase_ns;
  if Stats.enabled () then Stats.counter_add ~labels:[ ("phase", name) ] "fsck.phase_ns" dt;
  r

(* ------------------------------------------------------------------ *)
(* Phase 1: superblock + replica reconcile                             *)

let phase1 (c : ctx) =
  let fix which off sb =
    record c ~phase:1 ~rule:("sb-" ^ which)
      ~obj:(Printf.sprintf "superblock %s" which)
      ~severity:Repair ~detail:"superblock copy corrupt" ~action:"rewrite from the good copy";
    if c.repair then pm_write c ~off (Codec.Superblock.encode sb)
  in
  let sb =
    Layout.read_superblock c.dev c.cpu ~reconcile:(function
      | `Ok p, `Ok r ->
          if p <> r then fix "replica" Layout.sb_replica_off p;
          p
      | `Ok p, (`Bad_csum | `Bad_magic) ->
          fix "replica" Layout.sb_replica_off p;
          p
      | (`Bad_csum | `Bad_magic), `Ok r ->
          fix "primary" 0 r;
          r
      | `Bad_magic, `Bad_magic -> Types.err EINVAL "fsck: not a WineFS image"
      | (`Bad_csum, (`Bad_csum | `Bad_magic)) | (`Bad_magic, `Bad_csum) ->
          Types.err EIO "fsck: superblock corrupt in both copies")
  in
  let layout =
    Layout.compute ~size:sb.Codec.Superblock.size ~cpus:sb.cpus ~inodes_per_cpu:sb.inodes_per_cpu
  in
  if not sb.clean then
    record c ~phase:1 ~rule:"dirty-stamp" ~obj:"superblock" ~severity:Note
      ~detail:"image was not cleanly unmounted" ~action:"clear the stamp after repair";
  (sb, layout)

(* ------------------------------------------------------------------ *)
(* Phase 2: journal scan (and, in repair mode, rollback)               *)

let phase2 (c : ctx) (layout : Layout.t) =
  let counter = Journal.Txn_counter.create () in
  let pendings = ref [] in
  for j = 0 to layout.cpus - 1 do
    let off = layout.journal_off.(j) in
    let obj = Printf.sprintf "journal %d" j in
    let reformat () =
      if c.repair then
        ignore
          (Journal.format c.dev c.cpu counter ~off ~entries:layout.journal_entries
             ~copy_bytes:layout.journal_copy_bytes)
    in
    (match
       Journal.attach c.dev counter ~off ~entries:layout.journal_entries
         ~copy_bytes:layout.journal_copy_bytes
     with
    | exception Invalid_argument _ ->
        record c ~phase:2 ~rule:"journal-header" ~obj ~severity:Repair
          ~detail:"journal header has a bad magic"
          ~action:"reformat (discards any unfinished transaction)";
        reformat ()
    | exception Device.Media_error _ ->
        record c ~phase:2 ~rule:"journal-header" ~obj ~severity:Repair
          ~detail:"media error reading the journal header"
          ~action:"reformat (discards any unfinished transaction)";
        reformat ()
    | jr -> (
        let live = ref 0 in
        match Journal.Recovery.iter_live jr c.cpu (fun _ -> incr live) with
        | exception Device.Media_error _ ->
            record c ~phase:2 ~rule:"journal-entry-media" ~obj ~severity:Repair
              ~detail:"media error in the journal slot area" ~action:"reformat journal";
            reformat ()
        | () ->
            (match Journal.Recovery.scan_pending jr c.cpu with
            | exception Device.Media_error _ ->
                record c ~phase:2 ~rule:"journal-copy" ~obj ~severity:Repair
                  ~detail:"media error reading the journal copy area"
                  ~action:"discard the journal; later phases reconcile";
                reformat ()
            | Some p ->
                record c ~phase:2 ~rule:"journal-pending" ~obj ~severity:Repair
                  ~detail:
                    (Printf.sprintf "unfinished transaction %d (%d undo records, %d live entries)"
                       p.Journal.Recovery.txn_id
                       (List.length p.Journal.Recovery.records)
                       !live)
                  ~action:"roll back the journaled old bytes";
                pendings := (jr, p) :: !pendings
            | None -> ());
            if Journal.Recovery.csum_failures jr > 0 then
              record c ~phase:2 ~rule:"journal-entry-crc" ~obj ~severity:Note
                ~detail:
                  (Printf.sprintf "%d journal entries refused by checksum"
                     (Journal.Recovery.csum_failures jr))
                ~action:"refused entries end the live window"));
  done;
  if c.repair then
    List.iter
      (fun (jr, p) -> Journal.Recovery.rollback_pending jr c.cpu p)
      (List.sort
         (fun (_, a) (_, b) ->
           compare b.Journal.Recovery.txn_id a.Journal.Recovery.txn_id)
         !pendings)

(* ------------------------------------------------------------------ *)
(* Phase 3: inode table scan                                           *)

(* The finding's object name, built only when a finding is recorded: the
   scan visits every inode slot, and most record nothing. *)
let inode_obj ino = Printf.sprintf "inode %d" ino

(* [hb] is the phase's scratch buffer; the chain walk reads each overflow
   header into it.  A revisited block is one already in [acc], the chain
   walked so far, so a cycle is caught without a per-inode bitmap. *)
let scan_chain (c : ctx) (layout : Layout.t) hb inf =
  let truncate detail =
    record c ~phase:3 ~rule:"overflow-chain" ~obj:(inode_obj inf.i_ino) ~severity:Repair ~detail
      ~action:"truncate the extent-overflow chain";
    inf.i_meta_dirty <- true
  in
  let rec walk blk acc =
    if blk = 0 then List.rev acc
    else if (not (Layout.in_meta_pool layout ~off:blk ~len:block)) || blk mod block <> 0 then begin
      truncate (Printf.sprintf "overflow pointer %d outside the metadata pool" blk);
      List.rev acc
    end
    else if List.mem blk acc then begin
      truncate (Printf.sprintf "overflow chain revisits block %d" blk);
      List.rev acc
    end
    else
      match Device.read c.dev c.cpu ~off:blk ~len:Codec.Overflow.header_bytes ~dst:hb ~dst_off:0 with
      | exception Device.Media_error _ ->
          truncate (Printf.sprintf "media error reading overflow block %d" blk);
          List.rev acc
      | () ->
          let next, _count = Codec.Overflow.decode_header hb in
          walk next (blk :: acc)
  in
  inf.i_overflow <- walk inf.i_hdr.Codec.Inode.overflow []

(* Each slot region (the inline area, then each overflow block's
   records) is one bulk read into [buf], decoded in place as the mount
   does.  A region whose bulk read hits a media error is re-read slot by
   slot, so [extent-media] findings stay per slot. *)
let scan_slots (c : ctx) (layout : Layout.t) ~buf inf =
  let eb = Codec.Inode.extent_bytes in
  let recs = ref [] in
  let check b off =
    let file_off = Codec.Inode.extent_file_off_at b off in
    let phys = Codec.Inode.extent_phys_at b off in
    let len = Codec.Inode.extent_len_at b off in
    if len = 0 && phys = 0 && file_off = 0 then () (* free slot *)
    else if
      len <= 0 || file_off < 0
      || not
           (Layout.in_meta_pool layout ~off:phys ~len || Layout.in_data_area layout ~off:phys ~len)
    then begin
      record c ~phase:3 ~rule:"extent-bounds" ~obj:(inode_obj inf.i_ino) ~severity:Repair
        ~detail:
          (Printf.sprintf "extent (file_off %d, phys %d, len %d) out of bounds" file_off phys len)
        ~action:"drop the extent record";
      inf.i_meta_dirty <- true
    end
    else
      recs :=
        { x_file_off = file_off; x_phys = phys; x_read_phys = phys; x_len = len;
          x_asrc = Codec.Inode.extent_asrc_at b off }
        :: !recs
  in
  let region ~addr ~count =
    match Device.read c.dev c.cpu ~off:addr ~len:(count * eb) ~dst:buf ~dst_off:0 with
    | () ->
        for i = 0 to count - 1 do
          check buf (i * eb)
        done
    | exception Device.Media_error _ ->
        for i = 0 to count - 1 do
          let addr = addr + (i * eb) in
          match Device.read c.dev c.cpu ~off:addr ~len:eb ~dst:buf ~dst_off:0 with
          | () -> check buf 0
          | exception Device.Media_error _ ->
              record c ~phase:3 ~rule:"extent-media" ~obj:(inode_obj inf.i_ino) ~severity:Repair
                ~detail:(Printf.sprintf "media error reading the extent slot at %d" addr)
                ~action:"drop the extent record";
              inf.i_meta_dirty <- true
        done
  in
  region
    ~addr:(Layout.inode_off layout inf.i_ino + Codec.Inode.extent_slot_off 0)
    ~count:Layout.inline_extents;
  List.iter
    (fun blk -> region ~addr:(blk + Codec.Overflow.record_off 0) ~count:Codec.Overflow.capacity)
    inf.i_overflow;
  (* Overlapping file ranges within one inode: keep the first record. *)
  let span = Extent_tree.create () in
  Extent_tree.insert_free span ~off:0 ~len:(max_int / 4);
  let keep =
    List.filter
      (fun r ->
        if Extent_tree.alloc_exact span ~off:r.x_file_off ~len:r.x_len then true
        else begin
          record c ~phase:3 ~rule:"extent-overlap" ~obj:(inode_obj inf.i_ino) ~severity:Repair
            ~detail:
              (Printf.sprintf "extent at file offset %d overlaps an earlier record" r.x_file_off)
            ~action:"drop the extent record";
          inf.i_meta_dirty <- true;
          false
        end)
      (List.rev !recs)
  in
  inf.i_recs <- List.sort (fun a b -> compare a.x_file_off b.x_file_off) keep

let phase3 (c : ctx) (layout : Layout.t) =
  let max_ino = Layout.max_ino layout in
  let table = Array.make (max_ino + 1) None in
  let hb = Bytes.create Codec.Inode.header_bytes in
  let slots = Bytes.create (Codec.Overflow.capacity * Codec.Inode.extent_bytes) in
  let clear ino rule detail =
    record c ~phase:3 ~rule ~obj:(inode_obj ino) ~severity:Repair ~detail
      ~action:"clear the inode record";
    c.clear_inos <- ino :: c.clear_inos
  in
  for ino = 1 to max_ino do
    let off = Layout.inode_off layout ino in
    match Device.read c.dev c.cpu ~off ~len:Codec.Inode.header_bytes ~dst:hb ~dst_off:0 with
    | exception Device.Media_error _ ->
        clear ino "inode-media" "media error reading the inode header"
    | () ->
        if Codec.Inode.header_is_blank hb then ()
        else if not (Codec.Inode.header_csum_ok hb) then
          clear ino "inode-crc" "inode header checksum mismatch"
        else begin
          let hdr = Codec.Inode.decode_header hb in
          if hdr.Codec.Inode.valid then begin
            let inf =
              { i_ino = ino; i_hdr = hdr; i_recs = []; i_overflow = []; i_dents = [];
                i_parent = None; i_refs = 0; i_meta_dirty = false; i_dents_dirty = false;
                i_cleared = false }
            in
            scan_chain c layout hb inf;
            scan_slots c layout ~buf:slots inf;
            table.(ino) <- Some inf
          end
        end
  done;
  (match table.(root_ino) with
  | Some inf when inf.i_hdr.Codec.Inode.is_dir -> ()
  | Some _ | None ->
      record c ~phase:3 ~rule:"root" ~obj:"inode 1" ~severity:Repair
        ~detail:"root inode missing, corrupt or not a directory"
        ~action:"reinstall an empty root directory";
      c.clear_inos <- List.filter (fun i -> i <> root_ino) c.clear_inos;
      let hdr =
        { Codec.Inode.valid = true; is_dir = true; xattr_align = false; size = 0; nlink = 2;
          extent_count = 0; overflow = 0 }
      in
      table.(root_ino) <-
        Some
          { i_ino = root_ino; i_hdr = hdr; i_recs = []; i_overflow = []; i_dents = [];
            i_parent = None; i_refs = 0; i_meta_dirty = true; i_dents_dirty = false;
            i_cleared = false };
      c.fresh_inos <- root_ino :: c.fresh_inos);
  table

(* ------------------------------------------------------------------ *)
(* Phase 4: extent cross-check against per-region occupancy trees      *)

let slot_capacity inf =
  Layout.inline_extents + (Codec.Overflow.capacity * List.length inf.i_overflow)

let release (layout : Layout.t) meta_tree data_trees ~off ~len =
  if Layout.in_meta_pool layout ~off ~len then Extent_tree.insert_free meta_tree ~off ~len
  else
    match Alloc.region_of layout.stripes off with
    | Some i -> Extent_tree.insert_free data_trees.(i) ~off ~len
    | None -> ()

let phase4 (c : ctx) (layout : Layout.t) sb table =
  let stripes = layout.stripes in
  let meta_tree = Extent_tree.create () in
  Extent_tree.insert_free meta_tree ~off:layout.meta_pool_off ~len:layout.meta_pool_len;
  let data_trees =
    Array.map
      (fun (off, len) ->
        let t = Extent_tree.create () in
        Extent_tree.insert_free t ~off ~len;
        t)
      stripes
  in
  let max_ino = Array.length table - 1 in
  (* Pass 1: claim every referenced block, inode order then chain order
     then file-offset order, so "first owner wins" is deterministic. *)
  let losers = ref [] in
  let claim ~off ~len =
    if Layout.in_meta_pool layout ~off ~len then
      if Extent_tree.alloc_exact meta_tree ~off ~len then `Ok else `Conflict
    else
      match Alloc.region_of stripes off with
      | Some i when off + len <= fst stripes.(i) + snd stripes.(i) ->
          if Extent_tree.alloc_exact data_trees.(i) ~off ~len then `Ok else `Conflict
      | Some _ | None -> `Bounds
  in
  for ino = 1 to max_ino do
    match table.(ino) with
    | None -> ()
    | Some inf ->
        List.iter
          (fun blk ->
            match claim ~off:blk ~len:block with
            | `Ok -> ()
            | `Conflict | `Bounds -> losers := `Blk (inf, blk) :: !losers)
          inf.i_overflow;
        List.iter
          (fun r ->
            match claim ~off:r.x_read_phys ~len:r.x_len with
            | `Ok -> ()
            | `Conflict -> losers := `Rec (inf, r) :: !losers
            | `Bounds -> losers := `RecBounds (inf, r) :: !losers)
          inf.i_recs
  done;
  (* Pass 2: resolve the losers.  Clone allocation happens in both modes
     so check and repair build the same in-memory picture; only the data
     copy is gated on repair. *)
  List.iter
    (fun l ->
      match l with
      | `Blk (inf, blk) -> (
          let obj = inode_obj inf.i_ino in
          (match Extent_tree.alloc_first_fit meta_tree ~len:block with
          | Some clone ->
              record c ~phase:4 ~rule:"overflow-double-alloc" ~obj ~severity:Repair
                ~detail:
                  (Printf.sprintf "overflow block %d is also claimed by an earlier owner" blk)
                ~action:"move the records to a fresh block";
              inf.i_overflow <- List.map (fun b -> if b = blk then clone else b) inf.i_overflow
          | None ->
              record c ~phase:4 ~rule:"overflow-double-alloc" ~obj ~severity:Repair
                ~detail:
                  (Printf.sprintf "overflow block %d is also claimed by an earlier owner" blk)
                ~action:"drop the block (no free metadata space)";
              inf.i_overflow <- List.filter (fun b -> b <> blk) inf.i_overflow);
          inf.i_meta_dirty <- true)
      | `Rec (inf, r) -> (
          let obj = inode_obj inf.i_ino in
          let pool =
            if Layout.in_meta_pool layout ~off:r.x_read_phys ~len:r.x_len then Some meta_tree
            else Option.map (fun i -> data_trees.(i)) (Alloc.region_of stripes r.x_read_phys)
          in
          match Option.map (fun t -> Extent_tree.alloc_first_fit t ~len:r.x_len) pool with
          | Some (Some clone) ->
              record c ~phase:4 ~rule:"extent-double-alloc" ~obj ~severity:Repair
                ~detail:
                  (Printf.sprintf "extent (phys %d, len %d) is also claimed by an earlier owner"
                     r.x_read_phys r.x_len)
                ~action:"clone-and-reassign";
              r.x_phys <- clone;
              inf.i_meta_dirty <- true;
              if inf.i_hdr.Codec.Inode.is_dir then inf.i_dents_dirty <- true
              else if c.repair then copy_extent c ~src:r.x_read_phys ~dst:clone ~len:r.x_len
          | Some None | None ->
              record c ~phase:4 ~rule:"extent-double-alloc" ~obj ~severity:Repair
                ~detail:
                  (Printf.sprintf "extent (phys %d, len %d) is also claimed by an earlier owner"
                     r.x_read_phys r.x_len)
                ~action:"drop the extent record (no free space)";
              inf.i_recs <- List.filter (fun x -> x != r) inf.i_recs;
              inf.i_meta_dirty <- true)
      | `RecBounds (inf, r) ->
          record c ~phase:4 ~rule:"extent-bounds"
            ~obj:(inode_obj inf.i_ino)
            ~severity:Repair
            ~detail:
              (Printf.sprintf "extent (phys %d, len %d) crosses a region boundary" r.x_read_phys
                 r.x_len)
            ~action:"drop the extent record";
          inf.i_recs <- List.filter (fun x -> x != r) inf.i_recs;
          inf.i_meta_dirty <- true)
    (List.rev !losers);
  (* Pass 3: a truncated chain may no longer hold every record. *)
  for ino = 1 to max_ino do
    match table.(ino) with
    | None -> ()
    | Some inf ->
        let cap = slot_capacity inf in
        let n = List.length inf.i_recs in
        if n > cap then begin
          record c ~phase:4 ~rule:"extent-dropped"
            ~obj:(inode_obj ino)
            ~severity:Repair
            ~detail:(Printf.sprintf "%d extent records no longer fit the overflow chain" (n - cap))
            ~action:"drop the highest-offset records";
          List.iteri
            (fun i r ->
              if i >= cap then release layout meta_tree data_trees ~off:r.x_phys ~len:r.x_len)
            inf.i_recs;
          inf.i_recs <- List.filteri (fun i _ -> i < cap) inf.i_recs;
          inf.i_meta_dirty <- true
        end
  done;
  (* The serialized free list is only meaningful after a clean unmount.
     Compare through fresh per-stripe trees so both sides coalesce the
     same way (the live allocator parks aligned extents uncoalesced). *)
  if sb.Codec.Superblock.clean then begin
    let stale detail =
      record c ~phase:4 ~rule:"free-list" ~obj:"serial area" ~severity:Repair ~detail
        ~action:"rewrite from the extent scan"
    in
    let buf = Bytes.create layout.serial_len in
    match Device.read c.dev c.cpu ~off:layout.serial_off ~len:layout.serial_len ~dst:buf ~dst_off:0 with
    | exception Device.Media_error _ -> stale "media error reading the serialized free list"
    | () -> (
        match Codec.Serial.decode buf with
        | None -> stale "serialized free list unparseable"
        | Some l ->
            let norm = Array.map (fun _ -> Extent_tree.create ()) stripes in
            let ok =
              try
                List.iter
                  (fun (off, len) ->
                    match Alloc.region_of stripes off with
                    | Some i when len > 0 && off + len <= fst stripes.(i) + snd stripes.(i) ->
                        Extent_tree.insert_free norm.(i) ~off ~len
                    | Some _ | None -> raise Exit)
                  l;
                true
              with
              | Exit -> false
              | Invalid_argument _ -> false
            in
            let same = ref ok in
            if ok then
              Array.iteri
                (fun i t ->
                  if Extent_tree.to_list t <> Extent_tree.to_list data_trees.(i) then same := false)
                norm;
            if not !same then stale "serialized free list disagrees with the extent scan")
  end;
  (meta_tree, data_trees)

(* ------------------------------------------------------------------ *)
(* Phase 5: connectivity                                               *)

let name_ok s =
  let n = String.length s in
  n >= 1 && n <= Codec.max_name && not (String.exists (fun ch -> ch = '/' || ch = '\000') s)

(* Append a dentry block (and, when the slot table is full, an overflow
   block) to a directory.  No device writes: phase 6 materializes the
   blocks from the in-memory picture. *)
let dir_extend meta_tree inf =
  let need_chain = List.length inf.i_recs >= slot_capacity inf in
  let chain_blk =
    if need_chain then Extent_tree.alloc_first_fit meta_tree ~len:block else Some 0
  in
  match chain_blk with
  | None -> false
  | Some cb -> (
      match Extent_tree.alloc_first_fit meta_tree ~len:block with
      | None ->
          if need_chain then Extent_tree.insert_free meta_tree ~off:cb ~len:block;
          false
      | Some phys ->
          if need_chain then inf.i_overflow <- inf.i_overflow @ [ cb ];
          inf.i_recs <-
            inf.i_recs
            @ [ { x_file_off = inf.i_hdr.Codec.Inode.size; x_phys = phys; x_read_phys = phys;
                  x_len = block; x_asrc = false } ];
          inf.i_hdr <- { inf.i_hdr with Codec.Inode.size = inf.i_hdr.Codec.Inode.size + block };
          inf.i_meta_dirty <- true;
          inf.i_dents_dirty <- true;
          true)

let add_dentry meta_tree inf ~name ~ino =
  let cap = inf.i_hdr.Codec.Inode.size / Codec.dentry_bytes in
  if List.length inf.i_dents >= cap && not (dir_extend meta_tree inf) then false
  else begin
    inf.i_dents <- inf.i_dents @ [ { d_name = name; d_ino = ino } ];
    inf.i_dents_dirty <- true;
    true
  end

let cycle_members trail p =
  let rec take acc = function
    | [] -> acc
    | x :: rest -> if x = p then p :: acc else take (x :: acc) rest
  in
  take [] trail

let phase5 (c : ctx) (layout : Layout.t) table meta_tree data_trees =
  let max_ino = Array.length table - 1 in
  let is_dir inf = inf.i_hdr.Codec.Inode.is_dir in
  (* 5a: per-directory size agreement + dentry scan. *)
  for ino = 1 to max_ino do
    match table.(ino) with
    | Some inf when is_dir inf ->
        let obj = Printf.sprintf "directory %d" ino in
        let coverage =
          List.fold_left (fun acc r -> max acc (r.x_file_off + r.x_len)) 0 inf.i_recs
        in
        if inf.i_hdr.Codec.Inode.size <> coverage then begin
          record c ~phase:5 ~rule:"dir-size" ~obj ~severity:Repair
            ~detail:
              (Printf.sprintf "size %d but dentry blocks cover %d" inf.i_hdr.Codec.Inode.size
                 coverage)
            ~action:"set the size to the covered length";
          inf.i_hdr <- { inf.i_hdr with Codec.Inode.size = coverage };
          inf.i_meta_dirty <- true
        end;
        let buf = Bytes.create Codec.dentry_bytes in
        List.iter
          (fun r ->
            for k = 0 to (r.x_len / Codec.dentry_bytes) - 1 do
              if r.x_file_off + (k * Codec.dentry_bytes) < inf.i_hdr.Codec.Inode.size then begin
                let addr = r.x_read_phys + (k * Codec.dentry_bytes) in
                let drop rule detail =
                  record c ~phase:5 ~rule ~obj ~severity:Repair ~detail
                    ~action:"clear the directory entry";
                  inf.i_dents_dirty <- true
                in
                match Device.read c.dev c.cpu ~off:addr ~len:Codec.dentry_bytes ~dst:buf ~dst_off:0 with
                | exception Device.Media_error _ ->
                    drop "dentry-media" (Printf.sprintf "media error reading the slot at %d" addr)
                | () -> (
                    match Codec.Dentry.decode buf with
                    | exception Invalid_argument _ ->
                        drop "dentry-corrupt" "dentry name length out of range"
                    | None -> ()
                    | Some d ->
                        if not (name_ok d.Codec.Dentry.name) then
                          drop "dentry-corrupt"
                            (Printf.sprintf "invalid name %s" (String.escaped d.name))
                        else if d.ino < 1 || d.ino > max_ino || Option.is_none table.(d.ino) then
                          drop "dentry-dangling"
                            (Printf.sprintf "entry %s points at missing inode %d" d.name d.ino)
                        else if List.exists (fun e -> e.d_name = d.name) inf.i_dents then
                          drop "dentry-dup" (Printf.sprintf "duplicate entry %s" d.name)
                        else begin
                          let target = Option.get table.(d.ino) in
                          if is_dir target then begin
                            if d.ino = root_ino || target.i_parent <> None then
                              drop "dir-multi-ref"
                                (Printf.sprintf "entry %s makes a second link to directory %d"
                                   d.name d.ino)
                            else begin
                              target.i_parent <- Some (ino, d.name);
                              inf.i_dents <- inf.i_dents @ [ { d_name = d.name; d_ino = d.ino } ]
                            end
                          end
                          else begin
                            target.i_refs <- target.i_refs + 1;
                            inf.i_dents <- inf.i_dents @ [ { d_name = d.name; d_ino = d.ino } ]
                          end
                        end)
              end
            done)
          inf.i_recs
    | Some _ | None -> ()
  done;
  (* 5b: break directory cycles; each break makes an orphan root. *)
  let break_edge m =
    match m.i_parent with
    | None -> ()
    | Some (p, name) ->
        (match table.(p) with
        | Some par ->
            par.i_dents <- List.filter (fun d -> d.d_name <> name) par.i_dents;
            par.i_dents_dirty <- true
        | None -> ());
        record c ~phase:5 ~rule:"dir-cycle"
          ~obj:(Printf.sprintf "directory %d" m.i_ino)
          ~severity:Repair
          ~detail:(Printf.sprintf "directory cycle through entry %s of directory %d" name p)
          ~action:"detach and reattach in /lost+found";
        m.i_parent <- None
  in
  let rec chase trail ino =
    if ino = root_ino then `Ok
    else
      match table.(ino) with
      | None -> `Ok
      | Some inf -> (
          match inf.i_parent with
          | None -> `Ok
          | Some (p, _) ->
              if List.mem p (ino :: trail) then `Cycle (cycle_members (ino :: trail) p)
              else chase (ino :: trail) p)
  in
  let progress = ref true in
  while !progress do
    progress := false;
    for ino = 1 to max_ino do
      if not !progress then
        match table.(ino) with
        | Some inf when is_dir inf -> (
            match chase [] ino with
            | `Ok -> ()
            | `Cycle members ->
                let m = List.fold_left min max_int members in
                (match table.(m) with Some mi -> break_edge mi | None -> ());
                progress := true)
        | Some _ | None -> ()
    done
  done;
  (* 5c: reattach orphans into /lost+found (created on demand; the root
     itself is the fallback home when creation is impossible). *)
  let clear_info inf =
    inf.i_cleared <- true;
    List.iter (fun r -> release layout meta_tree data_trees ~off:r.x_phys ~len:r.x_len) inf.i_recs;
    List.iter (fun blk -> release layout meta_tree data_trees ~off:blk ~len:block) inf.i_overflow
  in
  let lf = ref None in
  let get_lf () =
    match !lf with
    | Some d -> d
    | None ->
        let root = Option.get table.(root_ino) in
        let d =
          match List.find_opt (fun d -> d.d_name = "lost+found") root.i_dents with
          | Some d -> (
              match table.(d.d_ino) with Some t when is_dir t -> t | Some _ | None -> root)
          | None -> (
              let free = ref 0 in
              (try
                 for i = 1 to max_ino do
                   if Option.is_none table.(i) && not (List.mem i c.clear_inos) then begin
                     free := i;
                     raise Exit
                   end
                 done
               with Exit -> ());
              if !free = 0 then root
              else if not (add_dentry meta_tree root ~name:"lost+found" ~ino:!free) then root
              else begin
                let hdr =
                  { Codec.Inode.valid = true; is_dir = true; xattr_align = false; size = 0;
                    nlink = 2; extent_count = 0; overflow = 0 }
                in
                let inf =
                  { i_ino = !free; i_hdr = hdr; i_recs = []; i_overflow = []; i_dents = [];
                    i_parent = Some (root_ino, "lost+found"); i_refs = 0; i_meta_dirty = true;
                    i_dents_dirty = false; i_cleared = false }
                in
                table.(!free) <- Some inf;
                c.fresh_inos <- !free :: c.fresh_inos;
                record c ~phase:5 ~rule:"lost-found" ~obj:"/lost+found" ~severity:Repair
                  ~detail:"orphans need a home" ~action:"create the directory";
                inf
              end)
        in
        lf := Some d;
        d
  in
  let reattach inf kind =
    let home = get_lf () in
    let name = Printf.sprintf "ino_%d" inf.i_ino in
    let obj = inode_obj inf.i_ino in
    if
      home.i_ino <> inf.i_ino
      && (not (List.exists (fun d -> d.d_name = name) home.i_dents))
      && add_dentry meta_tree home ~name ~ino:inf.i_ino
    then begin
      (if is_dir inf then inf.i_parent <- Some (home.i_ino, name) else inf.i_refs <- 1);
      c.orphans <- c.orphans + 1;
      record c ~phase:5 ~rule:"orphan" ~obj ~severity:Repair
        ~detail:(Printf.sprintf "%s not reachable from the root" kind)
        ~action:(Printf.sprintf "reattach as ino_%d" inf.i_ino)
    end
    else begin
      record c ~phase:5 ~rule:"orphan" ~obj ~severity:Repair
        ~detail:(Printf.sprintf "%s not reachable from the root" kind)
        ~action:"clear the inode record (no space to reattach)";
      clear_info inf
    end
  in
  for ino = 1 to max_ino do
    match table.(ino) with
    | None -> ()
    | Some inf when inf.i_cleared -> ()
    | Some inf ->
        if is_dir inf then begin
          if ino <> root_ino && inf.i_parent = None then reattach inf "directory"
        end
        else if inf.i_refs = 0 then
          if inf.i_hdr.Codec.Inode.nlink = 0 then begin
            record c ~phase:5 ~rule:"orphan-free"
              ~obj:(inode_obj ino)
              ~severity:Repair
              ~detail:"unreferenced file with zero link count (interrupted delete)"
              ~action:"free the inode and its extents";
            clear_info inf
          end
          else reattach inf "file"
  done;
  (* 5d: recompute link counts from the final edge set. *)
  let child_dirs = Array.make (max_ino + 1) 0 in
  for ino = 1 to max_ino do
    match table.(ino) with
    | Some inf when is_dir inf && not inf.i_cleared -> (
        match inf.i_parent with
        | Some (p, _) when p >= 1 && p <= max_ino -> child_dirs.(p) <- child_dirs.(p) + 1
        | Some _ | None -> ())
    | Some _ | None -> ()
  done;
  for ino = 1 to max_ino do
    match table.(ino) with
    | Some inf when not inf.i_cleared ->
        let want = if is_dir inf then 2 + child_dirs.(ino) else inf.i_refs in
        if want <> inf.i_hdr.Codec.Inode.nlink then begin
          if not (List.mem ino c.fresh_inos) then
            record c ~phase:5 ~rule:"nlink"
              ~obj:(inode_obj ino)
              ~severity:Repair
              ~detail:
                (Printf.sprintf "link count %d but %d references found"
                   inf.i_hdr.Codec.Inode.nlink want)
              ~action:"set the link count to the reference count";
          inf.i_hdr <- { inf.i_hdr with Codec.Inode.nlink = want };
          inf.i_meta_dirty <- true
        end
    | Some _ | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* Phase 6: rewrite repaired metadata                                  *)

(* Rewrite an inode's 256-byte record and its overflow chain from the
   in-memory picture.  Whole records/blocks are written (full 64-byte
   lines), which also clears any poisoned lines under them. *)
let rewrite_meta (c : ctx) (layout : Layout.t) inf =
  let recs = Array.of_list inf.i_recs in
  let n = Array.length recs in
  inf.i_hdr <-
    { inf.i_hdr with
      Codec.Inode.extent_count = n;
      overflow = (match inf.i_overflow with [] -> 0 | b0 :: _ -> b0) };
  let rec_len r = if r.x_asrc then r.x_len lor Codec.Inode.asrc_bit else r.x_len in
  let ib = Bytes.make Layout.inode_bytes '\000' in
  Bytes.blit (Codec.Inode.encode_header inf.i_hdr) 0 ib 0 Codec.Inode.header_bytes;
  for i = 0 to min n Layout.inline_extents - 1 do
    Bytes.blit
      (Codec.Inode.encode_extent ~file_off:recs.(i).x_file_off ~phys:recs.(i).x_phys
         ~len:(rec_len recs.(i)))
      0 ib
      (Codec.Inode.extent_slot_off i)
      Codec.Inode.extent_bytes
  done;
  pm_write c ~off:(Layout.inode_off layout inf.i_ino) ib;
  let chain = Array.of_list inf.i_overflow in
  Array.iteri
    (fun ci blk ->
      let next = if ci + 1 < Array.length chain then chain.(ci + 1) else 0 in
      let base = Layout.inline_extents + (ci * Codec.Overflow.capacity) in
      let count = max 0 (min Codec.Overflow.capacity (n - base)) in
      let bb = Bytes.make block '\000' in
      Bytes.blit (Codec.Overflow.encode_header ~next ~count) 0 bb 0 Codec.Overflow.header_bytes;
      for k = 0 to count - 1 do
        let r = recs.(base + k) in
        Bytes.blit
          (Codec.Inode.encode_extent ~file_off:r.x_file_off ~phys:r.x_phys ~len:(rec_len r))
          0 bb (Codec.Overflow.record_off k) Codec.Inode.extent_bytes
      done;
      pm_write c ~off:blk bb)
    chain

(* Rewrite every dentry slot in a dirty directory's coverage: live
   entries packed first, the rest freed.  Every slot is one full line. *)
let rewrite_dents (c : ctx) inf =
  let slots = ref [] in
  List.iter
    (fun r ->
      for k = 0 to (r.x_len / Codec.dentry_bytes) - 1 do
        if r.x_file_off + (k * Codec.dentry_bytes) < inf.i_hdr.Codec.Inode.size then
          slots := (r.x_phys + (k * Codec.dentry_bytes)) :: !slots
      done)
    inf.i_recs;
  let rec write_slots dents addrs =
    match (addrs, dents) with
    | [], _ -> ()
    | addr :: rest, d :: ds ->
        pm_write c ~off:addr (Codec.Dentry.encode { Codec.Dentry.ino = d.d_ino; name = d.d_name });
        write_slots ds rest
    | addr :: rest, [] ->
        pm_write c ~off:addr Codec.Dentry.free_slot;
        write_slots [] rest
  in
  write_slots inf.i_dents (List.rev !slots)

let phase6 (c : ctx) (layout : Layout.t) sb table data_trees =
  if c.repair && c.findings <> [] then begin
    List.iter
      (fun ino -> pm_zero c ~off:(Layout.inode_off layout ino) ~len:Layout.inode_bytes)
      (List.rev c.clear_inos);
    Array.iteri
      (fun _ slot ->
        match slot with
        | None -> ()
        | Some inf ->
            if inf.i_cleared then
              pm_zero c ~off:(Layout.inode_off layout inf.i_ino) ~len:Layout.inode_bytes
            else begin
              if inf.i_meta_dirty then rewrite_meta c layout inf;
              if inf.i_dents_dirty then rewrite_dents c inf
            end)
      table;
    if not c.fatal then begin
      let free = ref [] in
      for i = Array.length data_trees - 1 downto 0 do
        free := Extent_tree.to_list data_trees.(i) @ !free
      done;
      pm_zero c ~off:layout.Layout.serial_off ~len:layout.Layout.serial_len;
      (match Codec.Serial.encode !free ~capacity_bytes:layout.Layout.serial_len with
      | Some b -> pm_write c ~off:layout.Layout.serial_off b
      | None -> pm_write c ~off:layout.Layout.serial_off Codec.Serial.invalid);
      let sbb = Codec.Superblock.encode { sb with Codec.Superblock.clean = true } in
      pm_write c ~off:0 sbb;
      pm_write c ~off:Layout.sb_replica_off sbb
    end
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let run ?(repair = false) dev =
  let cpu = Cpu.make ~id:0 () in
  let c =
    { dev; cpu; repair; findings = []; repairs = 0; notes = 0; fatal = false; orphans = 0;
      phase_ns = []; clear_inos = []; fresh_inos = [] }
  in
  let sb, layout = phase_time c "sb" (fun () -> phase1 c) in
  phase_time c "journal" (fun () -> phase2 c layout);
  let table = phase_time c "inodes" (fun () -> phase3 c layout) in
  let meta_tree, data_trees = phase_time c "extents" (fun () -> phase4 c layout sb table) in
  phase_time c "connectivity" (fun () -> phase5 c layout table meta_tree data_trees);
  phase_time c "rewrite" (fun () -> phase6 c layout sb table data_trees);
  let findings = List.rev c.findings in
  Stats.count "fsck.runs" 1;
  Stats.count "fsck.orphans_reattached" c.orphans;
  ({ repair; clean = findings = []; fatal = c.fatal; findings; repairs = c.repairs;
     notes = c.notes; orphans_reattached = c.orphans; phase_ns = List.rev c.phase_ns }
    : report)

let severity_tag = function Note -> "note" | Repair -> "repair" | Fatal -> "fatal"

let to_string (r : report) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "fsck %s: %s (%d findings, %d repairs%s, %d notes, %d orphans reattached)\n"
       (if r.repair then "repair" else "check")
       (if r.clean then "clean" else if r.fatal then "fatal" else "dirty")
       (List.length r.findings) r.repairs
       (if r.repair then "" else " pending")
       r.notes r.orphans_reattached);
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "P%d %s %s: %s -> %s [%s]\n" f.phase f.rule f.obj f.detail f.action
           (severity_tag f.severity)))
    r.findings;
  Buffer.contents b

let to_json (r : report) =
  Json.Obj
    [
      ("repair", Json.Bool r.repair);
      ("clean", Json.Bool r.clean);
      ("fatal", Json.Bool r.fatal);
      ("repairs", Json.Int r.repairs);
      ("notes", Json.Int r.notes);
      ("orphans_reattached", Json.Int r.orphans_reattached);
      ( "findings",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("phase", Json.Int f.phase);
                   ("rule", Json.String f.rule);
                   ("obj", Json.String f.obj);
                   ("detail", Json.String f.detail);
                   ("action", Json.String f.action);
                   ("severity", Json.String (severity_tag f.severity));
                 ])
             r.findings) );
      ("phase_ns", Json.Obj (List.map (fun (name, ns) -> (name, Json.Int ns)) r.phase_ns));
    ]
