module Device = Repro_pmem.Device
module Site = Repro_pmem.Site
module Sched = Repro_sched.Sched
module Stats = Repro_stats.Stats

(* Registry metrics (global, gated on {!Stats.enabled}): commit/abort/wrap
   counters plus a ring-occupancy gauge, so bench artifacts expose journal
   traffic and pressure without a device event hook. *)

let site_header = Site.v "journal" "header"
let site_format = Site.v "journal" "format"
let site_entry = Site.v "journal" "entry"
let site_undo_copy = Site.v "journal" "undo-copy"
let site_commit = Site.v "journal" "commit"
let site_abort = Site.v "journal" "abort"
let site_recovery = Site.v "journal" "recovery"
let site_reclaim = Site.v "journal" "reclaim"

module Txn_counter = struct
  (* One counter is shared by every per-CPU journal (§3.6), so unlike the
     journals themselves it is cross-CPU mutable state and takes a lock.
     Outside the scheduler the lock degrades to a no-op, so single-
     threaded callers are unaffected. *)
  type t = { mutable next : int; mu : Sched.mutex }

  let create () = { next = 1; mu = Sched.create_mutex ~name:"undo_journal:t.mu" () }

  let note ~write ~site =
    if Sched.monitored () then Sched.access ~obj:"journal.txn_counter" ~write ~site

  let take t =
    Sched.with_lock t.mu (fun () ->
        note ~write:true ~site:"txn_counter.take";
        let id = t.next in
        t.next <- t.next + 1;
        id)

  let peek t =
    Sched.with_lock t.mu (fun () ->
        note ~write:false ~site:"txn_counter.peek";
        t.next)
end

module Crc = Repro_util.Crc32c

let entry_bytes = 64
let header_bytes = 64
let inline_max = 24
let magic = 0x57494E454A524E4CL (* "WINEJRNL" *)

(* Entry slot layout (64B):
   0  txn_id        u64
   8  wrap          u32  | type u8 | inline_len u8 | pad u16   (packed u64)
   16 addr          u64
   24 len           u64
   32 copy_off      u32  (copy-area device offsets are far below 4GB)
   36 csum          u32  (CRC32C over the 64B entry, csum field zeroed)
   40 inline data   24B

   Recovery honours an entry — COMMIT records included — only when the
   checksum verifies, so a torn or bit-rotted commit record demotes its
   transaction to uncommitted (rolled back) instead of being trusted. *)
let entry_csum_off = 36

type entry_type = Start | Commit | Data_inline | Data_extent

let type_code = function Start -> 1 | Commit -> 2 | Data_inline -> 3 | Data_extent -> 4

let type_of_code = function
  | 1 -> Some Start
  | 2 -> Some Commit
  | 3 -> Some Data_inline
  | 4 -> Some Data_extent
  | _ -> None

type t = {
  dev : Device.t;
  counter : Txn_counter.t;
  base : int; (* header offset *)
  slots : int; (* entry capacity *)
  copy_bytes : int;
  mutable head : int; (* next free slot *)
  mutable wrap : int;
  mutable open_txn : bool;
  mutable unreclaimed : int; (* committed txns since the last header persist *)
  mutable slots_since_reclaim : int;
  mutable csum_failures : int; (* entries rejected by CRC during scans *)
}

type txn = {
  id : int;
  reserve : int;
  mutable used : int;
  mutable copy_used : int;
  mutable undo : (int * string) list; (* addr, old bytes — for abort *)
}

(* Race-detector annotation for the journal's DRAM cursor state (head,
   wrap, open_txn).  A journal belongs to one CPU in WineFS, so these
   must stay thread-exclusive — the detector flags any cross-CPU use. *)
let note t ~write ~site =
  if Sched.monitored () then
    Sched.access ~obj:(Printf.sprintf "journal.undo[%#x]" t.base) ~write ~site

let bytes_needed ~entries ~copy_bytes = header_bytes + (entries * entry_bytes) + copy_bytes

let copy_capacity t = t.copy_bytes

let slot_off t i = t.base + header_bytes + (i * entry_bytes)
let copy_off t = t.base + header_bytes + (t.slots * entry_bytes)

let write_header t cpu =
  Device.with_site t.dev site_header @@ fun () ->
  let buf = Bytes.make header_bytes '\000' in
  Bytes.set_int64_le buf 0 magic;
  Bytes.set_int64_le buf 8 (Int64.of_int t.wrap);
  Bytes.set_int64_le buf 16 (Int64.of_int t.head);
  Device.write t.dev cpu ~off:t.base ~src:buf ~src_off:0 ~len:header_bytes;
  Device.persist t.dev cpu ~off:t.base ~len:header_bytes

let format dev cpu counter ~off ~entries ~copy_bytes =
  if entries <= 2 then invalid_arg "Undo_journal.format: too few entries";
  let t =
    { dev; counter; base = off; slots = entries; copy_bytes; head = 0; wrap = 1;
      open_txn = false; unreclaimed = 0; slots_since_reclaim = 0; csum_failures = 0 }
  in
  (* Zero the slot area so stale bytes never parse as valid entries; the
     zeroes must be durable or a crash before first use leaves garbage
     that recovery would parse. *)
  Device.with_site dev site_format (fun () ->
      Device.memset dev cpu ~off:(slot_off t 0) ~len:(entries * entry_bytes) '\000';
      Device.persist dev cpu ~off:(slot_off t 0) ~len:(entries * entry_bytes));
  write_header t cpu;
  t

let attach dev counter ~off ~entries ~copy_bytes =
  let t =
    { dev; counter; base = off; slots = entries; copy_bytes; head = 0; wrap = 1;
      open_txn = false; unreclaimed = 0; slots_since_reclaim = 0; csum_failures = 0 }
  in
  let buf = Bytes.create header_bytes in
  Device.peek dev ~off ~len:header_bytes ~dst:buf ~dst_off:0;
  if Bytes.get_int64_le buf 0 <> magic then invalid_arg "Undo_journal.attach: bad magic";
  t.wrap <- Int64.to_int (Bytes.get_int64_le buf 8);
  t.head <- Int64.to_int (Bytes.get_int64_le buf 16);
  t

let write_entry t cpu ~ty ~txn_id ~addr ~len ~copy ~inline =
  Device.with_site t.dev site_entry @@ fun () ->
  note t ~write:true ~site:"undo.write_entry";
  let i = t.head in
  let buf = Bytes.make entry_bytes '\000' in
  Bytes.set_int64_le buf 0 (Int64.of_int txn_id);
  let inline_len = String.length inline in
  let packed =
    Int64.logor
      (Int64.of_int (t.wrap land 0xFFFFFFFF))
      (Int64.logor
         (Int64.shift_left (Int64.of_int (type_code ty)) 32)
         (Int64.shift_left (Int64.of_int inline_len) 40))
  in
  Bytes.set_int64_le buf 8 packed;
  Bytes.set_int64_le buf 16 (Int64.of_int addr);
  Bytes.set_int64_le buf 24 (Int64.of_int len);
  Bytes.set_int32_le buf 32 (Int32.of_int (copy land 0xFFFFFFFF));
  Bytes.blit_string inline 0 buf 40 inline_len;
  Crc.set_zeroed buf ~off:0 ~len:entry_bytes ~csum_off:entry_csum_off;
  Device.write t.dev cpu ~off:(slot_off t i) ~src:buf ~src_off:0 ~len:entry_bytes;
  Device.persist t.dev cpu ~off:(slot_off t i) ~len:entry_bytes;
  t.head <- t.head + 1;
  t.slots_since_reclaim <- t.slots_since_reclaim + 1;
  if Stats.enabled () then begin
    Stats.counter_add "journal.undo.entries" 1;
    Stats.gauge_set "journal.undo.occupancy_slots" t.slots_since_reclaim
  end;
  if t.head >= t.slots then begin
    t.head <- 0;
    t.wrap <- t.wrap + 1;
    Stats.count "journal.undo.wraps" 1
  end

(* Space reclamation runs in the background in WineFS (§5.7): commits
   leave the persisted tail behind and a periodic pass advances it.
   Recovery copes by scanning past committed transactions. *)
let reclaim_threshold = 24

let reclaim t cpu =
  note t ~write:true ~site:"undo.reclaim";
  t.open_txn <- false;
  write_header t cpu;
  t.unreclaimed <- 0;
  t.slots_since_reclaim <- 0;
  if Stats.enabled () then begin
    Stats.counter_add "journal.undo.reclaims" 1;
    Stats.gauge_set "journal.undo.occupancy_slots" 0
  end

let invalidate_head_slot_fwd t cpu =
  Device.with_site t.dev site_reclaim (fun () ->
      Device.write t.dev cpu ~off:(slot_off t t.head) ~src:(Bytes.make entry_bytes '\000')
        ~src_off:0 ~len:entry_bytes;
      Device.persist t.dev cpu ~off:(slot_off t t.head) ~len:entry_bytes)

let begin_txn t cpu ~reserve =
  note t ~write:true ~site:"undo.begin_txn";
  if t.open_txn then invalid_arg "Undo_journal: transaction already open";
  if reserve + 2 > t.slots then invalid_arg "Undo_journal: reservation exceeds capacity";
  (* The ring must never lap its own unreclaimed entries: reclaim now if
     this reservation could reach them. *)
  if t.slots_since_reclaim + reserve + 2 >= t.slots then reclaim t cpu;
  t.open_txn <- true;
  let id = Txn_counter.take t.counter in
  write_entry t cpu ~ty:Start ~txn_id:id ~addr:0 ~len:0 ~copy:0 ~inline:"";
  Device.annotate t.dev (Txn_begin { txn = id });
  { id; reserve; used = 0; copy_used = 0; undo = [] }

let log_range t cpu txn ~addr ~len =
  if not t.open_txn then invalid_arg "Undo_journal.log_range: no open transaction";
  if txn.used >= txn.reserve then invalid_arg "Undo_journal: reservation exhausted";
  if len <= 0 then invalid_arg "Undo_journal.log_range: non-positive length";
  let old = Device.read_string t.dev cpu ~off:addr ~len in
  txn.undo <- (addr, old) :: txn.undo;
  (if len <= inline_max then
     write_entry t cpu ~ty:Data_inline ~txn_id:txn.id ~addr ~len ~copy:0 ~inline:old
   else begin
     if txn.copy_used + len > t.copy_bytes then
       invalid_arg "Undo_journal: copy area exhausted (split the transaction)";
     let dst = copy_off t + txn.copy_used in
     (* Bulk undo data streams with non-temporal stores + fence. *)
     Device.with_site t.dev site_undo_copy (fun () ->
         Device.write_string_nt t.dev cpu ~off:dst ~src:old ~src_off:0 ~len;
         Device.fence t.dev cpu);
     write_entry t cpu ~ty:Data_extent ~txn_id:txn.id ~addr ~len ~copy:dst ~inline:"";
     txn.copy_used <- txn.copy_used + len
   end);
  (* write_entry persisted the undo record: in-place stores to the range
     are crash-safe from here on. *)
  Device.annotate t.dev (Covered { txn = txn.id; addr; len });
  txn.used <- txn.used + 1

let commit t cpu txn =
  note t ~write:true ~site:"undo.commit";
  if not t.open_txn then invalid_arg "Undo_journal.commit: no open transaction";
  (* All flushed in-place updates must be durable strictly before the
     COMMIT entry is: fence first, then persist the COMMIT. *)
  Device.with_site t.dev site_commit (fun () ->
      Device.fence t.dev cpu;
      Device.annotate t.dev (Txn_commit { txn = txn.id }));
  write_entry t cpu ~ty:Commit ~txn_id:txn.id ~addr:0 ~len:0 ~copy:0 ~inline:"";
  Stats.count "journal.undo.commits" 1;
  t.open_txn <- false;
  t.unreclaimed <- t.unreclaimed + 1;
  if t.unreclaimed >= reclaim_threshold then begin
    t.open_txn <- true (* write_header path resets it *);
    reclaim t cpu
  end

let abort t cpu txn =
  note t ~write:true ~site:"undo.abort";
  if not t.open_txn then invalid_arg "Undo_journal.abort: no open transaction";
  Device.with_site t.dev site_abort (fun () ->
      List.iter
        (fun (addr, old) ->
          Device.write_string t.dev cpu ~off:addr ~src:old ~src_off:0 ~len:(String.length old);
          Device.persist t.dev cpu ~off:addr ~len:(String.length old))
        txn.undo);
  (* Aborts reclaim eagerly: the ring must not rescan the dead entries. *)
  invalidate_head_slot_fwd t cpu;
  reclaim t cpu;
  Stats.count "journal.undo.aborts" 1;
  Device.annotate t.dev (Txn_abort { txn = txn.id })

type pending = { txn_id : int; records : (int * string) list }

type parsed = {
  p_txn : int;
  p_type : entry_type;
  p_addr : int;
  p_len : int;
  p_copy : int;
  p_inline : string;
}

let parse_slot t cpu i ~expected_wrap =
  let buf = Bytes.create entry_bytes in
  Device.read t.dev cpu ~off:(slot_off t i) ~len:entry_bytes ~dst:buf ~dst_off:0;
  let packed = Bytes.get_int64_le buf 8 in
  let wrap = Int64.to_int (Int64.logand packed 0xFFFFFFFFL) in
  let ty = Int64.to_int (Int64.logand (Int64.shift_right_logical packed 32) 0xFFL) in
  let inline_len = Int64.to_int (Int64.logand (Int64.shift_right_logical packed 40) 0xFFL) in
  if wrap <> expected_wrap then None
  else if not (Crc.verify_zeroed buf ~off:0 ~len:entry_bytes ~csum_off:entry_csum_off)
  then begin
    (* Wrap matched, so this slot claims to be live — a failing CRC means
       a torn or corrupted entry.  Refusing it here is what demotes a torn
       COMMIT to "uncommitted": the scan stops and the txn rolls back. *)
    t.csum_failures <- t.csum_failures + 1;
    None
  end
  else
    match type_of_code ty with
    | None -> None
    | Some p_type ->
        if inline_len > inline_max then None
        else
          Some
            {
              p_txn = Int64.to_int (Bytes.get_int64_le buf 0);
              p_type;
              p_addr = Int64.to_int (Bytes.get_int64_le buf 16);
              p_len = Int64.to_int (Bytes.get_int64_le buf 24);
              p_copy = Int32.to_int (Bytes.get_int32_le buf 32) land 0xFFFFFFFF;
              p_inline = Bytes.sub_string buf 40 inline_len;
            }

let scan_pending t cpu =
  note t ~write:false ~site:"undo.scan_pending";
  Device.with_site t.dev site_recovery @@ fun () ->
  let buf = Bytes.create header_bytes in
  Device.read t.dev cpu ~off:t.base ~len:header_bytes ~dst:buf ~dst_off:0;
  let wrap = Int64.to_int (Bytes.get_int64_le buf 8) in
  let tail = Int64.to_int (Bytes.get_int64_le buf 16) in
  let entries = ref [] in
  let committed = ref false in
  let txn_id = ref (-1) in
  let i = ref tail and expected = ref wrap and scanned = ref 0 in
  let stop = ref false in
  while (not !stop) && !scanned < t.slots do
    (match parse_slot t cpu !i ~expected_wrap:!expected with
    | None -> stop := true
    | Some p ->
        (* All entries of the live transaction share the txn id of its
           START; a mismatch means stale bytes from an earlier lap. *)
        if !txn_id = -1 && p.p_type <> Start then stop := true
        else if !txn_id <> -1 && p.p_txn <> !txn_id then stop := true
        else begin
          match p.p_type with
          | Start -> txn_id := p.p_txn
          | Commit ->
              (* Committed-but-unreclaimed transaction: skip it and keep
                 scanning for a trailing unfinished one (§5.7 background
                 reclamation). *)
              committed := true;
              txn_id := -1;
              entries := []
          | Data_inline -> entries := (p.p_addr, p.p_inline) :: !entries
          | Data_extent ->
              let old = Device.read_string t.dev cpu ~off:p.p_copy ~len:p.p_len in
              entries := (p.p_addr, old) :: !entries
        end);
    incr scanned;
    incr i;
    if !i >= t.slots then begin
      i := 0;
      incr expected
    end
  done;
  ignore !committed;
  if !txn_id = -1 then None
  else
    (* records are newest-first; roll back in that order. *)
    Some { txn_id = !txn_id; records = !entries }

(* Invalidate the slot at the reclaim point so stale entries of the
   rolled-back transaction can never be rescanned as pending. *)
let invalidate_head_slot t cpu =
  Device.with_site t.dev site_recovery (fun () ->
      Device.write t.dev cpu ~off:(slot_off t t.head) ~src:(Bytes.make entry_bytes '\000')
        ~src_off:0 ~len:entry_bytes;
      Device.persist t.dev cpu ~off:(slot_off t t.head) ~len:entry_bytes)

(* Recovery rewinds the ring without scrubbing it, so the wrap epoch
   must advance past every entry already on PM: the persisted tail may
   trail the true crash position, and once fresh entries pave over the
   early slots a later scan would otherwise walk off their end straight
   into stale same-wrap entries — and mistake a stale START for a
   pending transaction. *)
let bump_epoch t =
  t.wrap <- t.wrap + 1

let rollback_pending t cpu (p : pending) =
  note t ~write:true ~site:"undo.rollback_pending";
  Device.with_site t.dev site_recovery (fun () ->
      List.iter
        (fun (addr, old) ->
          Device.write_string t.dev cpu ~off:addr ~src:old ~src_off:0 ~len:(String.length old);
          Device.persist t.dev cpu ~off:addr ~len:(String.length old))
        p.records);
  t.open_txn <- false;
  invalidate_head_slot t cpu;
  bump_epoch t;
  write_header t cpu

let reset t cpu =
  note t ~write:true ~site:"undo.reset";
  t.open_txn <- false;
  invalidate_head_slot t cpu;
  bump_epoch t;
  write_header t cpu

type entry = { e_slot : int; e_txn : int; e_kind : string; e_addr : int; e_len : int }

(* Side-effect-free record iteration (fsck phase 2): walk the same live
   window scan_pending honours — from the persisted tail, stopping at the
   first stale/torn slot — handing every verified entry to [f] without
   reading copy-area payloads or touching any PM state. *)
let iter_live t cpu f =
  note t ~write:false ~site:"undo.iter_live";
  Device.with_site t.dev site_recovery @@ fun () ->
  let buf = Bytes.create header_bytes in
  Device.read t.dev cpu ~off:t.base ~len:header_bytes ~dst:buf ~dst_off:0;
  let wrap = Int64.to_int (Bytes.get_int64_le buf 8) in
  let tail = Int64.to_int (Bytes.get_int64_le buf 16) in
  let i = ref tail and expected = ref wrap and scanned = ref 0 in
  let stop = ref false in
  while (not !stop) && !scanned < t.slots do
    (match parse_slot t cpu !i ~expected_wrap:!expected with
    | None -> stop := true
    | Some p ->
        f
          {
            e_slot = !i;
            e_txn = p.p_txn;
            e_kind =
              (match p.p_type with
              | Start -> "START"
              | Commit -> "COMMIT"
              | Data_inline -> "UNDO-INLINE"
              | Data_extent -> "UNDO-EXTENT");
            e_addr = p.p_addr;
            e_len = (match p.p_type with Data_inline -> String.length p.p_inline | _ -> p.p_len);
          });
    incr scanned;
    incr i;
    if !i >= t.slots then begin
      i := 0;
      incr expected
    end
  done

module Recovery = struct
  type nonrec pending = pending = { txn_id : int; records : (int * string) list }

  type nonrec entry = entry = {
    e_slot : int;
    e_txn : int;
    e_kind : string;
    e_addr : int;
    e_len : int;
  }

  let scan_pending = scan_pending
  let rollback_pending = rollback_pending
  let reset = reset
  let csum_failures t = t.csum_failures
  let iter_live = iter_live
end
