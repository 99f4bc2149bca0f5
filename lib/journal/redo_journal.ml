open Repro_util
module Device = Repro_pmem.Device
module Site = Repro_pmem.Site
module Sched = Repro_sched.Sched
module Stats = Repro_stats.Stats

let site_header = Site.v "redo" "header"
let site_format = Site.v "redo" "format"
let site_record = Site.v "redo" "record"
let site_checkpoint = Site.v "redo" "checkpoint"
let site_commit = Site.v "redo" "commit"
let site_recovery = Site.v "redo" "recovery"

(* Sanitizer transaction ids: negative of the commit sequence, so they can
   never collide with the undo journals' positive global counter. *)
let txn_id_of_seq seq = -seq

let header_bytes = 64
let rec_header_bytes = 64
let magic = 0x4A42443252494E47L (* "JBD2RING" *)

(* Record header layout (64B):
   0  magic-lite u64 (distinguishes formatted slots)
   8  seq   u64
   16 type  u64  (1 = descriptor, 2 = commit)
   24 addr  u64
   32 len   u64
   40 csum  u32  (CRC32C over the 64B header with this field zeroed,
                  then the data payload — so a commit block is only
                  honoured, and a descriptor only replayed, when every
                  journalled byte verifies) *)
let rec_magic = 0x4A524543L (* u64 literal *)
let rec_csum_off = 40

type t = {
  dev : Device.t;
  base : int;
  size : int; (* ring bytes (excluding header) *)
  lock : Sched.mutex;
  mutable seq : int; (* last committed sequence *)
  mutable head : int; (* next free byte in ring *)
  running : (int, string) Hashtbl.t; (* addr -> new data *)
  mutable running_order : int list;
}

let record_csum header data =
  let acc = Crc32c.update Crc32c.init header ~off:0 ~len:rec_header_bytes in
  let acc =
    if String.length data = 0 then acc
    else Crc32c.update_string acc data ~off:0 ~len:(String.length data)
  in
  Crc32c.finish acc

let bytes_needed ~size = header_bytes + size

(* Race-detector annotation for the journal's shared DRAM state (running
   table, order list, seq/head cursors).  The redo journal is one shared
   instance serving every CPU, so all mutation happens under [t.lock]. *)
let note t ~write ~site =
  if Sched.monitored () then
    Sched.access ~obj:(Printf.sprintf "journal.redo[%#x]" t.base) ~write ~site

let write_header t cpu =
  Device.with_site t.dev site_header @@ fun () ->
  let buf = Bytes.make header_bytes '\000' in
  Bytes.set_int64_le buf 0 magic;
  Bytes.set_int64_le buf 8 (Int64.of_int t.seq);
  Bytes.set_int64_le buf 16 (Int64.of_int t.head);
  Device.write t.dev cpu ~off:t.base ~src:buf ~src_off:0 ~len:header_bytes;
  Device.persist t.dev cpu ~off:t.base ~len:header_bytes

let format dev cpu ~off ~size =
  if size < 4096 then invalid_arg "Redo_journal.format: ring too small";
  let t =
    {
      dev;
      base = off;
      size;
      lock = Sched.create_mutex ~name:"redo_journal:t.lock" ();
      seq = 0;
      head = 0;
      running = Hashtbl.create 64;
      running_order = [];
    }
  in
  (* The zeroed ring must be durable: recovery parses it, and a crash
     before the first commit would otherwise replay stale garbage. *)
  Device.with_site dev site_format (fun () ->
      Device.memset dev cpu ~off:(off + header_bytes) ~len:size '\000';
      Device.persist dev cpu ~off:(off + header_bytes) ~len:size);
  write_header t cpu;
  t

let attach dev ~off ~size =
  let buf = Bytes.create header_bytes in
  Device.peek dev ~off ~len:header_bytes ~dst:buf ~dst_off:0;
  if Bytes.get_int64_le buf 0 <> magic then invalid_arg "Redo_journal.attach: bad magic";
  {
    dev;
    base = off;
    size;
    lock = Sched.create_mutex ~name:"redo_journal:t.lock" ();
    seq = Int64.to_int (Bytes.get_int64_le buf 8);
    head = Int64.to_int (Bytes.get_int64_le buf 16);
    running = Hashtbl.create 64;
    running_order = [];
  }

let add t _cpu ~addr ~data =
  if String.length data = 0 then invalid_arg "Redo_journal.add: empty record";
  (* The running table is shared across CPUs; mutating it outside [t.lock]
     would race with a concurrent [commit] draining it. *)
  Sched.with_lock t.lock (fun () ->
      note t ~write:true ~site:"redo.add";
      if not (Hashtbl.mem t.running addr) then t.running_order <- addr :: t.running_order;
      Hashtbl.replace t.running addr data)

let running_records t =
  Sched.with_lock t.lock (fun () ->
      note t ~write:false ~site:"redo.running_records";
      Hashtbl.length t.running)

let record_size data_len = rec_header_bytes + Units.round_up data_len 64

let write_record t cpu ~seq ~ty ~addr ~data =
  Device.with_site t.dev site_record @@ fun () ->
  let dlen = String.length data in
  let total = record_size dlen in
  if t.head + total > t.size then begin
    t.head <- 0 (* wrap; records never straddle *);
    Stats.count "journal.redo.wraps" 1
  end;
  let off = t.base + header_bytes + t.head in
  let buf = Bytes.make rec_header_bytes '\000' in
  Bytes.set_int64_le buf 0 rec_magic;
  Bytes.set_int64_le buf 8 (Int64.of_int seq);
  Bytes.set_int64_le buf 16 (Int64.of_int ty);
  Bytes.set_int64_le buf 24 (Int64.of_int addr);
  Bytes.set_int64_le buf 32 (Int64.of_int dlen);
  Crc32c.put buf ~csum_off:rec_csum_off (record_csum buf data);
  Device.write t.dev cpu ~off ~src:buf ~src_off:0 ~len:rec_header_bytes;
  if dlen > 0 then
    Device.write_string t.dev cpu ~off:(off + rec_header_bytes) ~src:data ~src_off:0 ~len:dlen;
  Device.flush t.dev cpu ~off ~len:total;
  t.head <- t.head + total

let commit t cpu =
  Sched.with_lock t.lock (fun () ->
      note t ~write:true ~site:"redo.commit";
      if Hashtbl.length t.running > 0 then begin
        let seq = t.seq + 1 in
        let records =
          List.rev_map (fun addr -> (addr, Hashtbl.find t.running addr)) t.running_order
        in
        let txn = txn_id_of_seq seq in
        Device.annotate t.dev (Txn_begin { txn });
        (* Journal all records, then the commit block; one fence covers the
           record flushes, a second orders the commit block after them. *)
        Device.with_site t.dev site_commit (fun () ->
            List.iter (fun (addr, data) -> write_record t cpu ~seq ~ty:1 ~addr ~data) records;
            Device.fence t.dev cpu;
            write_record t cpu ~seq ~ty:2 ~addr:0 ~data:"";
            Device.fence t.dev cpu);
        (* The commit block is durable: replay can reconstruct every record,
           so in-place checkpointing is crash-safe from here. *)
        List.iter
          (fun (addr, data) ->
            Device.annotate t.dev (Covered { txn; addr; len = String.length data }))
          records;
        (* Checkpoint in place. *)
        Device.with_site t.dev site_checkpoint (fun () ->
            List.iter
              (fun (addr, data) ->
                Device.write_string t.dev cpu ~off:addr ~src:data ~src_off:0
                  ~len:(String.length data);
                Device.flush t.dev cpu ~off:addr ~len:(String.length data))
              records;
            Device.fence t.dev cpu);
        t.seq <- seq;
        (* The header advance logically truncates the journal; every
           checkpointed line must already be durable. *)
        Device.with_site t.dev site_header (fun () ->
            Device.annotate t.dev (Txn_commit { txn }));
        write_header t cpu;
        if Stats.enabled () then begin
          Stats.counter_add "journal.redo.commits" 1;
          Stats.counter_add "journal.redo.records" (List.length records);
          Stats.gauge_set "journal.redo.head_bytes" t.head
        end;
        Hashtbl.reset t.running;
        t.running_order <- []
      end)

let read_record t cpu ~pos ~expected_seq =
  if pos + rec_header_bytes > t.size then None
  else
    let off = t.base + header_bytes + pos in
    let buf = Bytes.create rec_header_bytes in
    Device.read t.dev cpu ~off ~len:rec_header_bytes ~dst:buf ~dst_off:0;
    if Bytes.get_int64_le buf 0 <> rec_magic then None
    else
      let seq = Int64.to_int (Bytes.get_int64_le buf 8) in
      let ty = Int64.to_int (Bytes.get_int64_le buf 16) in
      let addr = Int64.to_int (Bytes.get_int64_le buf 24) in
      let dlen = Int64.to_int (Bytes.get_int64_le buf 32) in
      if seq <> expected_seq || (ty <> 1 && ty <> 2) then None
      else if dlen < 0 || pos + record_size dlen > t.size then None
      else
        let data =
          if dlen > 0 then Device.read_string t.dev cpu ~off:(off + rec_header_bytes) ~len:dlen
          else ""
        in
        let stored = Crc32c.get buf ~csum_off:rec_csum_off in
        Bytes.set_int32_le buf rec_csum_off 0l;
        (* Magic and sequence matched, so this record claims to belong to
           the transaction being replayed: a CRC mismatch is detected
           corruption, and refusing it truncates replay at this point. *)
        if record_csum buf data <> stored then None
        else Some (ty, addr, data, record_size dlen)

let recover t cpu =
  note t ~write:true ~site:"redo.recover";
  Device.with_site t.dev site_recovery @@ fun () ->
  (* Scan forward from the persisted head for transactions that were
     journalled but whose header update (or checkpoint) was lost. *)
  let replayed = ref 0 in
  let pos = ref t.head and expected = ref (t.seq + 1) in
  let continue_scan = ref true in
  while !continue_scan do
    (* Collect one transaction. *)
    let records = ref [] in
    let committed = ref false in
    let cursor = ref !pos in
    let in_txn = ref true in
    while !in_txn do
      (* Records never straddle the ring end; the writer may have wrapped
         to 0 even when a bare header would still have fit, so retry at 0
         on a parse failure. *)
      let try_pos = if !cursor + rec_header_bytes > t.size then 0 else !cursor in
      let parsed =
        match read_record t cpu ~pos:try_pos ~expected_seq:!expected with
        | Some r -> Some (try_pos, r)
        | None when try_pos <> 0 -> (
            match read_record t cpu ~pos:0 ~expected_seq:!expected with
            | Some r -> Some (0, r)
            | None -> None)
        | None -> None
      in
      match parsed with
      | None -> in_txn := false
      | Some (at, (ty, addr, data, sz)) ->
          cursor := at + sz;
          if ty = 2 then begin
            committed := true;
            in_txn := false
          end
          else records := (addr, data) :: !records
    done;
    if !committed then begin
      List.iter
        (fun (addr, data) ->
          Device.write_string t.dev cpu ~off:addr ~src:data ~src_off:0 ~len:(String.length data);
          Device.persist t.dev cpu ~off:addr ~len:(String.length data))
        (List.rev !records);
      incr replayed;
      t.seq <- !expected;
      t.head <- !cursor;
      pos := !cursor;
      incr expected
    end
    else continue_scan := false
  done;
  if !replayed > 0 then write_header t cpu;
  if !replayed > 0 then Stats.count "journal.redo.replayed_txns" !replayed;
  !replayed
