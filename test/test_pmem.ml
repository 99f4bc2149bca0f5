(* PM device: data access, cost accounting, persistence/crash semantics. *)

open Repro_util
module Device = Repro_pmem.Device
module Site = Repro_pmem.Site
module Stats = Repro_stats.Stats

let cpu () = Cpu.make ~id:0 ()

let test_rw () =
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  Device.write_string d c ~off:100 ~src:"hello" ~src_off:0 ~len:5;
  Alcotest.(check string) "read back" "hello" (Device.read_string d c ~off:100 ~len:5);
  Device.write_u64 d c ~off:512 42L;
  Alcotest.(check int64) "u64" 42L (Device.read_u64 d c ~off:512);
  Device.memset d c ~off:0 ~len:64 'z';
  Alcotest.(check string) "memset" "zzzz" (Device.read_string d c ~off:60 ~len:4);
  Device.copy_within d c ~src:100 ~dst:1000 ~len:5;
  Alcotest.(check string) "copy_within" "hello" (Device.read_string d c ~off:1000 ~len:5)

let test_bounds () =
  let d = Device.create ~cost:Device.Cost.free ~size:4096 () in
  let c = cpu () in
  Alcotest.(check bool) "out of bounds rejected" true
    (match Device.write_string d c ~off:4090 ~src:"toolong" ~src_off:0 ~len:7 with
    | () -> false
    | exception Invalid_argument _ -> true);
  (* Ranges whose end overflows, and caller buffers too short for the
     move, are refused before any charge. *)
  let d = Device.create ~size:4096 () in
  let refused ?(error = "range") name f =
    let t0 = Cpu.now c in
    (match f () with
    | () -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (name ^ ": " ^ error ^ " error, not " ^ msg)
          true
          (String.starts_with ~prefix:("Device: " ^ error) msg));
    Alcotest.(check int) (name ^ ": clock unchanged") t0 (Cpu.now c)
  in
  refused "read_string off 1 len max_int" (fun () ->
      ignore (Device.read_string d c ~off:1 ~len:max_int));
  refused "copy_within to max_int - 2" (fun () ->
      Device.copy_within d c ~src:0 ~dst:(max_int - 2) ~len:8);
  refused ~error:"buffer" "read into short dst" (fun () ->
      Device.read d c ~off:0 ~len:4096 ~dst:(Bytes.create 10) ~dst_off:0);
  refused ~error:"buffer" "read at negative dst_off" (fun () ->
      Device.read d c ~off:0 ~len:8 ~dst:(Bytes.create 64) ~dst_off:(-1));
  refused ~error:"buffer" "peek into short dst" (fun () ->
      Device.peek d ~off:0 ~len:64 ~dst:(Bytes.create 64) ~dst_off:1);
  refused ~error:"buffer" "write from short src" (fun () ->
      Device.write d c ~off:0 ~src:(Bytes.create 10) ~src_off:0 ~len:4096);
  refused ~error:"buffer" "write_nt at src_off past the end" (fun () ->
      Device.write_nt d c ~off:0 ~src:(Bytes.create 8) ~src_off:max_int ~len:8)

let test_cost_charged () =
  let d = Device.create ~size:(1 * Units.mib) () in
  let c = cpu () in
  let t0 = Cpu.now c in
  Device.write_string d c ~off:0 ~src:(String.make 4096 'a') ~src_off:0 ~len:4096;
  let t1 = Cpu.now c in
  Alcotest.(check bool) "write charges time" true (t1 > t0);
  ignore (Device.read_string d c ~off:0 ~len:4096);
  Alcotest.(check bool) "read charges time" true (Cpu.now c > t1)

let test_crash_unflushed_lost () =
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  Device.write_string d c ~off:0 ~src:"durable" ~src_off:0 ~len:7;
  Device.persist d c ~off:0 ~len:7;
  Device.set_tracking d true;
  Device.write_string d c ~off:1024 ~src:"volatile" ~src_off:0 ~len:8;
  (* No flush/fence: in the none-persisted crash image the write is gone. *)
  let img = Device.crash_image d ~persisted:(fun _ -> false) in
  Alcotest.(check string) "durable survives" "durable" (Device.read_string img c ~off:0 ~len:7);
  Alcotest.(check string) "unflushed lost" (String.make 8 '\000')
    (Device.read_string img c ~off:1024 ~len:8);
  (* All-persisted image keeps it. *)
  let img2 = Device.crash_image d ~persisted:(fun _ -> true) in
  Alcotest.(check string) "kept when persisted" "volatile"
    (Device.read_string img2 c ~off:1024 ~len:8)

let test_fence_makes_durable () =
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  Device.set_tracking d true;
  Device.write_string d c ~off:0 ~src:"flushed" ~src_off:0 ~len:7;
  Device.flush d c ~off:0 ~len:7;
  Device.fence d c;
  Alcotest.(check (list int)) "nothing pending after flush+fence" [] (Device.pending_lines d);
  let img = Device.crash_image d ~persisted:(fun _ -> false) in
  Alcotest.(check string) "flushed+fenced survives any crash" "flushed"
    (Device.read_string img c ~off:0 ~len:7)

let test_nt_stores () =
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  Device.set_tracking d true;
  Device.write_string_nt d c ~off:0 ~src:"ntdata" ~src_off:0 ~len:6;
  (* NT stores become durable at the fence without explicit flush. *)
  Device.fence d c;
  let img = Device.crash_image d ~persisted:(fun _ -> false) in
  Alcotest.(check string) "nt store durable after fence" "ntdata"
    (Device.read_string img c ~off:0 ~len:6)

let test_partial_crash_subsets () =
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  Device.set_tracking d true;
  (* Two stores in different cache lines. *)
  Device.write_string d c ~off:0 ~src:"AAAA" ~src_off:0 ~len:4;
  Device.write_string d c ~off:256 ~src:"BBBB" ~src_off:0 ~len:4;
  let lines = Device.pending_lines d in
  Alcotest.(check int) "two pending lines" 2 (List.length lines);
  let a_line = 0 and b_line = 4 in
  let img = Device.crash_image d ~persisted:(fun l -> l = a_line) in
  Alcotest.(check string) "A survived" "AAAA" (Device.read_string img c ~off:0 ~len:4);
  Alcotest.(check string) "B lost" "\000\000\000\000" (Device.read_string img c ~off:256 ~len:4);
  ignore b_line

(* crash_at: the in-flight lines at the target fence (before it commits
   them), None when the thunk finishes first, no hook left behind. *)
let test_crash_at () =
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  let store off =
    Device.write_string d c ~off ~src:"data" ~src_off:0 ~len:4;
    Device.persist d c ~off ~len:4
  in
  let body () = store 0; store 256 in
  let seen = ref [] in
  Alcotest.(check (option (list int))) "crash at fence 2: line 4 in flight" (Some [ 4 ])
    (Device.crash_at ~on_crash:(fun l -> seen := l) d ~fence:2 body);
  Alcotest.(check (list int)) "on_crash saw the same lines" [ 4 ] !seen;
  Alcotest.(check (option (list int))) "done before fence 3" None (Device.crash_at d ~fence:3 body);
  Device.fence d c (* would raise if a hook were left installed *);
  Alcotest.(check int) "fence sequence restarted at the call" 3 (Device.fence_seq d)

let test_numa_cost () =
  let d = Device.create ~numa_nodes:2 ~size:(4 * Units.mib) () in
  let local = Cpu.make ~id:0 ~node:0 () in
  let remote = Cpu.make ~id:1 ~node:1 () in
  (* Writing to node-0-owned space costs more from node 1. *)
  let t0 = Cpu.now local in
  Device.write_string d local ~off:0 ~src:(String.make 4096 'l') ~src_off:0 ~len:4096;
  let local_cost = Cpu.now local - t0 in
  let t0 = Cpu.now remote in
  Device.write_string d remote ~off:0 ~src:(String.make 4096 'r') ~src_off:0 ~len:4096;
  let remote_cost = Cpu.now remote - t0 in
  Alcotest.(check bool) "remote write dearer" true (remote_cost > local_cost);
  Alcotest.(check int) "node of offset" 1 (Device.node_of_offset d (3 * Units.mib))

let test_save_load () =
  let path = Filename.temp_file "winefs" ".pm" in
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  Device.write_string d c ~off:4000 ~src:"persist me" ~src_off:0 ~len:10;
  Device.save_file d path;
  let d2 = Device.load_file path in
  Alcotest.(check string) "image round trip" "persist me"
    (Device.read_string d2 c ~off:4000 ~len:10);
  Sys.remove path

let test_multi_hook () =
  (* Several observers on one device: all must see every event, in
     installation order; removing one leaves the others untouched. *)
  let d = Device.create ~cost:Device.Cost.free ~size:4096 () in
  let c = cpu () in
  let a = ref 0 and b = ref 0 and order = ref [] in
  let ha = Device.add_event_hook d (fun _ _ _ -> incr a; order := `A :: !order) in
  let hb = Device.add_event_hook d (fun _ _ _ -> incr b; order := `B :: !order) in
  Device.write_u64 d c ~off:0 7L;
  Device.persist d c ~off:0 ~len:8;
  Alcotest.(check int) "both hooks saw every event" !a !b;
  Alcotest.(check bool) "events flowed" true (!a = 3) (* store, flush, fence *);
  (match !order with
  | `B :: `A :: _ -> ()
  | _ -> Alcotest.fail "hooks must run in installation order");
  Device.remove_event_hook d ha;
  Device.write_u64 d c ~off:64 8L;
  Alcotest.(check int) "removed hook silent" 3 !a;
  Alcotest.(check int) "remaining hook still fires" 4 !b;
  Device.remove_event_hook d ha (* unknown/stale ids are ignored *);
  Device.remove_event_hook d hb;
  Device.write_u64 d c ~off:128 9L;
  Alcotest.(check int) "all hooks removed" 4 !b

let test_hook_removal_during_dispatch () =
  (* Regression: dispatch iterates a snapshot of the hook list, so a hook
     that removes observers mid-event — itself or a sibling — must not
     cause any hook installed at emit time to be skipped or run twice on
     that event. *)
  let d = Device.create ~cost:Device.Cost.free ~size:4096 () in
  let c = cpu () in
  let a = ref 0 and b = ref 0 and z = ref 0 in
  let ids = ref [] in
  let ha =
    Device.add_event_hook d (fun _ _ _ ->
        incr a;
        (* Remove every installed hook, including this one, mid-dispatch. *)
        List.iter (Device.remove_event_hook d) !ids)
  in
  let hb = Device.add_event_hook d (fun _ _ _ -> incr b) in
  let hz = Device.add_event_hook d (fun _ _ _ -> incr z) in
  ids := [ ha; hb; hz ];
  Device.write_u64 d c ~off:0 1L;
  Alcotest.(check int) "self-removing hook fired once" 1 !a;
  Alcotest.(check int) "sibling after remover still fired" 1 !b;
  Alcotest.(check int) "last sibling still fired" 1 !z;
  Device.write_u64 d c ~off:64 2L;
  Alcotest.(check (list int)) "all hooks gone on the next event" [ 1; 1; 1 ] [ !a; !b; !z ]

let test_torn_word_crash_subsets () =
  (* Torn-word x crash_image composition: with [n] pending lines the
     exhaustive subset enumeration yields exactly [2^n] images, and every
     image is exactly predicted by the store log — persisted lines show
     their new bytes, dropped lines their pre-store bytes, and the
     registered torn word shows its pre-store bytes in {e every} image
     (the tear fires whether or not the rest of its line persisted). *)
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  let lines = [| 0; 1; 2 |] in
  let old_of l = String.make 64 (Char.chr (Char.code 'a' + l)) in
  let new_of l = String.make 64 (Char.chr (Char.code 'A' + l)) in
  Array.iter
    (fun l ->
      Device.write_string d c ~off:(l * 64) ~src:(old_of l) ~src_off:0 ~len:64;
      Device.persist d c ~off:(l * 64) ~len:64)
    lines;
  Device.set_tracking d true;
  Array.iter
    (fun l -> Device.write_string d c ~off:(l * 64) ~src:(new_of l) ~src_off:0 ~len:64)
    lines;
  Alcotest.(check int) "three pending lines" 3 (List.length (Device.pending_lines d));
  (* Tear the second 8-byte word of line 1. *)
  let torn_off = 64 + 8 in
  Device.inject d (Device.Torn_word { off = torn_off });
  let n = Array.length lines in
  let images = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let persisted l = mask land (1 lsl l) <> 0 in
    let img = Device.crash_image d ~persisted in
    incr images;
    Array.iter
      (fun l ->
        let got = Device.read_string img c ~off:(l * 64) ~len:64 in
        let expect =
          if not (persisted l) then old_of l
          else if l = 1 then
            (* Persisted line with the tear: new bytes except the torn
               word, which reverted to its pre-store contents. *)
            String.concat "" [ String.make 8 'B'; String.make 8 'b'; String.make 48 'B' ]
          else new_of l
        in
        Alcotest.(check string)
          (Printf.sprintf "mask %d line %d predicted by store log" mask l)
          expect got)
      lines
  done;
  Alcotest.(check int) "enumeration terminates at 2^n images" 8 !images;
  (* The source device is untouched by image materialisation: the stores
     are still pending and the tear still registered. *)
  Alcotest.(check int) "source still has three pending lines" 3
    (List.length (Device.pending_lines d))

let test_poison_and_repair () =
  let d = Device.create ~cost:Device.Cost.free ~size:4096 () in
  let c = cpu () in
  Device.write_string d c ~off:128 ~src:"healthy!" ~src_off:0 ~len:8;
  Device.inject d (Device.Poison_line { off = 130 });
  Alcotest.(check (list int)) "line reported poisoned" [ 2 ] (Device.poisoned_lines d);
  (match Device.read_string d c ~off:128 ~len:8 with
  | _ -> Alcotest.fail "load of a poisoned line must raise"
  | exception Device.Media_error { off } -> Alcotest.(check int) "MCE at line start" 128 off);
  (* peek is no safer than read. *)
  (match Device.peek d ~off:130 ~len:1 ~dst:(Bytes.create 1) ~dst_off:0 with
  | _ -> Alcotest.fail "peek of a poisoned line must raise"
  | exception Device.Media_error _ -> ());
  (* A partial store leaves the line poisoned; a full-line store clears. *)
  Device.write_string d c ~off:128 ~src:"partial" ~src_off:0 ~len:7;
  Alcotest.(check (list int)) "partial store keeps poison" [ 2 ] (Device.poisoned_lines d);
  Device.write_string d c ~off:128 ~src:(String.make 64 'R') ~src_off:0 ~len:64;
  Alcotest.(check (list int)) "full-line store clears poison" [] (Device.poisoned_lines d);
  Alcotest.(check string) "line readable again" "RRRR" (Device.read_string d c ~off:128 ~len:4)

let test_hook_cpu_tagging () =
  (* Data events carry the accessing CPU; protocol annotations carry
     [None]. *)
  let d = Device.create ~cost:Device.Cost.free ~size:4096 () in
  let seen = ref [] in
  let id =
    Device.add_event_hook d (fun cpu _ ev ->
        let tag = match cpu with Some (c : Cpu.t) -> c.id | None -> -1 in
        seen := (tag, ev) :: !seen)
  in
  let c3 = Cpu.make ~id:3 () in
  Device.write_u64 d c3 ~off:0 1L;
  Device.annotate d Device.Recovery_begin;
  Device.remove_event_hook d id;
  (match !seen with
  | [ (-1, Device.Protocol _); (3, Device.Store _) ] -> ()
  | _ -> Alcotest.fail "expected a cpu-tagged store then an untagged protocol event")

(* Device-stream pin.  A seeded random mix of every store and load entry
   point plus flush, fence, persist, protocol annotations, poison
   injections and rejected out-of-range copies, issued from two CPUs on a
   2-node NUMA device under the Optane cost model (so remote charges
   occur).  Tracking is on for two stretches of the stream, which ends in
   a crash image with a torn word.  The final and crash image CRCs, both
   CPU clocks, a digest of every observed event (kind, off, len, nt,
   site, cpu id), a digest of every loaded byte and the per-site pm.*
   stats must match the values captured before the device's store and
   load paths were folded into one each. *)

(* CRC32C of the media, line by line; a poisoned line (which [peek]
   refuses) contributes a marker instead of its bytes. *)
let device_crc dev =
  let poisoned = Device.poisoned_lines dev in
  let line = Bytes.create 64 in
  let crc = ref Crc32c.init in
  for l = 0 to (Device.size dev / 64) - 1 do
    if List.mem l poisoned then crc := Crc32c.update_string !crc "poison" ~off:0 ~len:6
    else begin
      Device.peek dev ~off:(l * 64) ~len:64 ~dst:line ~dst_off:0;
      crc := Crc32c.update !crc line ~off:0 ~len:64
    end
  done;
  Crc32c.finish !crc

(* Run [f] with the global stats registry enabled and freshly reset,
   restoring the previous [enabled] flag afterwards. *)
let with_stats f =
  let was = Stats.enabled () in
  Stats.set_enabled true;
  Stats.reset ();
  Fun.protect ~finally:(fun () -> Stats.set_enabled was) f

let pm_stats () =
  (Stats.snapshot ()).s_counters
  |> List.filter_map (fun (name, labels, v) ->
         if String.starts_with ~prefix:"pm." name then
           let l = String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels) in
           Some (Printf.sprintf "%s{%s}" name l, v)
         else None)

let run_device_stream () =
  let size = 64 * 1024 in
  let d = Device.create ~numa_nodes:2 ~size () in
  let cpus = [| Cpu.make ~id:0 ~node:0 (); Cpu.make ~id:1 ~node:1 () |] in
  let sites = [| Site.unknown; Site.v "test" "a"; Site.v "test" "b" |] in
  let rng = Rng.create 0x5eed in
  let crc_of acc s = Crc32c.update_string acc s ~off:0 ~len:(String.length s) in
  let events = ref Crc32c.init and loaded = ref Crc32c.init in
  let load s = loaded := crc_of !loaded s in
  ignore
    (Device.add_event_hook d (fun cpu site ev ->
         let id = match cpu with Some (c : Cpu.t) -> c.id | None -> -1 in
         let body =
           match ev with
           | Device.Store { off; len; nt } -> Printf.sprintf "S%d+%d%s" off len (if nt then "n" else "")
           | Load { off; len } -> Printf.sprintf "L%d+%d" off len
           | Flush { off; len } -> Printf.sprintf "F%d+%d" off len
           | Fence -> "B"
           | Protocol _ -> "P"
         in
         events := crc_of !events (Printf.sprintf "%s@%s#%d;" body (Site.to_string site) id)));
  let buf = Bytes.create 4096 in
  let n = 3000 in
  for i = 0 to n - 1 do
    if i = n / 4 then Device.set_tracking d true;
    if i = n / 2 then Device.set_tracking d false;
    if i = 5 * n / 8 then Device.set_tracking d true;
    if i mod 250 = 0 then Device.inject d (Device.Poison_line { off = Rng.int rng size });
    let c = cpus.(Rng.int rng 2) in
    let len = if Rng.int rng 8 = 0 then Rng.int rng 4096 else Rng.int rng 200 in
    let off = Rng.int rng (size - len + 1) in
    let src = Rng.int rng (size - len + 1) in
    let payload = String.init len (fun j -> Char.chr ((i + (j * 7)) land 0xff)) in
    Bytes.blit_string payload 0 buf 0 len;
    let ch = Char.chr (i land 0xff) in
    Device.with_site d sites.(Rng.int rng 3) @@ fun () ->
    try
      match Rng.int rng 19 with
      | 0 -> Device.write d c ~off ~src:buf ~src_off:0 ~len
      | 1 -> Device.write_string d c ~off ~src:payload ~src_off:0 ~len
      | 2 -> Device.write_nt d c ~off ~src:buf ~src_off:0 ~len
      | 3 -> Device.write_string_nt d c ~off ~src:payload ~src_off:0 ~len
      | 4 -> Device.memset d c ~off ~len ch
      | 5 -> Device.memset_nt d c ~off ~len ch
      | 6 -> Device.copy_within d c ~src ~dst:off ~len
      | 7 -> Device.copy_within_nt d c ~src ~dst:off ~len
      | 8 -> Device.write_u64 d c ~off:(off land lnot 7) (Rng.int64 rng)
      | 9 ->
          Device.read d c ~off ~len ~dst:buf ~dst_off:0;
          load (Bytes.sub_string buf 0 len)
      | 10 -> load (Device.read_string d c ~off ~len)
      | 11 -> load (Int64.to_string (Device.read_u64 d c ~off:(off land lnot 7)))
      | 12 -> Device.touch_read d c ~off ~len
      | 13 -> Device.flush d c ~off ~len
      | 14 -> Device.fence d c
      | 15 -> Device.persist d c ~off ~len
      | 16 -> Device.annotate d (Device.Fresh { addr = off; len })
      | 17 -> Device.copy_within d c ~src ~dst:(size - len + 64) ~len:(len + 1)
      | _ -> Device.copy_within_nt d c ~src:(size - 8) ~dst:off ~len:(len + 16)
    with
    | Device.Media_error { off } -> load (Printf.sprintf "E%d" off)
    | Invalid_argument _ -> load "I"
  done;
  (match Device.pending_lines d with
  | line :: _ -> Device.inject d (Device.Torn_word { off = (line * 64) + 8 })
  | [] -> ());
  let img = Device.crash_image d ~persisted:(fun line -> line mod 3 <> 0) in
  ( (device_crc d, device_crc img),
    (Cpu.now cpus.(0), Cpu.now cpus.(1)),
    (Crc32c.finish !events, Crc32c.finish !loaded),
    pm_stats () )

let expected_stream_crcs = (0x57070d3d, 0x59002cb4)
let expected_stream_clocks = (303262, 300669)
let expected_stream_digests = (0x068eb317, 0x72cbd8fa)

let expected_stream_stats =
  [
    ("pm.fences{site=?.?}", 99);
    ("pm.fences{site=test.a}", 123);
    ("pm.fences{site=test.b}", 112);
    ("pm.flush_lines{site=?.?}", 728);
    ("pm.flush_lines{site=test.a}", 650);
    ("pm.flush_lines{site=test.b}", 551);
    ("pm.load_bytes{site=?.?}", 78673);
    ("pm.load_bytes{site=test.a}", 93186);
    ("pm.load_bytes{site=test.b}", 104679);
    ("pm.nt_store_bytes{site=?.?}", 61998);
    ("pm.nt_store_bytes{site=test.a}", 55169);
    ("pm.nt_store_bytes{site=test.b}", 64528);
    ("pm.store_bytes{site=?.?}", 67392);
    ("pm.store_bytes{site=test.a}", 83777);
    ("pm.store_bytes{site=test.b}", 58339);
  ]

let test_device_stream () =
  let crcs, clocks, digests, stats = with_stats run_device_stream in
  let hex = Alcotest.testable (fun f v -> Format.fprintf f "0x%08x" v) ( = ) in
  Alcotest.(check (pair hex hex)) "image, crash image CRC32C" expected_stream_crcs crcs;
  Alcotest.(check (pair int int)) "cpu0, cpu1 clocks" expected_stream_clocks clocks;
  Alcotest.(check (pair hex hex)) "event, load digests" expected_stream_digests digests;
  Alcotest.(check (list (pair string int))) "per-site pm.* stats" expected_stream_stats stats

(* Differential test against a flat shadow.  The device stores its
   image in 64 KiB chunks shared copy-on-write with its crash images and
   with the uniform chunks whole-chunk string stores point at; a plain
   [Bytes] shadow mirrors every op, so any piece-walking, sharing or
   ownership slip shows up as a byte difference.  Clocks, events and
   stats are the stream pin's job; this checks bytes only.  The device
   spans several chunks and is not a whole number of them, and offsets
   cluster around chunk boundaries. *)

let chunk = 64 * 1024 (* the device's chunk size *)

(* [torn]: every word ever registered with [Torn_word] on [dev]. *)
type mirrored = { dev : Device.t; shadow : bytes; mutable torn : int list }

let same what m =
  let size = Bytes.length m.shadow in
  let img = Bytes.create size in
  Device.peek m.dev ~off:0 ~len:size ~dst:img ~dst_off:0;
  if not (Bytes.equal img m.shadow) then begin
    let i = ref 0 in
    while Bytes.get img !i = Bytes.get m.shadow !i do incr i done;
    Alcotest.failf "%s: image differs from shadow first at byte %d" what !i
  end

(* Anywhere, or (two times in three) placed so that the range straddles
   a chunk boundary give or take 32 bytes; [len] bytes always fit. *)
let pick_off rng ~size ~len =
  let hi = size - len in
  if Rng.int rng 3 = 0 then Rng.int rng (hi + 1)
  else
    let b = chunk * (1 + Rng.int rng (size / chunk)) in
    max 0 (min hi (b - len + Rng.int rng (len + 64) - 32))

let pick_len rng =
  match Rng.int rng 10 with
  | 0 -> chunk + 1 + Rng.int rng (chunk + 64) (* spans three chunks *)
  | 1 | 2 -> Rng.int rng 4096
  | _ -> Rng.int rng 200

(* Payloads are random slices of one random pool. *)
let pool =
  lazy
    (let r = Rng.create 0x9001 in
     Bytes.init (4 * chunk) (fun _ -> Char.chr (Rng.int r 256)))

let store_string m c ~nt ~off ~src ~src_off ~len =
  (if nt then Device.write_string_nt else Device.write_string) m.dev c ~off ~src ~src_off ~len;
  Bytes.blit_string src src_off m.shadow off len

(* Uniform sources: a few strings every whole-chunk store of the test
   reuses (so the device's memo hits), and a string of the same length
   as the first that differs from it only in its last byte. *)
let shared =
  lazy (Array.map (fun c -> String.make ((2 * chunk) + 4096) c) [| 'g'; '\000'; '\255' |])

let near =
  lazy
    (let g = (Lazy.force shared).(0) in
     String.mapi (fun i c -> if i = String.length g - 1 then 'h' else c) g)

(* A partial store, a u64 store or a bit flip somewhere in [off, off+len). *)
let poke rng c m ~off ~len =
  let p = off + Rng.int rng len in
  match Rng.int rng 3 with
  | 0 ->
      let n = min (off + len - p) (1 + Rng.int rng 100) in
      store_string m c ~nt:(Rng.bool rng) ~off:p ~src:(String.make n 'p') ~src_off:0 ~len:n
  | 1 ->
      let p = min (Bytes.length m.shadow - 8) p land lnot 7 and v = Rng.int64 rng in
      Device.write_u64 m.dev c ~off:p v;
      Bytes.set_int64_le m.shadow p v
  | _ ->
      let bit = Rng.int rng 8 in
      Device.inject m.dev (Device.Bit_flip { off = p; bit });
      Bytes.set m.shadow p (Char.chr (Char.code (Bytes.get m.shadow p) lxor (1 lsl bit)))

(* One or two whole chunks from a uniform string, shared or fresh,
   starting at a chunk boundary or (one time in four) just before one;
   half the time a partial store, u64 store or bit flip follows into the
   range. *)
let uniform_store rng c m =
  let size = Bytes.length m.shadow in
  let src =
    if Rng.int rng 3 = 0 then String.make (2 * chunk) (Char.chr (Rng.int rng 256))
    else
      let sh = Lazy.force shared in
      sh.(Rng.int rng (Array.length sh))
  in
  let k = Rng.int rng (size / chunk) in
  let off = if Rng.int rng 4 = 0 then max 0 ((k * chunk) - 1 - Rng.int rng 100) else k * chunk in
  let src_off = Rng.int rng 64 in
  let len = min (size - off) (min (String.length src - src_off) (chunk * (1 + Rng.int rng 2))) in
  store_string m c ~nt:(Rng.bool rng) ~off ~src ~src_off ~len;
  if Rng.bool rng then poke rng c m ~off ~len

(* The near-uniform string's last two chunks, whole: a scan that
   stopped short of the last byte would share its last chunk. *)
let near_store rng c m =
  let s = Lazy.force near in
  let k = Rng.int rng 2 in
  store_string m c ~nt:(Rng.bool rng) ~off:(k * chunk) ~src:s
    ~src_off:(String.length s - (2 * chunk)) ~len:(2 * chunk)

(* Poison a line, then repair it with a full-line store: a whole-chunk
   uniform store over its chunk, or a run of whole lines around it. *)
let poison_repair rng c m =
  let size = Bytes.length m.shadow in
  let line = Rng.int rng (size / 64) in
  Device.inject m.dev (Device.Poison_line { off = line * 64 });
  let k = line * 64 / chunk in
  let g = (Lazy.force shared).(Rng.int rng 3) in
  if Rng.bool rng && (k + 1) * chunk <= size then
    store_string m c ~nt:(Rng.bool rng) ~off:(k * chunk) ~src:g ~src_off:0 ~len:chunk
  else begin
    let lo = max 0 (line - Rng.int rng 3) and hi = min (size / 64) (line + 1 + Rng.int rng 3) in
    let src = if Rng.bool rng then g else Bytes.to_string (Lazy.force pool) in
    store_string m c ~nt:(Rng.bool rng) ~off:(lo * 64) ~src ~src_off:0 ~len:((hi - lo) * 64)
  end;
  Alcotest.(check (list int)) "poison repaired" [] (Device.poisoned_lines m.dev)

let step rng c m =
  let size = Bytes.length m.shadow in
  let len = pick_len rng in
  let off = pick_off rng ~size ~len in
  let pool = Lazy.force pool in
  let payload = Bytes.sub pool (Rng.int rng (Bytes.length pool - len)) len in
  let ch = Char.chr (Rng.int rng 256) in
  let copy ~nt =
    (* Overlapping in either direction about half the time. *)
    let src =
      if Rng.bool rng then max 0 (min (size - len) (off + Rng.int rng 129 - 64))
      else pick_off rng ~size ~len
    in
    (if nt then Device.copy_within_nt else Device.copy_within) m.dev c ~src ~dst:off ~len;
    Bytes.blit m.shadow src m.shadow off len
  in
  let u64_off () = if Rng.bool rng then chunk - 4 else min (size - 8) off in
  match Rng.int rng 19 with
  | 0 ->
      Device.write m.dev c ~off ~src:payload ~src_off:0 ~len;
      Bytes.blit payload 0 m.shadow off len
  | 1 ->
      Device.write_nt m.dev c ~off ~src:payload ~src_off:0 ~len;
      Bytes.blit payload 0 m.shadow off len
  | 2 ->
      Device.write_string m.dev c ~off ~src:(Bytes.to_string payload) ~src_off:0 ~len;
      Bytes.blit payload 0 m.shadow off len
  | 3 ->
      Device.write_string_nt m.dev c ~off ~src:(Bytes.to_string payload) ~src_off:0 ~len;
      Bytes.blit payload 0 m.shadow off len
  | 4 ->
      Device.memset m.dev c ~off ~len ch;
      Bytes.fill m.shadow off len ch
  | 5 ->
      Device.memset_nt m.dev c ~off ~len ch;
      Bytes.fill m.shadow off len ch
  | 6 -> copy ~nt:false
  | 7 -> copy ~nt:true
  | 8 ->
      let off = u64_off () and v = Rng.int64 rng in
      Device.write_u64 m.dev c ~off v;
      Bytes.set_int64_le m.shadow off v
  | 9 ->
      let off = u64_off () in
      Alcotest.(check int64) "read_u64" (Bytes.get_int64_le m.shadow off)
        (Device.read_u64 m.dev c ~off)
  | 10 ->
      let dst = Bytes.create len in
      Device.read m.dev c ~off ~len ~dst ~dst_off:0;
      Alcotest.(check bool) "read" true (Bytes.equal dst (Bytes.sub m.shadow off len))
  | 11 ->
      Alcotest.(check string) "read_string" (Bytes.sub_string m.shadow off len)
        (Device.read_string m.dev c ~off ~len)
  | 12 ->
      let off = min (size - 1) off and bit = Rng.int rng 8 in
      Device.inject m.dev (Device.Bit_flip { off; bit });
      Bytes.set m.shadow off (Char.chr (Char.code (Bytes.get m.shadow off) lxor (1 lsl bit)))
  | 13 ->
      (* A fill from the end of chunk k-1 to the start of chunk k+1. *)
      let off = (chunk * (1 + Rng.int rng 2)) - 1 - Rng.int rng 100 in
      let len = min (size - off) (chunk + 2 + Rng.int rng 200) in
      (if Rng.bool rng then Device.memset else Device.memset_nt) m.dev c ~off ~len ch;
      Bytes.fill m.shadow off len ch
  | 15 | 16 -> uniform_store rng c m
  | 17 -> near_store rng c m
  | 18 -> poison_repair rng c m
  | _ -> if Rng.bool rng then Device.persist m.dev c ~off ~len else Device.fence m.dev c

(* The image [crash_image] must produce: the shadow with every dropped
   pending line, then every torn word on a pending line, reverted. *)
let expected_image m ~persisted =
  let e = Bytes.copy m.shadow in
  List.iter
    (fun line ->
      if not (persisted line) then
        Option.iter (fun old -> Bytes.blit old 0 e (line * 64) 64) (Device.pending_old m.dev line))
    (Device.pending_lines m.dev);
  List.iter
    (fun w ->
      Option.iter (fun old -> Bytes.blit old (w mod 64) e w 8) (Device.pending_old m.dev (w / 64)))
    m.torn;
  e

let crash rng m =
  (match Device.pending_lines m.dev with
  | [] -> ()
  | lines ->
      let line = List.nth lines (Rng.int rng (List.length lines)) in
      let w = (line * 64) + (8 * Rng.int rng 8) in
      Device.inject m.dev (Device.Torn_word { off = w });
      m.torn <- w :: m.torn);
  let salt = Rng.int rng 1_000_000 in
  let persisted line = Hashtbl.hash (line, salt) land 1 = 0 in
  let shadow = expected_image m ~persisted in
  { dev = Device.crash_image m.dev ~persisted; shadow; torn = [] }

let test_chunked_vs_shadow () =
  let size = (3 * chunk) + 4096 + 192 in
  let c = cpu () in
  let rng = Rng.create 0xc0de in
  let m =
    ref
      { dev = Device.create ~cost:Device.Cost.free ~size (); shadow = Bytes.make size '\000';
        torn = [] }
  in
  let steps n x = for _ = 1 to n do step rng c x done in
  for round = 1 to 12 do
    let src = !m in
    Device.set_tracking src.dev true;
    steps 150 src;
    (* A share whose lines are still pending when the image is taken. *)
    uniform_store rng c src;
    same (Printf.sprintf "round %d source" round) src;
    let img = crash rng src in
    same (Printf.sprintf "round %d crash image" round) img;
    (* Independence: shares and other stores on the source after the
       image, stores and bit flips on the image, and an image of the
       image. *)
    uniform_store rng c src;
    uniform_store rng c img;
    steps 60 src;
    steps 60 img;
    same (Printf.sprintf "round %d source after image" round) src;
    same (Printf.sprintf "round %d image after stores" round) img;
    Device.set_tracking img.dev true;
    steps 60 img;
    let img2 = crash rng img in
    steps 40 img;
    steps 40 img2;
    steps 40 src;
    same (Printf.sprintf "round %d source at end" round) src;
    same (Printf.sprintf "round %d image at end" round) img;
    same (Printf.sprintf "round %d image of image" round) img2;
    (* Every third round continues from a save/load round trip. *)
    if round mod 3 = 0 then begin
      let path = Filename.temp_file "winefs" ".pm" in
      Device.save_file src.dev path;
      let loaded =
        { dev = Device.load_file ~cost:Device.Cost.free path; shadow = src.shadow; torn = [] }
      in
      Sys.remove path;
      Alcotest.(check int) "loaded size" size (Device.size loaded.dev);
      same (Printf.sprintf "round %d loaded" round) loaded;
      m := loaded
    end
  done;
  (* Two fresh devices point the same chunk at one uniform chunk; each
     then stores into it, and neither may see the other's stores. *)
  let fresh () =
    { dev = Device.create ~cost:Device.Cost.free ~size ();
      shadow = Bytes.make size '\000';
      torn = [] }
  in
  let a = fresh () and b = fresh () in
  let g = (Lazy.force shared).(0) in
  List.iter (fun m -> store_string m c ~nt:true ~off:chunk ~src:g ~src_off:0 ~len:chunk) [ a; b ];
  for _ = 1 to 20 do
    poke rng c a ~off:chunk ~len:chunk;
    poke rng c b ~off:chunk ~len:chunk
  done;
  same "first sharer" a;
  same "second sharer" b;
  let third = fresh () in
  store_string third c ~nt:false ~off:0 ~src:g ~src_off:0 ~len:chunk;
  same "uniform chunk intact" third

let suite =
  [
    Alcotest.test_case "read/write" `Quick test_rw;
    Alcotest.test_case "device stream pin" `Quick test_device_stream;
    Alcotest.test_case "chunked image vs flat shadow" `Quick test_chunked_vs_shadow;
    Alcotest.test_case "multi hook fan-out" `Quick test_multi_hook;
    Alcotest.test_case "hook removal during dispatch" `Quick test_hook_removal_during_dispatch;
    Alcotest.test_case "torn word x crash subsets" `Quick test_torn_word_crash_subsets;
    Alcotest.test_case "poison line and repair" `Quick test_poison_and_repair;
    Alcotest.test_case "hook cpu tagging" `Quick test_hook_cpu_tagging;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "cost accounting" `Quick test_cost_charged;
    Alcotest.test_case "crash: unflushed lost" `Quick test_crash_unflushed_lost;
    Alcotest.test_case "crash: fence makes durable" `Quick test_fence_makes_durable;
    Alcotest.test_case "crash: nt stores" `Quick test_nt_stores;
    Alcotest.test_case "crash: partial subsets" `Quick test_partial_crash_subsets;
    Alcotest.test_case "crash_at" `Quick test_crash_at;
    Alcotest.test_case "numa cost" `Quick test_numa_cost;
    Alcotest.test_case "image save/load" `Quick test_save_load;
  ]
