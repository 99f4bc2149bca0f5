(* PM device: data access, cost accounting, persistence/crash semantics. *)

open Repro_util
module Device = Repro_pmem.Device
module Site = Repro_pmem.Site
module Stats = Repro_stats.Stats

let cpu () = Cpu.make ~id:0 ()

let test_rw () =
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  Device.write_string d c ~off:100 "hello";
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
    (match Device.write_string d c ~off:4090 "toolong" with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_cost_charged () =
  let d = Device.create ~size:(1 * Units.mib) () in
  let c = cpu () in
  let t0 = Cpu.now c in
  Device.write_string d c ~off:0 (String.make 4096 'a');
  let t1 = Cpu.now c in
  Alcotest.(check bool) "write charges time" true (t1 > t0);
  ignore (Device.read_string d c ~off:0 ~len:4096);
  Alcotest.(check bool) "read charges time" true (Cpu.now c > t1)

let test_crash_unflushed_lost () =
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  Device.write_string d c ~off:0 "durable";
  Device.persist d c ~off:0 ~len:7;
  Device.set_tracking d true;
  Device.write_string d c ~off:1024 "volatile";
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
  Device.write_string d c ~off:0 "flushed";
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
  Device.write_string_nt d c ~off:0 "ntdata";
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
  Device.write_string d c ~off:0 "AAAA";
  Device.write_string d c ~off:256 "BBBB";
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
  let store off = Device.write_string d c ~off "data"; Device.persist d c ~off ~len:4 in
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
  Device.write_string d local ~off:0 (String.make 4096 'l');
  let local_cost = Cpu.now local - t0 in
  let t0 = Cpu.now remote in
  Device.write_string d remote ~off:0 (String.make 4096 'r');
  let remote_cost = Cpu.now remote - t0 in
  Alcotest.(check bool) "remote write dearer" true (remote_cost > local_cost);
  Alcotest.(check int) "node of offset" 1 (Device.node_of_offset d (3 * Units.mib))

let test_save_load () =
  let path = Filename.temp_file "winefs" ".pm" in
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  Device.write_string d c ~off:4000 "persist me";
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
      Device.write_string d c ~off:(l * 64) (old_of l);
      Device.persist d c ~off:(l * 64) ~len:64)
    lines;
  Device.set_tracking d true;
  Array.iter (fun l -> Device.write_string d c ~off:(l * 64) (new_of l)) lines;
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
  Device.write_string d c ~off:128 "healthy!";
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
  Device.write_string d c ~off:128 "partial";
  Alcotest.(check (list int)) "partial store keeps poison" [ 2 ] (Device.poisoned_lines d);
  Device.write_string d c ~off:128 (String.make 64 'R');
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
      | 1 -> Device.write_string d c ~off payload
      | 2 -> Device.write_nt d c ~off ~src:buf ~src_off:0 ~len
      | 3 -> Device.write_string_nt d c ~off payload
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

let suite =
  [
    Alcotest.test_case "read/write" `Quick test_rw;
    Alcotest.test_case "device stream pin" `Quick test_device_stream;
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
