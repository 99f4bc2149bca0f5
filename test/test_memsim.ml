(* Memory-subsystem simulator: mappings, faults, hugepage eligibility,
   TLB behaviour, cache effects. *)

open Repro_util
module Device = Repro_pmem.Device
module Vmem = Repro_memsim.Vmem
module Lru = Repro_memsim.Lru_sets

let cpu () = Cpu.make ~id:0 ()
let huge = Units.huge_page

(* A backing that maps file offsets 1:1 to a physical base. *)
let flat_backing ?(base = 4 * Units.mib) ?(huge_capable = true) () : Vmem.backing =
 fun _cpu ~file_off ~huge_ok ->
  if huge_ok && huge_capable then Vmem.Huge (base + file_off)
  else Vmem.Base (base + Units.round_down file_off Units.base_page)

let test_lru_sets () =
  let l = Lru.create ~sets:1 ~ways:2 in
  Alcotest.(check bool) "miss" false (Lru.access l 1);
  Alcotest.(check bool) "hit" true (Lru.access l 1);
  ignore (Lru.access l 2);
  ignore (Lru.access l 3) (* evicts 1 (LRU) *);
  Alcotest.(check bool) "evicted" false (Lru.access l 1);
  Lru.invalidate l 3;
  Alcotest.(check bool) "invalidated" false (Lru.probe l 3);
  (* A miss evicts the set's last slot even when an invalidated hole
     sits earlier: the hole shifts down instead of taking the key. *)
  let l = Lru.create ~sets:1 ~ways:3 in
  List.iter (fun k -> ignore (Lru.access l k)) [ 1; 2; 3 ] (* MRU order: 3 2 1 *);
  Lru.invalidate l 2 (* 3 _ 1 *);
  Alcotest.(check bool) "miss" false (Lru.access l 4) (* 4 3 _ *);
  Alcotest.(check bool) "last slot evicted" false (Lru.probe l 1);
  Alcotest.(check bool) "miss" false (Lru.access l 5) (* 5 4 3 *);
  Alcotest.(check (list bool)) "hole evicted last" [ true; true; true ]
    (List.map (Lru.probe l) [ 5; 4; 3 ])

let test_huge_mapping_faults_once () =
  let dev = Device.create ~cost:Device.Cost.free ~size:(16 * Units.mib) () in
  let vm = Vmem.create dev in
  let c = cpu () in
  let r = Vmem.mmap vm ~len:(4 * huge) ~backing:(flat_backing ()) () in
  Vmem.prefault vm c r;
  let counters = Vmem.counters vm in
  Alcotest.(check int) "4 faults for 8MB" 4 (Counters.get counters "mm.page_faults");
  Alcotest.(check int) "all huge" 4 (Counters.get counters "mm.huge_faults");
  Alcotest.(check int) "huge bytes" (4 * huge) (Vmem.huge_mapped_bytes vm r)

let test_base_mapping_faults_per_page () =
  let dev = Device.create ~cost:Device.Cost.free ~size:(16 * Units.mib) () in
  let vm = Vmem.create dev in
  let c = cpu () in
  let r = Vmem.mmap vm ~len:huge ~backing:(flat_backing ~huge_capable:false ()) () in
  Vmem.prefault vm c r;
  Alcotest.(check int) "512 faults for 2MB" 512
    (Counters.get (Vmem.counters vm) "mm.page_faults");
  Alcotest.(check int) "no huge" 0 (Vmem.huge_mapped_bytes vm r)

let test_unaligned_backing_rejected () =
  let dev = Device.create ~cost:Device.Cost.free ~size:(16 * Units.mib) () in
  let vm = Vmem.create dev in
  let c = cpu () in
  let bad : Vmem.backing =
   fun _ ~file_off ~huge_ok -> if huge_ok then Vmem.Huge (4096 + file_off) else Vmem.Base 4096
  in
  let r = Vmem.mmap vm ~len:huge ~backing:bad () in
  Alcotest.(check bool) "unaligned hugepage rejected" true
    (match Vmem.prefault vm c r with
    | () -> false
    | exception Invalid_argument _ -> true);
  (* Page-table entries use -1 for "unmapped": a negative page address
     is refused at fault time rather than faulting forever. *)
  let negative : Vmem.backing = fun _ ~file_off:_ ~huge_ok:_ -> Vmem.Base (-Units.base_page) in
  let r = Vmem.mmap vm ~len:huge ~backing:negative () in
  Alcotest.(check bool) "negative page address rejected" true
    (match Vmem.read vm c r ~off:0 ~len:8 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_data_roundtrip () =
  let dev = Device.create ~cost:Device.Cost.free ~size:(16 * Units.mib) () in
  let vm = Vmem.create dev in
  let c = cpu () in
  let r = Vmem.mmap vm ~len:(2 * huge) ~backing:(flat_backing ()) () in
  Vmem.write vm c r ~off:12345 ~src:"across the mapping";
  let buf = Bytes.create 18 in
  Vmem.read_into vm c r ~off:12345 ~dst:buf ~dst_off:0 ~len:18;
  Alcotest.(check string) "mmap rw" "across the mapping" (Bytes.to_string buf);
  Vmem.write_u64 vm c r ~off:(huge - 4) 77L (* straddles a chunk boundary *);
  Alcotest.(check int64) "straddling u64" 77L (Vmem.read_u64 vm c r ~off:(huge - 4))

let test_fault_cost_gap () =
  (* The Figure 2 mechanism: base-page mapping of the same region costs
     much more to first-touch than a hugepage mapping. *)
  let dev = Device.create ~size:(32 * Units.mib) () in
  let vm = Vmem.create dev in
  let c1 = cpu () in
  let r1 = Vmem.mmap vm ~len:(2 * huge) ~backing:(flat_backing ()) () in
  let t0 = Cpu.now c1 in
  Vmem.prefault vm c1 r1;
  let huge_cost = Cpu.now c1 - t0 in
  let vm2 = Vmem.create dev in
  let c2 = cpu () in
  let r2 = Vmem.mmap vm2 ~len:(2 * huge) ~backing:(flat_backing ~huge_capable:false ()) () in
  let t0 = Cpu.now c2 in
  Vmem.prefault vm2 c2 r2;
  let base_cost = Cpu.now c2 - t0 in
  Alcotest.(check bool) "base faulting is >100x dearer" true (base_cost > 100 * huge_cost)

let test_tlb_miss_gap () =
  (* Pre-faulted random reads: base pages take many more TLB misses. *)
  let dev = Device.create ~size:(64 * Units.mib) () in
  let run huge_capable =
    let vm = Vmem.create dev in
    let c = cpu () in
    let r = Vmem.mmap vm ~len:(16 * huge) ~backing:(flat_backing ~huge_capable ()) () in
    Vmem.prefault vm c r;
    let rng = Rng.create 9 in
    Counters.reset (Vmem.counters vm);
    for _ = 1 to 5000 do
      Vmem.read vm c r ~off:(Rng.int rng (16 * huge / 64) * 64) ~len:8
    done;
    Counters.get (Vmem.counters vm) "mm.tlb_misses"
  in
  let huge_misses = run true and base_misses = run false in
  Alcotest.(check bool)
    (Printf.sprintf "base TLB misses (%d) >> huge (%d)" base_misses huge_misses)
    true
    (base_misses > 20 * max 1 huge_misses)

let test_zero_on_fault () =
  let dev = Device.create ~cost:Device.Cost.free ~size:(16 * Units.mib) () in
  let c = cpu () in
  (* Pre-dirty the physical page, then fault with zero_on_fault. *)
  Device.write_string dev c ~off:(4 * Units.mib) ~src:"dirty" ~src_off:0 ~len:5;
  let vm = Vmem.create dev in
  let r =
    Vmem.mmap vm ~len:Units.base_page
      ~backing:(flat_backing ~huge_capable:false ())
      ~zero_on_fault:true ()
  in
  let buf = Bytes.create 5 in
  Vmem.read_into vm c r ~off:0 ~dst:buf ~dst_off:0 ~len:5;
  Alcotest.(check string) "zeroed at fault" "\000\000\000\000\000" (Bytes.to_string buf)

let test_munmap_drops () =
  let dev = Device.create ~cost:Device.Cost.free ~size:(16 * Units.mib) () in
  let vm = Vmem.create dev in
  let c = cpu () in
  let r = Vmem.mmap vm ~len:huge ~backing:(flat_backing ()) () in
  Vmem.prefault vm c r;
  Vmem.munmap vm r;
  Alcotest.(check bool) "access after munmap rejected" true
    (match Vmem.read vm c r ~off:0 ~len:8 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Property: random reads/writes through a mapping agree with a model
   buffer, across hugepage and base-page mappings and u64 accessors. *)
let prop_mmap_model =
  QCheck.Test.make ~name:"mmap data path agrees with model buffer" ~count:60
    QCheck.(pair bool (list_of_size Gen.(1 -- 40) (tup3 bool (int_bound 8000) (int_range 1 300))))
    (fun (huge_capable, ops) ->
      let dev = Device.create ~cost:Device.Cost.free ~size:(16 * Units.mib) () in
      let vm = Vmem.create dev in
      let c = cpu () in
      let len = 2 * huge in
      let r = Vmem.mmap vm ~len ~backing:(flat_backing ~huge_capable ()) () in
      let model = Bytes.make len '\000' in
      let ch = ref 'a' in
      List.iter
        (fun (is_write, off, n) ->
          let off = min off (len - n) in
          if is_write then begin
            let data = String.make n !ch in
            ch := (if !ch = 'z' then 'a' else Char.chr (Char.code !ch + 1));
            Vmem.write vm c r ~off ~src:data;
            Bytes.blit_string data 0 model off n
          end
          else begin
            let buf = Bytes.create n in
            Vmem.read_into vm c r ~off ~dst:buf ~dst_off:0 ~len:n;
            if Bytes.sub model off n <> buf then
              QCheck.Test.fail_reportf "mismatch at off=%d len=%d" off n
          end)
        ops;
      (* Full sweep must agree. *)
      let whole = Bytes.create len in
      Vmem.read_into vm c r ~off:0 ~dst:whole ~dst_off:0 ~len;
      whole = model)

(* Differential: [Lru_sets] against the list reference on seeded
   streams of access/probe/invalidate/clear.  One set ([sets:1]) takes
   every key, drawn from a range a little wider than the set so hits,
   evictions and invalidated holes all occur; every hit result and the
   final probe set must agree. *)
let prop_lru_oracle =
  QCheck.Test.make ~name:"lru sets agree with list reference" ~count:300
    QCheck.(pair (oneofl [ 1; 4; 16 ]) int)
    (fun (ways, seed) ->
      let rng = Random.State.make [| seed |] in
      let l = Lru.create ~sets:1 ~ways in
      let r = Repro_oracle.Lru_ref.create ~ways in
      let keys = (2 * ways) + 2 in
      let agree what k a b =
        if a <> b then
          QCheck.Test.fail_reportf "ways=%d seed=%d: %s %d: lru_sets %b, reference %b" ways
            seed what k a b
      in
      for _ = 1 to 400 do
        let k = Random.State.int rng keys in
        match Random.State.int rng 20 with
        | 0 ->
            Lru.clear l;
            Repro_oracle.Lru_ref.clear r
        | 1 | 2 | 3 | 4 ->
            Lru.invalidate l k;
            Repro_oracle.Lru_ref.invalidate r k
        | 5 | 6 | 7 -> agree "probe" k (Lru.probe l k) (Repro_oracle.Lru_ref.probe r k)
        | _ -> agree "access" k (Lru.access l k) (Repro_oracle.Lru_ref.access r k)
      done;
      for k = 0 to keys - 1 do
        agree "final probe" k (Lru.probe l k) (Repro_oracle.Lru_ref.probe r k)
      done;
      true)

(* Counter cells: a fresh space snapshots empty, and a scripted run of
   4K and 2M faults, streaming reads, [read_u64] (one straddling a page),
   munmap/remap and a [Counters.reset] followed by more reads gives a
   pinned snapshot.  A cell cached before the reset and not re-read
   after it would show up as a wrong or missing count. *)
let test_counter_cells () =
  let dev = Device.create ~cost:Device.Cost.free ~size:(32 * Units.mib) () in
  let vm = Vmem.create dev in
  let c = cpu () in
  let snap () = Counters.snapshot (Vmem.counters vm) in
  let pp = Alcotest.(list (pair string int)) in
  Alcotest.check pp "fresh space" [] (snap ());
  let stream r ~len =
    let step = 64 * Units.kib in
    let off = ref 0 in
    while !off < len do
      Vmem.read vm c r ~off:!off ~len:(min step (len - !off));
      off := !off + step
    done
  in
  let huge_len = 2 * huge and mixed_len = huge + (64 * Units.kib) in
  let a = Vmem.mmap vm ~len:huge_len ~backing:(flat_backing ()) () in
  let b =
    Vmem.mmap vm ~len:mixed_len ~backing:(flat_backing ~base:(12 * Units.mib) ()) ()
  in
  stream a ~len:huge_len;
  stream b ~len:mixed_len;
  List.iter
    (fun off -> ignore (Vmem.read_u64 vm c b ~off))
    [ 0; 8; huge + 4092; huge + 8192; 4096 ];
  Vmem.munmap vm a;
  let a = Vmem.mmap vm ~len:huge_len ~backing:(flat_backing ~huge_capable:false ()) () in
  stream a ~len:(huge_len / 2);
  Alcotest.check pp "before reset"
    [
      ("mm.fault_ns", 798600);
      ("mm.huge_faults", 3);
      ("mm.llc_hits", 34179);
      ("mm.llc_misses", 99513);
      ("mm.page_faults", 531);
      ("mm.tlb_hits", 100);
      ("mm.tlb_misses", 531);
    ]
    (snap ());
  Counters.reset (Vmem.counters vm);
  stream a ~len:huge_len;
  stream b ~len:mixed_len;
  ignore (Vmem.read_u64 vm c a ~off:(huge + 4092));
  Alcotest.check pp "after reset"
    [
      ("mm.fault_ns", 768000);
      ("mm.huge_faults", 0);
      ("mm.llc_hits", 100508);
      ("mm.llc_misses", 408);
      ("mm.page_faults", 512);
      ("mm.tlb_hits", 546);
      ("mm.tlb_misses", 529);
    ]
    (snap ());
  (* A first touch lists only the counters it moved: no hit yet. *)
  let vm = Vmem.create dev in
  let r = Vmem.mmap vm ~len:huge ~backing:(flat_backing ()) () in
  ignore (Vmem.read_u64 vm c r ~off:64);
  Alcotest.check pp "first touch"
    [
      ("mm.fault_ns", 2200);
      ("mm.huge_faults", 1);
      ("mm.llc_misses", 3);
      ("mm.page_faults", 1);
      ("mm.tlb_misses", 1);
    ]
    (Counters.snapshot (Vmem.counters vm))

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x1e5 |]) prop_lru_oracle;
    Alcotest.test_case "counter cells" `Quick test_counter_cells;
    QCheck_alcotest.to_alcotest prop_mmap_model;
    Alcotest.test_case "lru sets" `Quick test_lru_sets;
    Alcotest.test_case "huge mapping faults once per 2MB" `Quick test_huge_mapping_faults_once;
    Alcotest.test_case "base mapping faults per 4KB" `Quick test_base_mapping_faults_per_page;
    Alcotest.test_case "unaligned hugepage rejected" `Quick test_unaligned_backing_rejected;
    Alcotest.test_case "data roundtrip" `Quick test_data_roundtrip;
    Alcotest.test_case "fault cost gap (fig 2)" `Quick test_fault_cost_gap;
    Alcotest.test_case "tlb miss gap (fig 4)" `Quick test_tlb_miss_gap;
    Alcotest.test_case "zero on fault" `Quick test_zero_on_fault;
    Alcotest.test_case "munmap" `Quick test_munmap_drops;
  ]
