(* Unit and property tests for the util library: clock, RNG determinism,
   histograms, distributions, counters, units. *)

open Repro_util

let test_clock () =
  let c = Simclock.create () in
  Alcotest.(check int) "starts at zero" 0 (Simclock.now c);
  Simclock.advance c 100;
  Simclock.advance c 50;
  Alcotest.(check int) "accumulates" 150 (Simclock.now c);
  Simclock.advance_to c 120;
  Alcotest.(check int) "advance_to backwards is a no-op" 150 (Simclock.now c);
  Simclock.advance_to c 500;
  Alcotest.(check int) "advance_to forward" 500 (Simclock.now c);
  Alcotest.check_raises "negative advance rejected"
    (Invalid_argument "Simclock.advance: negative duration") (fun () ->
      Simclock.advance c (-1));
  Simclock.reset c;
  Alcotest.(check int) "reset" 0 (Simclock.now c)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Rng.int64 a) (Rng.int64 b)
  done;
  let c = Rng.create 43 in
  Alcotest.(check bool) "different seed differs" true (Rng.int64 a <> Rng.int64 c)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "int in bounds" true (v >= 0 && v < 10);
    let f = Rng.float r 2.5 in
    Alcotest.(check bool) "float in bounds" true (f >= 0. && f < 2.5)
  done

let test_rng_shuffle () =
  let r = Rng.create 9 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 Fun.id) sorted

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h i
  done;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  Alcotest.(check int) "median" 50 (Histogram.percentile h 50.);
  Alcotest.(check int) "p90" 90 (Histogram.percentile h 90.);
  Alcotest.(check int) "p100" 100 (Histogram.percentile h 100.);
  Alcotest.(check int) "min" 1 (Histogram.min_value h);
  Alcotest.(check (float 0.01)) "mean" 50.5 (Histogram.mean h)

let test_histogram_empty () =
  (* An unpopulated histogram must render as zeros, not leak the max_int
     sentinel from the untouched min field. *)
  List.iter
    (fun exact ->
      let h = Histogram.create ~exact () in
      Alcotest.(check int) "count" 0 (Histogram.count h);
      Alcotest.(check int) "min" 0 (Histogram.min_value h);
      Alcotest.(check int) "p0" 0 (Histogram.percentile h 0.);
      Alcotest.(check int) "p50" 0 (Histogram.percentile h 50.);
      Alcotest.(check int) "p99.9" 0 (Histogram.percentile h 99.9);
      Alcotest.(check (float 0.001)) "mean" 0. (Histogram.mean h))
    [ true; false ]

let test_histogram_cdf () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 10; 20; 30; 40 ];
  let cdf = Histogram.cdf h ~points:4 in
  Alcotest.(check int) "cdf points" 4 (List.length cdf);
  let fracs = List.map snd cdf in
  Alcotest.(check bool) "cdf non-decreasing" true
    (List.for_all2 ( <= ) fracs (List.tl fracs @ [ 1.0 ]));
  Alcotest.(check (float 0.001)) "last point is 1" 1.0 (List.nth fracs 3)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 1; 2; 3 ];
  List.iter (Histogram.add b) [ 4; 5 ];
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 5 (Histogram.count m);
  Alcotest.(check int) "merged max" 5 (Histogram.max_value m)

let test_counters () =
  let c = Counters.create () in
  let add name n =
    let r = Counters.cell c name in
    r := !r + n
  in
  add "a" 1;
  add "a" 4;
  add "b" 2;
  Alcotest.(check int) "get a" 5 (Counters.get c "a");
  Alcotest.(check int) "missing is 0" 0 (Counters.get c "zzz");
  let before = Counters.snapshot c in
  add "a" 10;
  add "c" 1;
  let after = Counters.snapshot c in
  let d = Counters.diff ~before ~after in
  Alcotest.(check int) "diff a" 10 (List.assoc "a" d);
  Alcotest.(check int) "diff c" 1 (List.assoc "c" d);
  Counters.reset c;
  Alcotest.(check int) "reset" 0 (Counters.get c "a")

let test_units () =
  Alcotest.(check int) "round_up" 8192 (Units.round_up 4097 4096);
  Alcotest.(check int) "round_up exact" 4096 (Units.round_up 4096 4096);
  Alcotest.(check int) "round_down" 4096 (Units.round_down 8191 4096);
  Alcotest.(check bool) "aligned" true (Units.is_aligned (2 * Units.mib) Units.huge_page);
  Alcotest.(check bool) "not aligned" false (Units.is_aligned 4096 Units.huge_page)

let test_dist_zipf () =
  let r = Rng.create 11 in
  let z = Dist.zipf ~n:1000 ~theta:0.99 in
  let counts = Array.make 1001 0 in
  for _ = 1 to 20_000 do
    let v = Dist.sample z r in
    Alcotest.(check bool) "zipf in range" true (v >= 1 && v <= 1000);
    counts.(v) <- counts.(v) + 1
  done;
  (* Rank 1 must dominate rank 100 heavily. *)
  Alcotest.(check bool) "zipf skew" true (counts.(1) > counts.(100) * 5)

let test_dist_mixture () =
  let r = Rng.create 13 in
  let d = Dist.mixture [ (0.5, Dist.constant 1); (0.5, Dist.constant 1000) ] in
  let small = ref 0 and big = ref 0 in
  for _ = 1 to 1000 do
    match Dist.sample d r with
    | 1 -> incr small
    | 1000 -> incr big
    | v -> Alcotest.failf "unexpected sample %d" v
  done;
  Alcotest.(check bool) "mixture balanced" true (!small > 300 && !big > 300)

let test_dist_lognormal_clamped () =
  let r = Rng.create 17 in
  let d = Dist.lognormal ~mu:9. ~sigma:2. ~min:64 ~max:4096 in
  for _ = 1 to 1000 do
    let v = Dist.sample d r in
    Alcotest.(check bool) "lognormal clamped" true (v >= 64 && v <= 4096)
  done

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "fs"; "MB/s" ] in
  Table.add_row t [ "WineFS"; "123.4" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  Alcotest.check_raises "row width checked"
    (Invalid_argument "Table.add_row: cell count mismatch") (fun () ->
      Table.add_row t [ "oops" ])

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentiles monotone" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 100000))
    (fun samples ->
      QCheck.assume (samples <> []);
      let h = Repro_util.Histogram.create () in
      List.iter (Repro_util.Histogram.add h) samples;
      let ps = [ 1.; 10.; 25.; 50.; 75.; 90.; 99.; 100. ] in
      let vals = List.map (Repro_util.Histogram.percentile h) ps in
      List.for_all2 ( <= ) vals (List.tl vals @ [ max_int ]))

let test_histogram_bucketed () =
  (* Non-exact mode: bounded memory, approximate percentiles. *)
  let h = Histogram.create ~exact:false () in
  for i = 1 to 10_000 do
    Histogram.add h i
  done;
  let p50 = Histogram.percentile h 50. in
  Alcotest.(check bool)
    (Printf.sprintf "bucketed median ~5000 (%d)" p50)
    true
    (p50 > 3000 && p50 < 8000);
  Alcotest.(check int) "min exact" 1 (Histogram.min_value h);
  Alcotest.(check int) "max exact" 10_000 (Histogram.max_value h)

let test_rng_split_pick () =
  let parent = Rng.create 5 in
  let childa = Rng.split parent in
  let childb = Rng.split parent in
  Alcotest.(check bool) "children independent" true (Rng.int64 childa <> Rng.int64 childb);
  let r = Rng.create 6 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "pick in array" true (Array.mem (Rng.pick r arr) arr)
  done;
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick r [||]))

let test_dist_constants () =
  let r = Rng.create 8 in
  Alcotest.(check int) "constant" 42 (Dist.sample (Dist.constant 42) r);
  let u = Dist.uniform ~lo:5 ~hi:7 in
  for _ = 1 to 100 do
    let v = Dist.sample u r in
    Alcotest.(check bool) "uniform bounds" true (v >= 5 && v <= 7)
  done;
  let m = Dist.mean_estimate (Dist.constant 10) r ~samples:50 in
  Alcotest.(check (float 0.01)) "mean estimate" 10.0 m

let test_simclock_span () =
  let s = Simclock.span () in
  Simclock.record s 100;
  Simclock.record s 300;
  Alcotest.(check (float 0.01)) "span mean" 200. (Simclock.mean_ns s)

let test_cpu_context () =
  let c = Cpu.make ~id:3 ~node:1 () in
  Alcotest.(check int) "id" 3 c.Cpu.id;
  Alcotest.(check int) "node" 1 c.node;
  Simclock.advance c.clock 77;
  Alcotest.(check int) "now" 77 (Cpu.now c);
  Alcotest.check_raises "negative id" (Invalid_argument "Cpu.make: negative id") (fun () ->
      ignore (Cpu.make ~id:(-1) ()))

let suite =
  [
    Alcotest.test_case "histogram bucketed" `Quick test_histogram_bucketed;
    Alcotest.test_case "rng split and pick" `Quick test_rng_split_pick;
    Alcotest.test_case "dist constants" `Quick test_dist_constants;
    Alcotest.test_case "simclock span" `Quick test_simclock_span;
    Alcotest.test_case "cpu context" `Quick test_cpu_context;
    Alcotest.test_case "simclock" `Quick test_clock;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram empty renders zeros" `Quick test_histogram_empty;
    Alcotest.test_case "histogram cdf" `Quick test_histogram_cdf;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "units" `Quick test_units;
    Alcotest.test_case "zipf distribution" `Quick test_dist_zipf;
    Alcotest.test_case "mixture distribution" `Quick test_dist_mixture;
    Alcotest.test_case "lognormal clamped" `Quick test_dist_lognormal_clamped;
    Alcotest.test_case "table render" `Quick test_table_render;
    QCheck_alcotest.to_alcotest prop_histogram_percentile_monotone;
  ]
