(* Tests of the benchmark's own code: exact percentiles, the reply
   checkers, and the /proc parsers. *)

open Perfbench
module P = Server.Protocol

let rejects name verdict =
  match verdict with
  | Ops.Wrong _ -> ()
  | Ops.Pass -> Alcotest.failf "%s: accepted" name
  | Ops.Failed m -> Alcotest.failf "%s: counted as a refusal (%s)" name m

let passes name verdict =
  match verdict with
  | Ops.Pass -> ()
  | Ops.Wrong m | Ops.Failed m -> Alcotest.failf "%s: %s" name m

(* --- percentiles --- *)

let test_percentiles () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Stats.percentile a 0.5);
  Alcotest.(check (float 0.)) "p99 of 1..100" 99. (Stats.percentile a 0.99);
  Alcotest.(check (float 0.)) "p100 of 1..100" 100. (Stats.percentile a 1.0);
  Alcotest.(check (float 0.)) "p50 of one" 7. (Stats.percentile [| 7. |] 0.5);
  Alcotest.(check (float 0.)) "p99 of 1..10" 10. (Stats.percentile (Array.init 10 (fun i -> float_of_int i +. 1.)) 0.99);
  let s = Stats.samples 4 in
  List.iter (Stats.add s) [ 3.; 1.; 2.; 9.; 5. ];
  Alcotest.(check int) "capacity bounds the samples" 4 (Stats.count s);
  Alcotest.(check bool) "full" true (Stats.full s);
  Alcotest.(check (array (float 0.))) "sorted" [| 1.; 2.; 3.; 9. |] (Stats.sorted s);
  Alcotest.(check int) "count_above" 1 (Stats.count_above (Stats.sorted s) 3.);
  let t = Stats.samples 8 in
  List.iteri (fun i x -> Stats.add ~tag:(i mod 3) t x) [ 6.; 5.; 4.; 3.; 2.; 1. ];
  Alcotest.(check (array (float 0.))) "sorted by tag" [| 3.; 6. |] (Stats.sorted ~keep:(( = ) 0) t);
  Alcotest.(check (array (array (float 0.))))
    "split by tag" [| [| 3.; 6. |]; [| 2.; 5. |] |] (Stats.by_tag t 2);
  Alcotest.(check (float 0.)) "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "median even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ])

(* --- checkers --- *)

let test_kv_point_checker () =
  let get = { Ops.op = Get 5; expect = Value (Some 5) } in
  passes "GET" (Ops.check get [ P.Int 5 ]);
  rejects "GET wrong value" (Ops.check get [ P.Int 6 ]);
  rejects "GET absent key" (Ops.check get [ P.Nil ]);
  let miss = { Ops.op = Get 5; expect = Value None } in
  rejects "GET of an absent key answered" (Ops.check miss [ P.Int 5 ]);
  let put = { Ops.op = Put (5, 1); expect = Put_done false } in
  passes "PUT on present" (Ops.check put [ P.Exists ]);
  rejects "PUT on present answered OK" (Ops.check put [ P.Ok_ ]);
  let del = { Ops.op = Del 5; expect = Del_done true } in
  rejects "DEL of present answered 0" (Ops.check del [ P.Int 0 ]);
  (match Ops.check get [ P.Busy 50 ] with
   | Ops.Failed _ -> ()
   | _ -> Alcotest.fail "-BUSY must count as a failed request");
  match Ops.check get [ P.Err "x" ] with
  | Ops.Failed _ -> ()
  | _ -> Alcotest.fail "-ERR must count as a failed request"

let test_kv_scan_checker () =
  let mget = { Ops.op = Mget [| 1; 2 |]; expect = Vals [| 1; 2 |] } in
  passes "MGET" (Ops.check mget [ P.Arr [ P.Int 1; P.Int 2 ] ]);
  rejects "MGET wrong value" (Ops.check mget [ P.Arr [ P.Int 1; P.Int 3 ] ]);
  rejects "MGET absent key" (Ops.check mget [ P.Arr [ P.Int 1; P.Nil ] ]);
  rejects "MGET short" (Ops.check mget [ P.Arr [ P.Int 1 ] ]);
  let range = { Ops.op = Range (3, 4); expect = Pairs [| (3, 3); (4, 40) |] } in
  passes "RANGE" (Ops.check range [ P.Arr [ P.Int 3; P.Int 3; P.Int 4; P.Int 40 ] ]);
  rejects "RANGE missing binding" (Ops.check range [ P.Arr [ P.Int 3; P.Int 3 ] ]);
  rejects "RANGE stale value" (Ops.check range [ P.Arr [ P.Int 3; P.Int 3; P.Int 4; P.Int 4 ] ]);
  let keys = { Ops.op = Range (3, 4); expect = Keys } in
  passes "replica RANGE" (Ops.check keys [ P.Arr [ P.Int 3; P.Int 9; P.Int 4; P.Int 9 ] ]);
  rejects "replica RANGE with a hole" (Ops.check keys [ P.Arr [ P.Int 3; P.Int 9 ] ]);
  let present = { Ops.op = Mget [| 1; 2 |]; expect = Present } in
  rejects "replica MGET absent key" (Ops.check present [ P.Arr [ P.Nil; P.Int 2 ] ]);
  let upd = { Ops.op = Update (7, 9); expect = Committed } in
  passes "UPDATE" (Ops.check upd [ P.Ok_; P.Queued; P.Queued; P.Arr [ P.Int 12; P.Int 1; P.Ok_ ] ]);
  rejects "UPDATE on an absent key"
    (Ops.check upd [ P.Ok_; P.Queued; P.Queued; P.Arr [ P.Int 12; P.Int 0; P.Ok_ ] ]);
  match Ops.check upd [ P.Ok_; P.Queued; P.Queued; P.Aborted 8 ] with
  | Ops.Failed _ -> ()
  | _ -> Alcotest.fail "-ABORT must count as a failed request"

let test_txn_feed_checker () =
  let s = 2 * Ops.base in
  let a, b = Ops.pair 3 in
  let audit = { Ops.op = Mget [| a; b |]; expect = Sum s } in
  passes "audit" (Ops.check audit [ P.Arr [ P.Int (a - 2); P.Int (b + 2) ] ]);
  rejects "broken pair sum" (Ops.check audit [ P.Arr [ P.Int (a - 2); P.Int b ] ]);
  rejects "audit absent key" (Ops.check audit [ P.Arr [ P.Int s; P.Nil ] ]);
  let tr = { Ops.op = Transfer { a; b; va = a - 1; vb = b + 1 }; expect = Committed } in
  let ok = [ P.Ok_; P.Queued; P.Queued; P.Queued; P.Queued ] in
  passes "transfer" (Ops.check tr (ok @ [ P.Arr [ P.Int 5; P.Int 1; P.Ok_; P.Int 1; P.Ok_ ] ]));
  rejects "transfer with an EXISTS step"
    (Ops.check tr (ok @ [ P.Arr [ P.Int 5; P.Int 1; P.Ok_; P.Int 1; P.Exists ] ]));
  (* Whole-state checks. *)
  let m = Ops.prefilled () in
  let dump = List.init Ops.n (fun i -> (i + 1, i + 1)) in
  Alcotest.(check (option string)) "prefill matches the model" None (Ops.state_diff m dump);
  Alcotest.(check (option string)) "prefill conserves" None (Ops.conservation dump);
  let broken = List.map (fun (k, v) -> if k = a then (k, v + 1) else (k, v)) dump in
  Alcotest.(check bool) "broken pair sum caught" true (Ops.conservation broken <> None);
  Alcotest.(check bool) "wrong value caught" true (Ops.state_diff m broken <> None);
  let absent = List.filter (fun (k, _) -> k <> b) dump in
  Alcotest.(check bool) "absent key caught" true (Ops.state_diff m absent <> None);
  Alcotest.(check bool) "absent account caught" true (Ops.conservation absent <> None)

let test_generators_follow_the_model () =
  let rng = Workload.Splitmix.create 42 and m = Ops.prefilled () in
  let next = Ops.transfer rng m in
  for _ = 1 to 1000 do
    ignore (next ())
  done;
  let dump = List.filter_map (fun k -> if m.(k) = 0 then None else Some (k, m.(k))) (List.init (2 * Ops.n) succ) in
  Alcotest.(check (option string)) "transfers conserve" None (Ops.conservation dump);
  let same seed =
    let g = Ops.kv_point (Workload.Splitmix.create seed) (Ops.prefilled ()) in
    List.init 100 (fun _ -> g ())
  in
  Alcotest.(check bool) "same seed, same stream" true (same 7 = same 7);
  Alcotest.(check bool) "other seed, other stream" true (same 7 <> same 8)

(* --- /proc parsers --- *)

let stat_text =
  "4242 (verlib (serve)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 735 121 0 0 20 0 3 0 \
   987654 123456789 4321 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"

let status_text =
  "Name:\tverlib_serve.ex\nUmask:\t0022\nState:\tS (sleeping)\nVmPeak:\t  412340 kB\n\
   VmSize:\t  412340 kB\nVmHWM:\t   52736 kB\nVmRSS:\t   51200 kB\nThreads:\t3\n"

let proc_stat_text =
  "cpu  1000 20 300 50000 40 0 10 25 0 0\ncpu0 500 10 150 25000 20 0 5 12 0 0\nintr 1 2 3\n"

let test_procfs () =
  Alcotest.(check (result int string)) "utime+stime" (Ok 856) (Procfs.parse_stat_ticks stat_text);
  Alcotest.(check (result int string)) "VmHWM" (Ok 52736) (Procfs.parse_status_hwm_kb status_text);
  Alcotest.(check (result (pair int int) string))
    "cpu total, steal" (Ok (51395, 25)) (Procfs.parse_cpu_line proc_stat_text);
  Alcotest.(check bool) "truncated stat" true (Result.is_error (Procfs.parse_stat_ticks "1 (x) S 1 2"));
  Alcotest.(check bool) "no VmHWM" true (Result.is_error (Procfs.parse_status_hwm_kb "Name:\tx\n"));
  Alcotest.(check bool) "no cpu line" true (Result.is_error (Procfs.parse_cpu_line "cpu0 1 2 3\n"))

let () =
  Alcotest.run "perfbench"
    [
      ("stats", [ Alcotest.test_case "exact percentiles" `Quick test_percentiles ]);
      ( "checkers",
        [
          Alcotest.test_case "kv-point" `Quick test_kv_point_checker;
          Alcotest.test_case "kv-scan" `Quick test_kv_scan_checker;
          Alcotest.test_case "txn-feed" `Quick test_txn_feed_checker;
          Alcotest.test_case "generators" `Quick test_generators_follow_the_model;
        ] );
      ("procfs", [ Alcotest.test_case "parsers on fixed text" `Quick test_procfs ]);
    ]
