(* Tests for the benchmark harness: registry, driver end-to-end, table
   formatting and space accounting. *)

let test_registry_complete () =
  List.iter
    (fun name ->
      let (module M : Dstruct.Map_intf.MAP) = Harness.Registry.find name in
      Alcotest.(check string) "name matches" name M.name)
    Harness.Registry.names;
  Alcotest.(check bool) "has all seven structures" true
    (List.length Harness.Registry.names = 7)

let test_registry_unknown () =
  match Harness.Registry.find "nope" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure for unknown structure"

let smoke_spec map =
  {
    (Harness.Driver.default_spec map) with
    Harness.Driver.n = 500;
    duration = 0.05;
    groups =
      [
        {
          Harness.Driver.g_count = 2;
          g_update_percent = 50;
          g_query = Workload.Opgen.Finds;
        };
      ];
  }

let test_driver_end_to_end () =
  List.iter
    (fun name ->
      let map = Harness.Registry.find name in
      let r = Harness.Driver.run (smoke_spec map) in
      Alcotest.(check bool)
        (name ^ " made progress")
        true
        (r.Harness.Driver.total_mops > 0.);
      (* fill + balanced insert/delete mix keeps size near n *)
      Alcotest.(check bool)
        (Printf.sprintf "%s size stays near n (%d)" name r.Harness.Driver.final_size)
        true
        (abs (r.Harness.Driver.final_size - 500) < 250))
    Harness.Registry.names

let test_driver_group_split () =
  let map = Harness.Registry.find "hashtable" in
  let spec =
    {
      (smoke_spec map) with
      Harness.Driver.groups =
        [
          { Harness.Driver.g_count = 1; g_update_percent = 100; g_query = Workload.Opgen.Finds };
          { Harness.Driver.g_count = 1; g_update_percent = 0; g_query = Workload.Opgen.Multifinds 4 };
        ];
    }
  in
  let r = Harness.Driver.run spec in
  Alcotest.(check int) "one throughput per group" 2
    (List.length r.Harness.Driver.group_mops);
  List.iter
    (fun m -> Alcotest.(check bool) "each group progressed" true (m > 0.))
    r.Harness.Driver.group_mops

let test_driver_repeats_average () =
  let map = Harness.Registry.find "hashtable" in
  let r = Harness.Driver.run { (smoke_spec map) with Harness.Driver.repeats = 2 } in
  Alcotest.(check bool) "averaged result present" true (r.Harness.Driver.total_mops > 0.)

let test_table_alignment () =
  let buf_name = Filename.temp_file "table" ".txt" in
  let oc = open_out buf_name in
  Harness.Table.print ~out:oc ~title:"t" ~header:[ "a"; "bb" ]
    [ [ "xxx"; "y" ]; [ "1" ] ];
  close_out oc;
  let ic = open_in buf_name in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove buf_name;
  let lines = List.rev !lines in
  Alcotest.(check bool) "has title" true
    (List.exists (fun l -> String.length l > 0 && l.[0] = '=') lines);
  (* all data rows share the same column offset *)
  Alcotest.(check int) "five lines (blank, title, header, rule, rows)" 6
    (List.length lines)

let test_mops_formatting () =
  Alcotest.(check string) "small" "0.123" (Harness.Table.mops 0.1234);
  Alcotest.(check string) "unit" "1.23" (Harness.Table.mops 1.234);
  Alcotest.(check string) "tens" "12.3" (Harness.Table.mops 12.34);
  Alcotest.(check string) "hundreds" "123" (Harness.Table.mops 123.4)

let test_space_accounting () =
  let arr = Array.make 1024 0 in
  let b = Harness.Space.bytes_per_entry ~root:(Obj.repr arr) ~entries:1024 in
  (* an int array costs one word per element plus a header *)
  Alcotest.(check bool) "about one word per entry" true (b >= 8. && b < 9.);
  Alcotest.(check (float 0.01)) "zero entries" 0.
    (Harness.Space.bytes_per_entry ~root:(Obj.repr arr) ~entries:0)

(* --- BENCH json (Bench_json): round trip + regression gate -------------- *)

module B = Harness.Bench_json

let sample_row ?(figure = "fig8a") ?(label = "update%20 IndOnNeed")
    ?(mops = 1.25) ?(p99 = 40.) ?(space = 120.5) ?(violations = 0)
    ?(alloc = 0.) ?(gc_minor = 0) ?(gc_major = 0) () =
  {
    B.r_figure = figure;
    r_label = label;
    r_mops = mops;
    r_p50_us = 10.5;
    r_p99_us = p99;
    r_chain_max = 4;
    r_chain_p99 = 2;
    r_indirect_links = 7;
    r_reclaimable = 3;
    r_violations = violations;
    r_space_bytes = space;
    r_retries = 0;
    r_giveups = 0;
    r_alloc_bytes_per_op = alloc;
    r_gc_minor = gc_minor;
    r_gc_major = gc_major;
  }

let test_bench_json_roundtrip () =
  let rows =
    [
      sample_row ();
      sample_row ~figure:"fig12" ~label:"btree \"quoted\"" ~mops:0. ~space:98.7 ();
    ]
  in
  let doc = B.make_doc ~label:"round trip" ~scale:"ci" rows in
  let doc2 =
    match B.of_string (B.to_json doc) with
    | Ok d -> d
    | Error e -> Alcotest.failf "BENCH json does not round-trip: %s" e
  in
  Alcotest.(check int) "schema" B.schema_version doc2.B.d_schema;
  Alcotest.(check string) "label" "round trip" doc2.B.d_label;
  Alcotest.(check string) "scale" "ci" doc2.B.d_scale;
  Alcotest.(check int) "rows" 2 (List.length doc2.B.d_rows);
  let r = List.hd doc2.B.d_rows and r0 = List.hd rows in
  Alcotest.(check string) "figure" r0.B.r_figure r.B.r_figure;
  Alcotest.(check string) "row label" r0.B.r_label r.B.r_label;
  Alcotest.(check (float 1e-5)) "mops" r0.B.r_mops r.B.r_mops;
  Alcotest.(check (float 1e-2)) "p99" r0.B.r_p99_us r.B.r_p99_us;
  Alcotest.(check int) "chain max" r0.B.r_chain_max r.B.r_chain_max;
  Alcotest.(check (float 0.05)) "space" r0.B.r_space_bytes r.B.r_space_bytes;
  (* escaped label survives *)
  Alcotest.(check bool) "quoted label" true
    (B.find doc2 ~figure:"fig12" ~label:"btree \"quoted\"" <> None);
  (* file round trip (what bench-check reads back) *)
  let path = Filename.temp_file "bench_rt" ".json" in
  B.write_file path doc;
  (match B.read_file path with
   | Ok d -> Alcotest.(check int) "file rows" 2 (List.length d.B.d_rows)
   | Error e -> Alcotest.failf "file round trip: %s" e);
  Sys.remove path;
  (* malformed and wrong-schema inputs are rejected *)
  (match B.of_string "{\"schema\":1,\"rows\":" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted malformed json");
  match
    B.of_string
      "{\"schema\":99,\"label\":\"\",\"created\":\"\",\"scale\":\"\",\"rows\":[]}"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted wrong schema version"

(* Rows written before the [phases], [walk_saturation] and [shed] keys
   were dropped from the schema still read, with every kept field intact, so
   older documents stay loadable. *)
let test_bench_json_reads_dropped_keys () =
  match
    B.of_string
      "{\"schema\":1,\"label\":\"old\",\"created\":\"\",\"scale\":\"ci\",\
       \"rows\":[{\"figure\":\"serve\",\"label\":\"total\",\"mops\":0.055,\
       \"p50_us\":499.393,\"p99_us\":3995.149,\"chain_max\":2,\"chain_p99\":3,\
       \"indirect_links\":0,\"reclaimable\":14,\"violations\":0,\
       \"space_bytes\":0.0,\"retries\":3,\"shed\":1,\"walk_saturation\":2,\
       \"phases\":{\"parse\":1.5,\"map\":3.25},\"gc_minor\":234}]}"
  with
  | Error e -> Alcotest.failf "row with dropped keys rejected: %s" e
  | Ok d -> (
      match B.find d ~figure:"serve" ~label:"total" with
      | None -> Alcotest.fail "row with dropped keys lost"
      | Some r ->
          Alcotest.(check (float 1e-6)) "old row mops" 0.055 r.B.r_mops;
          Alcotest.(check int) "old row retries" 3 r.B.r_retries;
          Alcotest.(check int) "old row gc_minor" 234 r.B.r_gc_minor)

(* The PR7 columns (allocation per op, GC collection counts) survive a
   serialize/parse cycle and the alloc column gates like mops does. *)
let test_bench_json_gc_columns () =
  let rows = [ sample_row ~alloc:184.5 ~gc_minor:12 ~gc_major:3 () ] in
  let doc = B.make_doc ~label:"gc" ~scale:"ci" rows in
  (match B.of_string (B.to_json doc) with
   | Error e -> Alcotest.failf "gc columns do not round-trip: %s" e
   | Ok d ->
       let r = List.hd d.B.d_rows in
       Alcotest.(check (float 0.05)) "alloc round-trips" 184.5
         r.B.r_alloc_bytes_per_op;
       Alcotest.(check int) "gc_minor round-trips" 12 r.B.r_gc_minor;
       Alcotest.(check int) "gc_major round-trips" 3 r.B.r_gc_major);
  (* zero alloc stays off the wire (byte-stable committed baselines) *)
  let plain = B.to_json (B.make_doc ~scale:"ci" [ sample_row () ]) in
  Alcotest.(check bool) "zero alloc omitted" false
    (let needle = "alloc_bytes_per_op" in
     let n = String.length needle in
     let rec has i =
       i + n <= String.length plain
       && (String.sub plain i n = needle || has (i + 1))
     in
     has 0);
  (* allocation growth past the threshold is a gated regression *)
  let base = B.make_doc ~scale:"ci" [ sample_row ~alloc:100. () ] in
  let fat = B.make_doc ~scale:"ci" [ sample_row ~alloc:130. () ] in
  Alcotest.(check bool) "alloc regression caught" true
    (List.exists
       (function
         | B.Regression { metric = "alloc_bytes_per_op"; _ } -> true
         | _ -> false)
       (B.diff ~threshold:10. base fat));
  Alcotest.(check int) "small alloc drift tolerated" 0
    (List.length
       (B.diff ~threshold:10. base
          (B.make_doc ~scale:"ci" [ sample_row ~alloc:105. () ])));
  (* rows without an alloc figure (older baselines) are never gated *)
  Alcotest.(check int) "no baseline alloc, no gate" 0
    (List.length
       (B.diff ~threshold:10.
          (B.make_doc ~scale:"ci" [ sample_row () ])
          fat))

let test_bench_diff_gate () =
  let base =
    B.make_doc ~scale:"ci" [ sample_row (); sample_row ~figure:"fig9" () ]
  in
  (* identical: clean *)
  Alcotest.(check int) "self diff clean" 0 (List.length (B.diff base base));
  (* small drift within the threshold: clean *)
  let drift =
    B.make_doc ~scale:"ci" [ sample_row ~mops:1.0 (); sample_row ~figure:"fig9" () ]
  in
  Alcotest.(check int) "20% drift tolerated at 50%" 0
    (List.length (B.diff ~threshold:50. base drift));
  (* injected throughput collapse: caught *)
  let collapsed =
    B.make_doc ~scale:"ci" [ sample_row ~mops:0.2 (); sample_row ~figure:"fig9" () ]
  in
  let issues = B.diff ~threshold:50. base collapsed in
  Alcotest.(check bool) "mops regression caught" true
    (List.exists
       (function B.Regression { metric = "mops"; _ } -> true | _ -> false)
       issues);
  (* latency and space growth *)
  let slower =
    B.make_doc ~scale:"ci"
      [ sample_row ~p99:200. ~space:400. (); sample_row ~figure:"fig9" () ]
  in
  let issues = B.diff ~threshold:50. ~lat_threshold:50. base slower in
  Alcotest.(check bool) "p99 regression caught when gated" true
    (List.exists
       (function B.Regression { metric = "p99_us"; _ } -> true | _ -> false)
       issues);
  Alcotest.(check bool) "space regression caught" true
    (List.exists
       (function B.Regression { metric = "space_bytes"; _ } -> true | _ -> false)
       issues);
  (* latency is informational by default: only the space issue remains *)
  Alcotest.(check bool) "p99 not gated by default" false
    (List.exists
       (function B.Regression { metric = "p99_us"; _ } -> true | _ -> false)
       (B.diff ~threshold:50. base slower));
  (* a vanished row: caught *)
  let missing = B.make_doc ~scale:"ci" [ sample_row () ] in
  Alcotest.(check bool) "missing row caught" true
    (List.exists
       (function B.Missing_row { figure = "fig9"; _ } -> true | _ -> false)
       (B.diff base missing));
  (* census violations fail at any threshold *)
  let broken =
    B.make_doc ~scale:"ci"
      [ sample_row ~violations:2 (); sample_row ~figure:"fig9" () ]
  in
  Alcotest.(check bool) "violations caught" true
    (List.exists
       (function B.Violations { count = 2; _ } -> true | _ -> false)
       (B.diff ~threshold:1000. base broken));
  (* every issue renders *)
  List.iter
    (fun i ->
      Alcotest.(check bool) "describe" true (String.length (B.describe_issue i) > 0))
    (B.diff ~threshold:50. base slower)

(* The committed baseline, when reachable from the test's cwd, must
   parse and carry the gate's sections — this keeps BENCH_PR7.json
   honest as the schema evolves. *)
let test_committed_baseline () =
  let candidates = [ "BENCH_PR7.json"; "../../../BENCH_PR7.json" ] in
  match List.find_opt Sys.file_exists candidates with
  | None -> ()
  | Some path -> (
      match B.read_file path with
      | Error e -> Alcotest.failf "committed baseline does not parse: %s" e
      | Ok d ->
          Alcotest.(check bool) "baseline has rows" true
            (List.length d.B.d_rows > 0);
          List.iter
            (fun fig ->
              Alcotest.(check bool) (fig ^ " present") true
                (List.exists (fun r -> r.B.r_figure = fig) d.B.d_rows))
            [ "fig8a"; "fig9"; "fig12"; "extra_skiplist" ])

(* --- Prometheus exposition ------------------------------------------------ *)

module OR = Harness.Obs_report

let test_prometheus_roundtrip () =
  Verlib.reset ();
  (* put something in a histogram and a counter so the exposition has
     non-trivial bucket series to validate *)
  let sp = Verlib.Obs.Span.start ~begin_ticks:0 ~cmd:"X" in
  Verlib.Obs.Span.in_phase Verlib.Obs.Span.Op (fun () -> ());
  Verlib.Obs.Span.finish sp ~outcome:"ok";
  let text = OR.prometheus ~extra:[ ("test_extra_gauge", 42) ] () in
  match OR.parse_prometheus text with
  | Error e -> Alcotest.fail ("own exposition rejected: " ^ e)
  | Ok samples ->
      Alcotest.(check bool) "samples present" true (List.length samples > 0);
      Alcotest.(check (option (float 0.001)))
        "extra gauge surfaces, prefixed" (Some 42.)
        (OR.prom_find samples "verlib_test_extra_gauge");
      (* the span total histogram converted to µs with its _us rename *)
      Alcotest.(check bool) "span hist count" true
        (match OR.prom_find samples "verlib_span_total_us_count" with
         | Some c -> c >= 1.
         | None -> false)

let test_prometheus_rejects_malformed () =
  List.iter
    (fun bad ->
      match OR.parse_prometheus bad with
      | Ok _ -> Alcotest.failf "accepted malformed exposition %S" bad
      | Error _ -> ())
    [
      "metric_without_value\n";
      "bad name 1 2 3\n";
      "{label=\"only\"} 1\n";
      "m{unclosed=\"v\" 1\n";
      "m NaNope\n";
      (* NaN is a syntactically valid float, semantically meaningless *)
      "m NaN\n";
      "m nan\n";
      (* a counter may never go negative; the TYPE header arms the check *)
      "# TYPE m counter\nm -3\n";
      (* histogram with decreasing cumulative buckets *)
      "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
       h_sum 1\nh_count 5\n";
      (* count disagrees with the +Inf bucket *)
      "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n";
    ]

(* Label values carry the three exposition escapes (backslash,
   double-quote, newline); a decoder that mishandles any of them either
   errors on the closing quote or corrupts the value. *)
let test_prometheus_label_escapes () =
  let text = "m{path=\"a\\\\b\",msg=\"say \\\"hi\\\"\",nl=\"x\\ny\"} 7\n" in
  match OR.parse_prometheus text with
  | Error e -> Alcotest.fail ("escaped labels rejected: " ^ e)
  | Ok [ s ] ->
      Alcotest.(check string) "name" "m" s.OR.m_name;
      Alcotest.(check (float 0.001)) "value" 7. s.OR.m_value;
      Alcotest.(check (option string)) "backslash" (Some "a\\b")
        (List.assoc_opt "path" s.OR.m_labels);
      Alcotest.(check (option string)) "quote" (Some "say \"hi\"")
        (List.assoc_opt "msg" s.OR.m_labels);
      Alcotest.(check (option string)) "newline" (Some "x\ny")
        (List.assoc_opt "nl" s.OR.m_labels)
  | Ok l -> Alcotest.failf "expected 1 sample, got %d" (List.length l)

(* Edge cases that MUST parse: a histogram that never observed
   anything (all-zero buckets), and a negative value on a metric not
   declared as a counter (gauges go negative legitimately). *)
let test_prometheus_accepts_edge_cases () =
  List.iter
    (fun good ->
      match OR.parse_prometheus good with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "rejected valid exposition %S: %s" good e)
    [
      "h_bucket{le=\"1\"} 0\nh_bucket{le=\"+Inf\"} 0\nh_sum 0\nh_count 0\n";
      "# TYPE g gauge\ng -42\n";
      "delta -1.5\n";
    ]

(* --- flight recorder ------------------------------------------------------ *)

module F = Harness.Flight

let tmpdir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "flight_test_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  d

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let test_flight_deadline_dump () =
  Verlib.reset ();
  (* retire one span so the dump carries it *)
  let sp = Verlib.Obs.Span.start ~begin_ticks:0 ~cmd:"GET" in
  Verlib.Obs.Span.in_phase Verlib.Obs.Span.Op (fun () ->
      let t0 = Verlib.Hwclock.now () in
      while Verlib.Hwclock.to_us (Verlib.Hwclock.now () - t0) < 100. do () done);
  Verlib.Obs.Span.finish sp ~outcome:"ok";
  let t = F.create ~min_interval:0. ~dir:(tmpdir ()) () in
  match
    F.record t ~trigger:F.Deadline_kill
      ~stats:(fun () -> "{\"queue_depth\":3}")
  with
  | None -> Alcotest.fail "deadline-kill dump suppressed"
  | Some path ->
      Alcotest.(check int) "dump counted" 1 (F.dump_count t);
      Alcotest.(check (option string)) "last path" (Some path) (F.last_path t);
      Alcotest.(check bool) "named after trigger" true
        (let b = Filename.basename path in
         let prefix = "flight-" and suffix = "-deadline-kill.json" in
         String.length b > String.length prefix + String.length suffix
         && String.sub b 0 (String.length prefix) = prefix
         && String.sub b
              (String.length b - String.length suffix)
              (String.length suffix)
            = suffix);
      let j =
        match Harness.Jsonlite.parse_result (read_file path) with
        | Ok j -> j
        | Error e -> Alcotest.fail ("dump not valid JSON: " ^ e)
      in
      let str k =
        Option.bind (Harness.Jsonlite.member k j) Harness.Jsonlite.to_string
      in
      Alcotest.(check (option string)) "trigger recorded"
        (Some "deadline-kill") (str "trigger");
      Alcotest.(check (option (float 0.))) "stats embedded" (Some 3.)
        (Option.bind
           (Option.bind (Harness.Jsonlite.member "stats" j)
              (Harness.Jsonlite.member "queue_depth"))
           Harness.Jsonlite.to_number);
      Alcotest.(check bool) "spans included" true
        (match Harness.Jsonlite.member "spans" j with
         | Some (Harness.Jsonlite.Arr (_ :: _)) -> true
         | _ -> false);
      Alcotest.(check bool) "profile section included" true
        (match Harness.Jsonlite.member "profile" j with
         | Some (Harness.Jsonlite.Obj _) -> true
         | _ -> false);
      (* the only retained span is all [op], so it dominates *)
      Alcotest.(check (option string)) "dominant phase" (Some "op")
        (str "dominant_phase")

let test_flight_census_violation () =
  Verlib.reset ();
  let c = Verlib.Chainscan.census_of_iter (fun _emit -> ()) in
  let t = F.create ~min_interval:0. ~dir:(tmpdir ()) () in
  let stats () =
    Printf.sprintf "{\"census\":%s}" (Harness.Obs_report.json_of_census c)
  in
  match F.record t ~trigger:F.Census_violation ~stats with
  | None -> Alcotest.fail "census-violation dump suppressed"
  | Some path ->
      let j =
        match Harness.Jsonlite.parse_result (read_file path) with
        | Ok j -> j
        | Error e -> Alcotest.fail ("dump not valid JSON: " ^ e)
      in
      Alcotest.(check (option string)) "trigger"
        (Some "census-violation")
        (Option.bind (Harness.Jsonlite.member "trigger" j)
           Harness.Jsonlite.to_string);
      Alcotest.(check bool) "census in the stats object" true
        (Option.bind (Harness.Jsonlite.member "stats" j)
           (Harness.Jsonlite.member "census")
        <> None)

let test_flight_cooldown_and_cap () =
  Verlib.reset ();
  let empty () = "{}" in
  let t = F.create ~min_interval:3600. ~max_dumps:16 ~dir:(tmpdir ()) () in
  Alcotest.(check bool) "first fires" true
    (F.record t ~trigger:F.Hard_shed ~stats:empty <> None);
  Alcotest.(check bool) "second suppressed by cooldown" true
    (F.record t ~trigger:F.Hard_shed ~stats:empty = None);
  Alcotest.(check int) "suppression counted" 1 (F.suppressed_count t);
  let t2 = F.create ~min_interval:0. ~max_dumps:2 ~dir:(tmpdir ()) () in
  let p1 = F.record t2 ~trigger:F.Hard_shed ~stats:empty in
  let p2 = F.record t2 ~trigger:F.Hard_shed ~stats:empty in
  Alcotest.(check bool) "cap suppresses" true
    (F.record t2 ~trigger:F.Hard_shed ~stats:empty = None);
  Alcotest.(check int) "capped at max_dumps" 2 (F.dump_count t2);
  (* filenames carry the monotonic dump sequence, so two dumps in the
     same millisecond cannot overwrite each other *)
  let seq_suffix n p =
    match p with
    | None -> false
    | Some p ->
        let b = Filename.basename p in
        let suffix = Printf.sprintf "-%d-hard-shed.json" n in
        String.length b >= String.length suffix
        && String.sub b
             (String.length b - String.length suffix)
             (String.length suffix)
           = suffix
  in
  Alcotest.(check bool) "first dump is seq 1" true (seq_suffix 1 p1);
  Alcotest.(check bool) "second dump is seq 2" true (seq_suffix 2 p2)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "harness"
    [
      ( "registry",
        [ case "complete" test_registry_complete; case "unknown" test_registry_unknown ] );
      ( "driver",
        [
          case "end-to-end all structures" test_driver_end_to_end;
          case "group split" test_driver_group_split;
          case "repeats averaged" test_driver_repeats_average;
        ] );
      ( "table",
        [ case "alignment" test_table_alignment; case "mops format" test_mops_formatting ] );
      ("space", [ case "accounting" test_space_accounting ]);
      ( "bench-json",
        [
          case "round trip" test_bench_json_roundtrip;
          case "reads rows with dropped keys" test_bench_json_reads_dropped_keys;
          case "gc columns" test_bench_json_gc_columns;
          case "regression gate" test_bench_diff_gate;
          case "committed baseline" test_committed_baseline;
        ] );
      ( "prometheus",
        [
          case "render/parse round trip" test_prometheus_roundtrip;
          case "rejects malformed" test_prometheus_rejects_malformed;
          case "label escapes" test_prometheus_label_escapes;
          case "accepts edge cases" test_prometheus_accepts_edge_cases;
        ] );
      ( "flight",
        [
          case "deadline-kill dump" test_flight_deadline_dump;
          case "census-violation dump" test_flight_census_violation;
          case "cooldown and cap" test_flight_cooldown_and_cap;
        ] );
    ]
