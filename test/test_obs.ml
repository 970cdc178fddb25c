(* Tests for the observability layer (verlib-obs): per-domain sharded
   histograms, multi-domain counter aggregation, trace-ring semantics,
   Chrome trace-event export (golden validation via the Jsonlite
   parser), and the driver's structured obs report. *)

module V = Verlib
module T = Flock.Telemetry
module J = Harness.Jsonlite

(* --- histogram bucketing ---------------------------------------------- *)

let test_bucket_of () =
  let cases =
    [ (min_int, 0); (-1, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3);
      (8, 4); (1023, 10); (1024, 11); (max_int, 62) ]
  in
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b (T.Hist.bucket_of v))
    cases;
  (* bucket bounds are inclusive upper bounds: every value maps to a
     bucket whose bound is >= the value *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "bound covers %d" v)
        true
        (T.Hist.bucket_bound (T.Hist.bucket_of v) >= v))
    [ 0; 1; 2; 3; 5; 100; 4096; 123_456_789 ]

let test_hist_single_domain () =
  let h = T.Hist.make "test_hist_single" in
  List.iter (T.Hist.observe h) [ 1; 2; 3; 100; 1000 ];
  let s = T.Hist.summary h in
  Alcotest.(check int) "count" 5 s.T.Hist.s_count;
  Alcotest.(check int) "sum" 1106 s.T.Hist.s_sum;
  Alcotest.(check int) "max" 1000 s.T.Hist.s_max;
  Alcotest.(check (float 0.001)) "mean" 221.2 (T.Hist.mean s);
  Alcotest.(check bool) "p50 covers median" true (s.T.Hist.s_p50 >= 3);
  Alcotest.(check bool) "p50 below max" true (s.T.Hist.s_p50 < 1000)

(* Multi-domain aggregation must be exact after joining: each of 4
   domains hammers its own shard with a distinct power of two, so every
   per-bucket sum, the count and the arithmetic sum are all checkable
   exactly. *)
let test_hist_multi_domain () =
  let h = T.Hist.make "test_hist_md" in
  let per_domain = 10_000 in
  let domains =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            let v = 1 lsl i in
            for _ = 1 to per_domain do
              T.Hist.observe h v
            done))
  in
  List.iter Domain.join domains;
  let s = T.Hist.summary h in
  Alcotest.(check int) "count" (4 * per_domain) s.T.Hist.s_count;
  Alcotest.(check int) "sum" (per_domain * (1 + 2 + 4 + 8)) s.T.Hist.s_sum;
  Alcotest.(check int) "max" 8 s.T.Hist.s_max;
  let buckets = T.Hist.buckets h in
  (* values 1,2,4,8 have 1,2,3,4 significant bits *)
  List.iter
    (fun b -> Alcotest.(check int) (Printf.sprintf "bucket %d" b) per_domain buckets.(b))
    [ 1; 2; 3; 4 ];
  Alcotest.(check int) "bucket 0 empty" 0 buckets.(0);
  Alcotest.(check int) "bucket 5 empty" 0 buckets.(5);
  (* rank 20_000 of 40_000 falls in the bucket of value 2 (bound 3) *)
  Alcotest.(check int) "p50 bound" 3 s.T.Hist.s_p50

let test_counter_multi_domain () =
  let c = V.Stats.make "test_ctr_md" in
  let per_domain = 25_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              V.Stats.incr c
            done;
            V.Stats.add c 5))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "exact total" ((4 * per_domain) + 20) (V.Stats.total c)

let test_reset_all () =
  let h = T.Hist.make "test_hist_reset" in
  T.Hist.observe h 42;
  V.Obs.set_tracing true;
  V.Obs.emit V.Obs.ev_shortcut 1;
  V.Obs.set_tracing false;
  Alcotest.(check bool) "hist populated" true ((T.Hist.summary h).T.Hist.s_count > 0);
  let my_slot = Flock.Registry.my_id () in
  Alcotest.(check bool) "ring populated" true (T.events_of_slot my_slot <> []);
  V.Stats.reset_all ();
  Alcotest.(check int) "hist cleared" 0 (T.Hist.summary h).T.Hist.s_count;
  Alcotest.(check (list (triple int int int))) "ring cleared" []
    (T.events_of_slot my_slot);
  Alcotest.(check int) "counters cleared" 0 (V.Stats.total V.Stats.snapshots)

(* --- trace export ------------------------------------------------------ *)

(* Parse an exported trace and validate the Chrome trace-event contract:
   a traceEvents array, required fields per event, per-domain timestamps
   non-decreasing, and B/E spans balanced per domain.  Returns the
   number of non-metadata events. *)
let validate_trace path =
  let j =
    match J.parse_file path with
    | Ok j -> j
    | Error m -> Alcotest.failf "trace does not parse: %s" m
  in
  let events =
    match Option.bind (J.member "traceEvents" j) J.to_list with
    | Some l -> l
    | None -> Alcotest.fail "missing traceEvents array"
  in
  let last_ts = Hashtbl.create 8 in
  let depth = Hashtbl.create 8 in
  let checked = ref 0 in
  List.iter
    (fun ev ->
      let field name =
        match J.member name ev with
        | Some v -> v
        | None -> Alcotest.failf "event missing %S" name
      in
      let str name =
        match J.to_string (field name) with
        | Some s -> s
        | None -> Alcotest.failf "event field %S not a string" name
      in
      let num name =
        match J.to_number (field name) with
        | Some f -> f
        | None -> Alcotest.failf "event field %S not a number" name
      in
      let _ : string = str "name" in
      let ph = str "ph" in
      let _ : float = num "pid" in
      let tid = int_of_float (num "tid") in
      if ph <> "M" then begin
        incr checked;
        let ts = num "ts" in
        Alcotest.(check bool) "ts non-negative" true (ts >= 0.);
        (match Hashtbl.find_opt last_ts tid with
         | Some prev ->
             if ts < prev then
               Alcotest.failf "tid %d time went backwards: %f < %f" tid ts prev
         | None -> ());
        Hashtbl.replace last_ts tid ts;
        let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
        match ph with
        | "B" -> Hashtbl.replace depth tid (d + 1)
        | "E" ->
            if d <= 0 then Alcotest.failf "tid %d: E without matching B" tid;
            Hashtbl.replace depth tid (d - 1)
        | "i" -> ()
        | other -> Alcotest.failf "unexpected phase %S" other
      end)
    events;
  Hashtbl.iter
    (fun tid d ->
      if d <> 0 then Alcotest.failf "tid %d: %d unclosed span(s)" tid d)
    depth;
  !checked

(* Synthetic multi-domain streams, including the two pathologies the
   exporter must repair: a stray end (begin lost to ring wrap) and an
   unclosed begin (end never emitted). *)
let test_trace_golden () =
  V.Stats.reset_all ();
  V.Obs.set_tracing true;
  let emit_stream kind () =
    match kind with
    | `Clean ->
        V.Obs.emit V.Obs.ev_snap_begin 0;
        V.Obs.emit V.Obs.ev_shortcut 3;
        V.Obs.emit V.Obs.ev_snap_end 0;
        V.Obs.emit V.Obs.ev_truncate 7
    | `Stray_end ->
        V.Obs.emit V.Obs.ev_snap_end 0;
        V.Obs.emit V.Obs.ev_indirect_create 0
    | `Unclosed ->
        V.Obs.emit V.Obs.ev_snap_begin 0;
        V.Obs.emit V.Obs.ev_stamp_incr 9
  in
  emit_stream `Clean ();
  let domains =
    List.map (fun k -> Domain.spawn (emit_stream k)) [ `Clean; `Stray_end; `Unclosed ]
  in
  List.iter Domain.join domains;
  V.Obs.set_tracing false;
  let path = Filename.temp_file "verlib_golden" ".json" in
  let streams = V.Obs.export_trace path in
  Alcotest.(check bool) "has streams" true (streams >= 2);
  let n = validate_trace path in
  Alcotest.(check bool) "has events" true (n >= 8);
  Sys.remove path

(* A real traced workload end to end: snapshots, updates, shortcuts. *)
let test_trace_real_run () =
  let spec =
    {
      (Harness.Driver.default_spec (module Dstruct.Btree)) with
      Harness.Driver.n = 300;
      duration = 0.05;
      groups =
        [
          {
            Harness.Driver.g_count = 2;
            g_update_percent = 50;
            g_query = Workload.Opgen.Multifinds 4;
          };
        ];
    }
  in
  V.Obs.set_tracing true;
  let (_ : Harness.Driver.result) = Harness.Driver.run spec in
  V.Obs.set_tracing false;
  let path = Filename.temp_file "verlib_trace_run" ".json" in
  let (_ : int) = V.Obs.export_trace path in
  let n = validate_trace path in
  Alcotest.(check bool) "traced a real run" true (n > 0);
  Sys.remove path

(* --- driver obs report / stats JSON ------------------------------------ *)

let smoke_spec () =
  {
    (Harness.Driver.default_spec (module Dstruct.Btree)) with
    Harness.Driver.n = 300;
    duration = 0.05;
    lat_sample = 4;
    groups =
      [
        {
          Harness.Driver.g_count = 2;
          g_update_percent = 50;
          g_query = Workload.Opgen.Finds;
        };
      ];
    census = true;
  }

let require_stats_shape j =
  let counters =
    match J.member "counters" j with
    | Some (J.Obj kvs) -> kvs
    | _ -> Alcotest.fail "missing counters object"
  in
  Alcotest.(check bool) "has snapshots counter" true
    (List.mem_assoc "snapshots" counters);
  let hists =
    match J.member "histograms" j with
    | Some (J.Obj kvs) -> kvs
    | _ -> Alcotest.fail "missing histograms object"
  in
  (* per-op-kind latency histograms with p50/p99 present *)
  List.iter
    (fun name ->
      match List.assoc_opt name hists with
      | None -> Alcotest.failf "missing histogram %s" name
      | Some h ->
          List.iter
            (fun k ->
              match Option.bind (J.member k h) J.to_number with
              | Some _ -> ()
              | None -> Alcotest.failf "%s missing numeric %s" name k)
            [ "count"; "p50"; "p99"; "max"; "p50_us"; "p99_us" ])
    [
      "lat_find_cycles"; "lat_insert_cycles"; "lat_delete_cycles";
      "lat_range_cycles"; "lat_multifind_cycles";
    ];
  (* the epoch/stamp gauges registered at module init *)
  let gauges =
    match J.member "gauges" j with
    | Some (J.Obj kvs) -> kvs
    | _ -> Alcotest.fail "missing gauges object"
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " gauge present") true
        (List.mem_assoc name gauges))
    [ "epoch_lag"; "stamp_lag" ]

(* `make obs-smoke` runs verlib_run with --census, so the exported stats
   must carry a census block — and the run being quiescent at capture,
   the audit must be clean. *)
let require_census_shape j =
  let census =
    match J.member "census" j with
    | Some c -> c
    | None -> Alcotest.fail "stats JSON missing census block"
  in
  List.iter
    (fun k ->
      match Option.bind (J.member k census) J.to_number with
      | Some _ -> ()
      | None -> Alcotest.failf "census missing numeric %s" k)
    [
      "pointers"; "versions"; "live_versions"; "reclaimable";
      "indirect_links"; "shortcut_ratio"; "chain_p99"; "chain_max";
      "violations";
    ];
  (match Option.bind (J.member "violations" census) J.to_number with
   | Some v -> Alcotest.(check (float 0.)) "census violations" 0. v
   | None -> ());
  (match J.member "census_series" j with
   | Some (J.Arr _) -> ()
   | _ -> Alcotest.fail "missing census_series array");
  match Option.bind (J.member "space" j) (J.member "bytes_per_entry") with
  | Some _ -> ()
  | None -> Alcotest.fail "missing space.bytes_per_entry"

let test_driver_report () =
  let r = Harness.Driver.run (smoke_spec ()) in
  let sampled =
    List.fold_left
      (fun acc (s : T.Hist.summary) ->
        let is_lat =
          match s.T.Hist.s_name with
          | "lat_find_cycles" | "lat_insert_cycles" | "lat_delete_cycles"
          | "lat_range_cycles" | "lat_multifind_cycles" ->
              true
          | _ -> false
        in
        if is_lat then acc + s.T.Hist.s_count else acc)
      0 r.Harness.Driver.obs.V.Obs.hists
  in
  Alcotest.(check bool) "sampled some latencies" true (sampled > 0);
  Alcotest.(check bool) "captured counters" true
    (List.mem_assoc "snapshots" r.Harness.Driver.obs.V.Obs.counters);
  (* quiescent census: present (smoke_spec sets census), non-empty, and
     with a clean audit *)
  (match r.Harness.Driver.census with
   | None -> Alcotest.fail "driver did not take the final census"
   | Some c ->
       Alcotest.(check bool) "census saw versions" true
         (c.V.Chainscan.c_versions > 0);
       Alcotest.(check int) "census violations" 0 c.V.Chainscan.c_violation_count);
  Alcotest.(check bool) "space measured" true
    (r.Harness.Driver.space_bytes_per_entry > 0.);
  (* the JSON rendering of the report round-trips through the parser *)
  let json = Harness.Obs_report.to_json ~extra:[ ("total_mops", "0.5") ]
      r.Harness.Driver.obs
  in
  (match J.parse_result json with
   | Error m -> Alcotest.failf "report JSON does not parse: %s" m
   | Ok j -> require_stats_shape j);
  (* the pretty renderer must not raise *)
  let devnull = open_out (if Sys.win32 then "NUL" else "/dev/null") in
  Harness.Obs_report.pretty_print ~out:devnull r.Harness.Driver.obs;
  close_out devnull

(* `make obs-smoke` runs verlib_run with --stats=json --trace and points
   these env vars at the artefacts; without them the test validates
   freshly generated equivalents, so `dune runtest` exercises the same
   export paths. *)
let test_smoke_artefacts () =
  (match Sys.getenv_opt "OBS_SMOKE_STATS" with
   | Some path -> (
       match J.parse_file path with
       | Error m -> Alcotest.failf "stats JSON (%s) does not parse: %s" path m
       | Ok j ->
           require_stats_shape j;
           require_census_shape j)
   | None ->
       let r = Harness.Driver.run (smoke_spec ()) in
       match J.parse_result (Harness.Obs_report.to_json r.Harness.Driver.obs) with
       | Error m -> Alcotest.failf "stats JSON does not parse: %s" m
       | Ok j -> require_stats_shape j);
  match Sys.getenv_opt "OBS_SMOKE_TRACE" with
  | Some path ->
      let n = validate_trace path in
      Alcotest.(check bool) "trace has events" true (n > 0)
  | None ->
      V.Obs.set_tracing true;
      V.Obs.emit V.Obs.ev_snap_begin 0;
      V.Obs.emit V.Obs.ev_snap_end 0;
      V.Obs.set_tracing false;
      let path = Filename.temp_file "verlib_smoke" ".json" in
      let (_ : int) = V.Obs.export_trace path in
      let n = validate_trace path in
      Alcotest.(check bool) "trace has events" true (n > 0);
      Sys.remove path

(* --- jsonlite ----------------------------------------------------------- *)

let test_jsonlite () =
  let ok s = match J.parse_result s with Ok v -> v | Error m -> Alcotest.fail m in
  (match ok {|{"a":[1,2.5,-3e2],"b":"x\n\"yA","c":{},"d":[],"e":null,"f":true}|} with
   | J.Obj kvs ->
       Alcotest.(check int) "keys" 6 (List.length kvs);
       (match List.assoc "a" kvs with
        | J.Arr [ J.Num a; J.Num b; J.Num c ] ->
            Alcotest.(check (float 0.0001)) "1" 1. a;
            Alcotest.(check (float 0.0001)) "2.5" 2.5 b;
            Alcotest.(check (float 0.0001)) "-300" (-300.) c
        | _ -> Alcotest.fail "array shape");
       (match List.assoc "b" kvs with
        | J.Str s -> Alcotest.(check string) "escapes" "x\n\"yA" s
        | _ -> Alcotest.fail "string shape")
   | _ -> Alcotest.fail "object shape");
  List.iter
    (fun bad ->
      match J.parse_result bad with
      | Ok _ -> Alcotest.failf "accepted malformed %S" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "nul"; "{} x"; "\"unterminated" ]

(* --- GC gauges ------------------------------------------------------------ *)

(* Two live domains allocate a known amount concurrently.  [Gc.quick_stat]
   is process-wide, so each word must be counted once: the gauge deltas
   equal the [quick_stat] delta read alongside them (while the domains
   are alive), and after the join they equal what the domains
   allocated. *)
let test_gc_gauges_count_once () =
  let per_domain = 3_000_000 in
  let gauges () =
    let g = T.Gauge.capture () in
    (List.assoc "gc_minor_words" g, List.assoc "gc_alloc_bytes" g)
  in
  let stat () =
    let s = Gc.quick_stat () in
    (s.Gc.minor_words, 8. *. (s.Gc.minor_words +. s.Gc.major_words))
  in
  let m0, a0 = gauges () and qm0, qa0 = stat () in
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  let read = Atomic.make false in
  let domains =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr started;
            while Atomic.get started < 2 do
              Domain.cpu_relax ()
            done;
            (* a one-element list is 3 words *)
            for i = 1 to per_domain / 3 do
              ignore (Sys.opaque_identity [ i ])
            done;
            Atomic.incr finished;
            while not (Atomic.get read) do
              Domain.cpu_relax ()
            done))
  in
  while Atomic.get finished < 2 do
    Domain.cpu_relax ()
  done;
  let m1, a1 = gauges () and qm1, qa1 = stat () in
  Atomic.set read true;
  List.iter Domain.join domains;
  let m2, _ = gauges () in
  let within what expect got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.0f within 2%% of %.0f" what got expect)
      true
      (Float.abs (got -. expect) <= 0.02 *. expect)
  in
  within "gc_minor_words vs quick_stat (live)" (qm1 -. qm0)
    (float_of_int (m1 - m0));
  within "gc_alloc_bytes vs quick_stat (live)" (qa1 -. qa0)
    (float_of_int (a1 - a0));
  within "gc_minor_words vs allocated (joined)"
    (float_of_int (2 * per_domain))
    (float_of_int (m2 - m0))

(* --- request spans: exclusive phase accounting -------------------------- *)

module Span = V.Obs.Span

(* Spin for roughly [us] microseconds of attributable work. *)
let spin_us us =
  let t0 = V.Hwclock.now () in
  while V.Hwclock.to_us (V.Hwclock.now () - t0) < us do
    ()
  done

let test_span_exclusive () =
  V.reset ();
  let sp = Span.start ~begin_ticks:0 ~cmd:"TEST" in
  Span.in_phase Span.Parse (fun () -> spin_us 200.);
  (* nested: snapshot inside op must pause op — exclusive accounting *)
  let w0 = V.Hwclock.now () in
  Span.in_phase Span.Op (fun () ->
      spin_us 200.;
      Span.in_phase Span.Snapshot (fun () -> spin_us 400.);
      spin_us 200.);
  let window = V.Hwclock.now () - w0 in
  Span.finish sp ~outcome:"ok";
  let t = Span.total_ticks sp in
  let sum =
    List.fold_left (fun acc p -> acc + Span.phase_ticks sp p) 0 Span.phases
  in
  Alcotest.(check bool) "phases sum within total" true (sum <= t);
  let us p = V.Hwclock.to_us (Span.phase_ticks sp p) in
  Alcotest.(check bool) "parse ~200us" true (us Span.Parse >= 150.);
  Alcotest.(check bool) "op ~400us" true (us Span.Op >= 300.);
  Alcotest.(check bool) "snapshot ~400us" true (us Span.Snapshot >= 300.);
  (* Exclusive: op and the snapshot nested in it share the window timed
     around op, whatever a deschedule adds to it; an op that also
     counted its snapshot would exceed the window by the snapshot's
     ~400 us.  The slack covers the clock reads. *)
  let slack = int_of_float (2. *. V.Hwclock.cycles_per_us ()) in
  let op_snap = Span.phase_ticks sp Span.Op + Span.phase_ticks sp Span.Snapshot in
  if op_snap > window + slack then
    Alcotest.failf "op + snapshot %.0f us exceeds the op window %.0f us"
      (V.Hwclock.to_us op_snap) (V.Hwclock.to_us window);
  Alcotest.(check bool) "outcome" true (sp.Span.sp_outcome = "ok");
  (* the finished span landed in the recent ring *)
  Alcotest.(check bool) "in recent ring" true
    (List.exists (fun s -> s.Span.sp_cmd = "TEST") (Span.recent ()))

let test_span_backdate_and_add () =
  V.reset ();
  let t0 = V.Hwclock.now () in
  spin_us 100.;
  let sp = Span.start ~begin_ticks:t0 ~cmd:"BD" in
  (* [start] opened [parse] at [sp_last]: the wait before it is the
     credit, as the server books its queue phase. *)
  Span.add Span.Queue (sp.Span.sp_last - t0);
  Span.finish sp ~outcome:"ok";
  Alcotest.(check bool) "backdated begin" true (sp.Span.sp_begin = t0);
  Alcotest.(check bool) "queue credited" true
    (V.Hwclock.to_us (Span.phase_ticks sp Span.Queue) >= 80.);
  let sum =
    List.fold_left (fun acc p -> acc + Span.phase_ticks sp p) 0 Span.phases
  in
  Alcotest.(check bool) "credited ticks within total" true
    (sum <= Span.total_ticks sp)

(* A deterministic fault plan (a Pause at a named point) must surface as
   the span's dominant phase via the blocking observer the Obs module
   installs — the chaos-attribution contract. *)
let fp_test_stall = Fault.Point.make "test.obs.stall"

let test_span_stall_attribution () =
  V.reset ();
  Fault.arm (Fault.plan [ { Fault.r_point = "test.obs.stall";
                            r_trigger = Fault.Always;
                            r_action = Fault.Pause 0.03 } ]);
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let sp = Span.start ~begin_ticks:0 ~cmd:"STALL" in
  Span.in_phase Span.Op (fun () ->
      spin_us 100.;
      Fault.hit fp_test_stall);
  Span.finish sp ~outcome:"ok";
  let stall = Span.phase_ticks sp Span.Stall in
  Alcotest.(check bool) "stall booked" true (V.Hwclock.to_us stall >= 10_000.);
  let dominant =
    List.fold_left
      (fun best p ->
        match best with
        | Some b when Span.phase_ticks sp b >= Span.phase_ticks sp p -> best
        | _ -> Some p)
      None Span.phases
  in
  Alcotest.(check bool) "stall dominates" true (dominant = Some Span.Stall);
  (* exclusive: the pause inside [op] was subtracted from it *)
  Alcotest.(check bool) "op excludes the stall" true
    (V.Hwclock.to_us (Span.phase_ticks sp Span.Op) < 10_000.)

(* A writer domain finishes spans whose credited phases and trace id
   are a function of their command while this domain reads the rings:
   every span [recent] returns must be one the writer finished, whole —
   never a ring entry caught while the next span was copied over it. *)
let test_span_ring_never_torn () =
  V.reset ();
  let cmds = [| "EVEN"; "ODD" |] in
  let credited =
    [ Span.Queue; Span.Route; Span.Snapshot; Span.Op; Span.Validate;
      Span.Install ]
  in
  let credit k p = (k + 1) * (Span.phase_index p + 1) in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          let k = !n land 1 in
          let sp =
            Span.start ~begin_ticks:(max 1 (V.Hwclock.now () - 10_000))
              ~cmd:cmds.(k)
          in
          Span.set_trace_id sp (k + 1);
          List.iter (fun p -> Span.add_to sp p (credit k p)) credited;
          Span.finish sp ~outcome:"ok";
          incr n
        done;
        !n)
  in
  let seen = ref 0 and torn = ref [] in
  let deadline = Unix.gettimeofday () +. 0.3 in
  while Unix.gettimeofday () < deadline do
    List.iter
      (fun sp ->
        incr seen;
        let sum =
          List.fold_left (fun acc p -> acc + Span.phase_ticks sp p) 0 Span.phases
        in
        let whole =
          match sp.Span.sp_cmd with
          | ("EVEN" | "ODD") as cmd ->
              let k = if cmd = "EVEN" then 0 else 1 in
              sp.Span.sp_trace_id = k + 1
              && List.for_all (fun p -> Span.phase_ticks sp p = credit k p) credited
              && sum <= Span.total_ticks sp
          | _ -> false
        in
        if not whole then torn := sp.Span.sp_cmd :: !torn)
      (Span.recent ())
  done;
  Atomic.set stop true;
  let finished = Domain.join writer in
  Alcotest.(check bool) "writer finished spans" true (finished > 0);
  Alcotest.(check bool) "reader saw spans" true (!seen > 0);
  Alcotest.(check (list string)) "no torn span" [] !torn

let test_span_export_trace () =
  V.reset ();
  let sp = Span.start ~begin_ticks:0 ~cmd:"GET" in
  Span.set_trace_id sp 77;
  Span.in_phase Span.Op (fun () -> spin_us 100.);
  Span.finish sp ~outcome:"ok";
  let path = Filename.temp_file "span_trace" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  let tracks = V.Obs.export_trace path in
  Alcotest.(check bool) "at least the span track" true (tracks >= 1);
  let ic = open_in path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse_result raw with
  | Error e -> Alcotest.fail ("trace not valid JSON: " ^ e)
  | Ok j ->
      let events =
        match J.member "traceEvents" j with
        | Some (J.Arr evs) -> evs
        | _ -> Alcotest.fail "no traceEvents"
      in
      let is_span_event ev =
        match (J.member "ph" ev, J.member "name" ev) with
        | Some (J.Str "X"), Some (J.Str "GET") -> true
        | _ -> false
      in
      Alcotest.(check bool) "span exported as X event" true
        (List.exists is_span_event events)

(* --- sampling profiler ---------------------------------------------------- *)

module Pr = Verlib.Obs.Profile
module Act = Flock.Telemetry.Activity

(* Publish a synthetic activity frame, sample it at a high rate, and
   check every export surface: accumulated stacks, per-slot activity,
   collapsed-stack file, JSON snapshot. *)
let test_profile_end_to_end () =
  Verlib.reset ();
  Pr.reset ();
  Pr.start ~hz:500 ();
  Alcotest.(check bool) "running" true (Pr.running ());
  Alcotest.(check int) "hz" 500 (Pr.hz ());
  let op = Act.intern "TESTOP" and site = Act.intern "test.site" in
  Act.set Act.dim_op op;
  Act.set Act.dim_lock_hold site;
  (* wait until the sampler has attributed at least one sample to us,
     bounded so a wedged sampler fails rather than hangs *)
  let deadline = Unix.gettimeofday () +. 5. in
  while Pr.samples_total () = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Act.clear_my_slot ();
  Pr.stop ();
  Alcotest.(check bool) "stopped" false (Pr.running ());
  Alcotest.(check bool) "samples accumulated" true (Pr.samples_total () > 0);
  let has_frame s frame =
    let n = String.length frame in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = frame || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "stack carries the op and the held site" true
    (List.exists
       (fun (s, c) -> c > 0 && has_frame s "TESTOP" && has_frame s "test.site")
       (Pr.stacks ()));
  (* collapsed-stack export: one "stack count" line per entry *)
  let path = Filename.temp_file "profile" ".collapsed" in
  Pr.write_collapsed path;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Alcotest.(check bool) "collapsed non-empty" true (List.length !lines > 0);
  List.iter
    (fun l ->
      match String.rindex_opt l ' ' with
      | None -> Alcotest.failf "collapsed line without count: %s" l
      | Some i -> (
          match
            int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
          with
          | Some n when n > 0 -> ()
          | _ -> Alcotest.failf "bad collapsed count: %s" l))
    !lines;
  Sys.remove path;
  (* the JSON snapshot parses and carries every section *)
  let j =
    match Harness.Jsonlite.parse_result (Pr.json ()) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("PROFILE json rejected: " ^ e)
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true
        (Harness.Jsonlite.member k j <> None))
    [ "clock_source"; "running"; "hz"; "samples"; "stacks"; "activity";
      "lock_sites"; "gc" ];
  Pr.reset ();
  Alcotest.(check int) "reset clears" 0 (Pr.samples_total ())

(* A contended instrumented lock surfaces at its site in the
   contention table, with wait time and the waits-on edge map.  A
   blocking-mode lock: lock-free mode can resolve contention by helping
   (no failed try_lock), which keeps the contended column legitimately
   at zero.  Contention is staged deterministically — a holder parks
   inside its critical section (sleeping, so this works on one CPU)
   while waiters bang on the lock — because a pure throughput race can
   legitimately serialise on a single-core box. *)
let test_lock_site_contention () =
  Verlib.reset ();
  Flock.Lock.reset_sites ();
  let lk = Flock.Lock.create ~mode:Flock.Lock.Blocking ~site:"unit.lock" () in
  let held = Atomic.make false in
  let release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Flock.Lock.with_lock lk (fun () ->
            Atomic.set held true;
            while not (Atomic.get release) do
              Unix.sleepf 0.001
            done))
  in
  while not (Atomic.get held) do
    Unix.sleepf 0.001
  done;
  let waiter () =
    for _ = 1 to 100 do
      Flock.Lock.with_lock lk ignore
    done
  in
  let ws = List.init 2 (fun _ -> Domain.spawn waiter) in
  Unix.sleepf 0.03;
  Atomic.set release true;
  List.iter Domain.join ws;
  Domain.join holder;
  let sm =
    List.find_opt
      (fun s -> s.Flock.Lock.sm_site = "unit.lock")
      (Flock.Lock.site_summaries ())
  in
  match sm with
  | None -> Alcotest.fail "site unit.lock missing from summaries"
  | Some sm ->
      Alcotest.(check int) "every acquire counted" 201
        sm.Flock.Lock.sm_acquires;
      Alcotest.(check bool) "contention observed" true
        (sm.Flock.Lock.sm_contended > 0);
      Alcotest.(check bool) "wait cycles accumulated" true
        (sm.Flock.Lock.sm_wait_cycles > 0);
      Flock.Lock.reset_sites ();
      Alcotest.(check bool) "reset clears the table" true
        (List.for_all
           (fun s -> s.Flock.Lock.sm_acquires = 0)
           (Flock.Lock.site_summaries ()))

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          Alcotest.test_case "bucket_of" `Quick test_bucket_of;
          Alcotest.test_case "single-domain exact" `Quick test_hist_single_domain;
          Alcotest.test_case "multi-domain exact" `Quick test_hist_multi_domain;
        ] );
      ( "counters",
        [
          Alcotest.test_case "multi-domain exact" `Quick test_counter_multi_domain;
          Alcotest.test_case "reset_all clears telemetry" `Quick test_reset_all;
          Alcotest.test_case "gc gauges count each word once" `Quick
            test_gc_gauges_count_once;
        ] );
      ( "trace",
        [
          Alcotest.test_case "golden export validates" `Quick test_trace_golden;
          Alcotest.test_case "real traced run validates" `Quick test_trace_real_run;
        ] );
      ( "jsonlite",
        [ Alcotest.test_case "parse and reject" `Quick test_jsonlite ] );
      ( "span",
        [
          Alcotest.test_case "exclusive accounting" `Quick test_span_exclusive;
          Alcotest.test_case "backdate and credited ticks" `Quick
            test_span_backdate_and_add;
          Alcotest.test_case "stall fault attribution" `Quick
            test_span_stall_attribution;
          Alcotest.test_case "span in chrome export" `Quick
            test_span_export_trace;
          Alcotest.test_case "recent ring never torn" `Quick
            test_span_ring_never_torn;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "driver obs report" `Quick test_driver_report;
          Alcotest.test_case "exported artefacts" `Quick test_smoke_artefacts;
        ] );
      ( "profile",
        [
          Alcotest.test_case "sampler end to end" `Quick
            test_profile_end_to_end;
          Alcotest.test_case "lock-site contention" `Quick
            test_lock_site_contention;
        ] );
    ]
