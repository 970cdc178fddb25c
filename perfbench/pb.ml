(* The served-path benchmark for one workload.

     pb --workload kv-point|kv-scan|txn-feed --seed N --seconds S --trace 0|1
        --serve-exe PATH --out-dir DIR

   --trace 0 measures the end-to-end metrics with tracing off: ten (up
   to fifteen while the host steals CPU) fresh clusters, each set up,
   warmed up for a fixed number of batches, then measured for S/10
   seconds (see [pooled] for how the figures are drawn from them).
   --trace 1 measures the per-layer metrics: one untraced window of S
   seconds, a traced window (census on, one span per request), on
   kv-point and kv-scan a short replica probe, and the in-process layer
   ledger.  Every reply is checked; the last stdout line is one JSON
   object, and any violation exits 1. *)

open Perfbench
module J = Harness.Jsonlite
module P = Server.Protocol
module Rng = Workload.Splitmix

let stall_us = 150_000.

(* Latency samples one lane can keep per second of window: well above
   any rate these workloads reach, yet small enough that the client's
   own GC has little to walk. *)
let samples_per_s = 250_000.

let span_cap = 600_000

(* --- one served run -------------------------------------------------------- *)

type run = {
  win : Served.window;
  writer : Served.lane;
  reader : Served.lane option;
  stats0 : J.t;  (** primary STATS at the window's start *)
  stats1 : J.t;  (** ... and end *)
  census : J.t option;  (** STATS of the server whose census is reported *)
  win_commits : int;  (** state-changing writer requests in the window *)
  catchup_ms : float option;
  rss_mb : float;
}

(* Raised, after the cluster is stopped, by a run whose replies or final
   state contradict the model. *)
exception Violation of string list

let reader_seed seed = seed lxor 0x5bd1e995

let instances = 10

let extend_s = 45.

let instance_seed seed i = (seed * 64) + i

(* Warm up, measure one window, then check the whole state: the
   primary against the writer's model, a replica against the primary
   (after catch-up), pair conservation on txn-feed, and one feed record
   per state-changing request. *)
let drive (w : Suite.t) (cl : Served.cluster) ~reader:reader_spec ~seed ~seconds ~spans =
  let model = Ops.prefilled () in
  let cap = int_of_float (seconds *. samples_per_s) in
  let writer =
    Served.lane ?spans:(Option.map fst spans) ~prefix:"client" cl.cp ~depth:w.depth ~cap:cap
      (w.writer (Rng.create seed) model)
  in
  let reader =
    match (reader_spec, cl.cr) with
    | Some (r : Suite.reader), Some cr ->
        Some
          (Served.lane ?spans:(Option.map snd spans) ~prefix:"replica" cr ~depth:r.r_depth
             ~cap:cap
             (r.r_next (Rng.create (reader_seed seed))))
    | _ -> None
  in
  let stats_setup = Served.json cl.cp P.Stats in
  Served.warm writer w.warmup;
  Option.iter (fun r -> Served.warm r (w.warmup / 4)) reader;
  (* A replica still applying the warm-up's backlog would take CPU from
     the window's first slices. *)
  ignore (Served.catch_up cl ~since:0.);
  let stats0 = Served.json cl.cp P.Stats in
  let commits0 = writer.commits in
  let every = match reader_spec with Some (r : Suite.reader) -> r.r_every | None -> 1 in
  let win = Served.window cl ~writer ~reader ~every ~seconds in
  let stats1 = Served.json cl.cp P.Stats in
  let rss_mb = Served.rss_mb cl in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Option.iter (err "writer: %s") writer.error;
  Option.iter (fun (r : Served.lane) -> Option.iter (err "reader: %s") r.error) reader;
  let catchup_ms = Served.catch_up cl ~since:writer.last_reply in
  let primary = Served.dump cl.cp in
  Option.iter (err "primary state: %s") (Ops.state_diff model primary);
  (match cl.cr with
   | Some cr ->
       let replica = Served.dump cr in
       if replica <> primary then err "replica bindings differ from the primary's";
       if w.replica <> None then begin
         Option.iter (err "primary conservation: %s") (Ops.conservation primary);
         Option.iter (err "replica conservation: %s") (Ops.conservation replica)
       end;
       let resyncs = Served.gauge stats1 "repl_resyncs" in
       if resyncs <> 0. then err "repl_resyncs = %.0f" resyncs
   | None -> ());
  let records = Served.gauge stats1 "repl_records_total" -. Served.gauge stats_setup "repl_records_total" in
  if records <> float_of_int writer.commits then
    err "feed records %.0f <> state-changing requests %d" records writer.commits;
  let census =
    match spans with
    | None -> None
    | Some _ -> Some (Served.json (match cl.cr with Some cr when w.replica <> None -> cr | _ -> cl.cp) P.Stats)
  in
  if !errors <> [] then raise (Violation (List.rev !errors));
  { win; writer; reader; stats0; stats1; census; win_commits = writer.commits - commits0; catchup_ms; rss_mb }

let with_cluster ~threads ~replica ~census f =
  let cl, setup_s = Served.start ~threads ~replica ~census in
  Fun.protect ~finally:(fun () -> Served.stop cl) (fun () -> f cl setup_s)

(* --- metrics ----------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

let ops_per_s r = float_of_int r.writer.reqs /. r.win.elapsed

let cpu_us_per_op r = r.win.server_cpu_s *. 1e6 /. float_of_int (max 1 r.writer.reqs)

let lanes r = r.writer :: Option.to_list r.reader

let attempted r = List.fold_left (fun a (l : Served.lane) -> a + l.sent) 0 (lanes r)

let failed r = List.fold_left (fun a (l : Served.lane) -> a + l.failed) 0 (lanes r)

let stalls r =
  List.fold_left
    (fun a (l : Served.lane) -> a + Stats.count_above (Stats.sorted l.lat) stall_us)
    0 (lanes r)

let pct (l : Served.lane) p = Stats.percentile (Stats.sorted l.lat) p

let end_to_end r ~setup_s =
  let lat = Stats.sorted r.writer.lat in
  [
    m "ops_per_s" (ops_per_s r) "1/s";
    m "p50_us" (Stats.percentile lat 0.5) "us";
    m "p95_us" (Stats.percentile lat 0.95) "us";
    m "cpu_us_per_op" (cpu_us_per_op r) "us";
    m "rss_mb" r.rss_mb "MB";
    m "setup_s" setup_s "s";
  ]

(* Host steal on this kind of shared VM comes in bursts that can halve
   served throughput, and an idle neighbour now and then lets a slice
   run far faster than the rest.  So the end-to-end figures of a run
   are taken from its quiet window slices (host steal at most
   [quiet_steal]), or, when fewer than [min_kept] were quiet, from the
   [min_kept] with the least steal (ties broken by a fixed hash of the
   slice's position):
   - p50_us from every request sent in those slices;
   - p95_us as the median of those slices' own p95s (over the slices
     with at least [min_slice_samples] requests);
   - ops_per_s and cpu_us_per_op from the middle half of them by
     throughput, as requests over seconds and server CPU over requests;
   - setup_s and rss_mb as medians over the instances.
   The tail is read at p95, per slice, because /proc/stat counts steal
   in 10 ms ticks: steal of a few ms leaves a slice "quiet" yet delays
   a batch or two, enough for its p99.  In six kv-scan runs taken
   while the host stole 3-13% of the CPU, the median per-slice p99 of
   the steal-free slices ranged over 1.56-2.53 ms, the p95 over
   1.15-1.28 ms. *)
let quiet_steal = 0.01

let min_kept = 20

let min_slice_samples = 100

let pooled (rs : run list) ~setups =
  let all =
    List.concat
      (List.mapi
         (fun i r ->
           List.mapi (fun j (s : Served.slice) -> (s.steal, Hashtbl.hash (i, j), i, j, s)) (Array.to_list r.win.slices))
         rs)
  in
  let n_quiet = List.length (List.filter (fun (st, _, _, _, _) -> st <= quiet_steal) all) in
  let quiet = List.filteri (fun k _ -> k < max min_kept n_quiet) (List.sort compare all) in
  let kept = Hashtbl.create 256 in
  List.iter (fun (_, _, i, j, _) -> Hashtbl.replace kept (i, j) ()) quiet;
  let lat = Array.concat (List.mapi (fun i r -> Stats.sorted ~keep:(fun j -> Hashtbl.mem kept (i, j)) r.writer.lat) rs) in
  Array.sort Float.compare lat;
  let rate (s : Served.slice) = float_of_int s.done_ /. s.dur in
  let by_rate = List.sort (fun a b -> Float.compare (rate a) (rate b)) (List.map (fun (_, _, _, _, s) -> s) quiet) in
  let k = List.length by_rate in
  let mid = List.filteri (fun i _ -> i >= k / 4 && i < k - (k / 4)) by_rate in
  let sum f = List.fold_left (fun a s -> a +. f s) 0. mid in
  let done_ = sum (fun s -> float_of_int s.done_) in
  let steal = List.fold_left (fun a (st, _, _, _, _) -> a +. st) 0. quiet /. float_of_int k in
  Printf.printf "kept %d of %d slices (%d latency samples), mean steal %.2f%% in them; median instance steal %.2f%%\n"
    k (List.length all) (Array.length lat) (100. *. steal)
    (Stats.median (List.map (fun r -> r.win.steal_pct) rs));
  let slice_p95s =
    List.concat
      (List.mapi
         (fun i r ->
           let by = Stats.by_tag r.writer.lat (Array.length r.win.slices) in
           List.filter_map
             (fun j ->
               if Hashtbl.mem kept (i, j) && Array.length by.(j) >= min_slice_samples then
                 Some (Stats.percentile by.(j) 0.95)
               else None)
             (List.init (Array.length by) Fun.id))
         rs)
  in
  let pooled_p95 = Stats.percentile lat 0.95 in
  Printf.printf "p95 from %d slices; pooled p95 %.1f us, p99 %.1f us of the kept slices\n"
    (List.length slice_p95s) pooled_p95 (Stats.percentile lat 0.99);
  [
    m "ops_per_s" (done_ /. sum (fun s -> s.dur)) "1/s";
    m "p50_us" (Stats.percentile lat 0.5) "us";
    m "p95_us" (if slice_p95s = [] then pooled_p95 else Stats.median slice_p95s) "us";
    m "cpu_us_per_op" (sum (fun s -> s.cpu_s) *. 1e6 /. done_) "us";
    m "rss_mb" (Stats.median (List.map (fun r -> r.rss_mb) rs)) "MB";
    m "setup_s" (Stats.median setups) "s";
  ]

let delta r name = Served.gauge r.stats1 name -. Served.gauge r.stats0 name

let per_layer (w : Suite.t) (a : run) (b : run) (probe : run) (l : Ledger.result) =
  let ops = float_of_int a.writer.reqs in
  let ns = Ledger.ns_per_op l and by = Ledger.bytes_per_op l in
  let commits = delta a "txn_commits" and retries = delta a "txn_validation_retries" in
  let census k = match b.census with Some s -> Served.num s [ "census"; k ] | None -> nan in
  let size = match b.census with Some s -> Served.num s [ "size" ] | None -> nan in
  let repl = if w.replica <> None then a else probe in
  let replica_lane = Option.get repl.reader in
  [
    m "protocol.parse_ns_per_op" (ns l.parse) "ns";
    m "protocol.parse_alloc_b_per_op" (by l.parse) "B";
    m "protocol.render_ns_per_op" (ns l.render) "ns";
    m "protocol.render_alloc_b_per_op" (by l.render) "B";
    m "mount.ns_per_op" (ns l.mount) "ns";
    m "mount.alloc_b_per_op" (by l.mount) "B";
    m "txn.ns_per_op" (ns l.txn) "ns";
    m "txn.alloc_b_per_op" (by l.txn) "B";
    m "map.ns_per_op" (ns l.map) "ns";
    m "map.alloc_b_per_op" (by l.map) "B";
    m "repl.tap_ns_per_commit"
      (Verlib.Hwclock.to_us (l.tap.ticks - l.txn.ticks) *. 1000. /. float_of_int (max 1 l.commits))
      "ns";
    m "evloop.us_per_op" (cpu_us_per_op a -. Ledger.served_us l) "us";
    m "evloop.stalls" (float_of_int (stalls a)) "count";
    m "gc.alloc_kb_per_op" (delta a "gc_alloc_bytes" /. 1024. /. ops) "KB";
    m "gc.minor_per_kop" (delta a "gc_minor_collections" *. 1000. /. ops) "1/kop";
    m "gc.major_per_kop" (delta a "gc_major_collections" *. 1000. /. ops) "1/kop";
    m "txn.commit_ratio" (if commits +. retries > 0. then commits /. (commits +. retries) else 1.) "ratio";
    m "txn.aborts" (delta a "txn_aborts") "count";
    m "repl.records_per_commit"
      (delta repl "repl_records_total" /. float_of_int (max 1 repl.win_commits))
      "ratio";
    m "repl.resyncs" (Served.gauge repl.stats1 "repl_resyncs") "count";
    m "repl.catchup_ms" (Option.value repl.catchup_ms ~default:nan) "ms";
    m "replica.read_p50_us" (pct replica_lane 0.5) "us";
    m "replica.read_p99_us" (pct replica_lane 0.99) "us";
    m "verlib.chain_p99" (census "chain_p99") "count";
    m "verlib.reclaimable_per_entry" (census "reclaimable" /. size) "ratio";
    m "verlib.indirect_links" (census "indirect_links") "count";
    m "client.cpu_us_per_op" (a.win.client_cpu_s *. 1e6 /. ops) "us";
    m "host.steal_pct" a.win.steal_pct "%";
    m "trace.overhead_pct" (100. *. (ops_per_s a -. ops_per_s b) /. ops_per_s a) "%";
  ]

(* --- output -------------------------------------------------------------------- *)

let print_json ~correct ~attempted ~failed metrics =
  let field mt = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" mt.name mt.value mt.unit_ in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", " (List.map field metrics))

let print_table title metrics =
  Printf.printf "-- %s\n" title;
  List.iter (fun mt -> Printf.printf "  %-32s %14.4f %s\n" mt.name mt.value mt.unit_) metrics

let describe_run label r =
  Printf.printf "%s: %d requests (writer %d, %d latency samples) in %.2f s, fail_ratio %g (%d/%d), \
                 stalls>150ms %d, host steal %.2f%%\n"
    label (List.fold_left (fun a (l : Served.lane) -> a + l.reqs) 0 (lanes r))
    r.writer.reqs (Stats.count r.writer.lat) r.win.elapsed
    (float_of_int (failed r) /. float_of_int (max 1 (attempted r)))
    (failed r) (attempted r) (stalls r) r.win.steal_pct

(* --- main ---------------------------------------------------------------------- *)

let () =
  (* The client's own minor collections land inside measured round
     trips; a larger minor heap makes them rarer. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 20 };
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out_dir = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME kv-point | kv-scan | txn-feed");
      ("--seed", Arg.Set_int seed, "N op-stream seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--serve-exe", Arg.Set_string Served.serve_exe, "PATH verlib_serve executable");
      ("--out-dir", Arg.Set_string out_dir, "DIR where traced runs write their spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pb --workload NAME --seed N --seconds S --trace 0|1 --serve-exe PATH";
  let w =
    match Suite.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("pb: unknown workload " ^ !workload);
        exit 2
  in
  at_exit Served.kill_all;
  (* A run must end within 180 s: past 170, stop every server rather
     than hang. *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         Served.kill_all ();
         prerr_endline "pb: time limit";
         exit 3));
  ignore (Unix.alarm 170);
  let replica = w.replica <> None in
  let threads = w.primary_threads in
  match
    if !trace = 0 then begin
      (* [instances] fresh clusters, each measured for an equal share of
         the window.  While fewer than half the window's slices were
         quiet (steal at most [quiet_steal]), more instances start, up
         to half as many again and until [extend_s] seconds into the
         run. *)
      let want = int_of_float (Float.round (!seconds /. Served.slice_s /. 2.)) in
      let started = Unix.gettimeofday () in
      let instance i =
        with_cluster ~threads ~replica ~census:false (fun cl setup_s ->
            let r =
              drive w cl ~reader:w.replica ~seed:(instance_seed !seed i)
                ~seconds:(!seconds /. float_of_int instances) ~spans:None
            in
            describe_run (Printf.sprintf "instance %d" i) r;
            Printf.printf "  %s\n"
              (String.concat " "
                 (List.map (fun mt -> Printf.sprintf "%s=%.4g" mt.name mt.value) (end_to_end r ~setup_s)));
            (setup_s, r))
      in
      let quiet runs =
        List.fold_left
          (fun a (_, r) -> a + Array.fold_left (fun a (s : Served.slice) -> if s.steal <= quiet_steal then a + 1 else a) 0 r.win.slices)
          0 runs
      in
      let rec more i acc =
        if
          i >= instances
          && (quiet acc >= want || i >= instances * 3 / 2 || Unix.gettimeofday () -. started > extend_s)
        then List.rev acc
        else more (i + 1) (instance i :: acc)
      in
      let runs = more 0 [] in
      let rs = List.map snd runs in
      let path = Filename.concat !out_dir (Printf.sprintf "slices-%s.tsv" w.name) in
      Out_channel.with_open_text path (fun oc ->
          output_string oc "# instance\tslice\tseconds\trequests\tserver_cpu_s\tsteal\n";
          List.iteri
            (fun i r ->
              Array.iteri
                (fun j (s : Served.slice) ->
                  Printf.fprintf oc "%d\t%d\t%.4f\t%d\t%.2f\t%.4f\n" i j s.dur s.done_ s.cpu_s s.steal)
                r.win.slices)
            rs);
      let ms = pooled rs ~setups:(List.map fst runs) in
      let attempted = List.fold_left (fun a r -> a + attempted r) 0 rs
      and failed = List.fold_left (fun a r -> a + failed r) 0 rs in
      print_table "end-to-end"
        (ms @ [ m "fail_ratio" (float_of_int failed /. float_of_int (max 1 attempted)) "ratio" ]);
      (attempted, failed, ms)
    end
    else begin
      let a =
        with_cluster ~threads ~replica ~census:false (fun cl _ ->
            drive w cl ~reader:w.replica ~seed:!seed ~seconds:!seconds ~spans:None)
      in
      describe_run "untraced window" a;
      let lane_spans = (Spans.create span_cap, Spans.create span_cap) in
      let b =
        with_cluster ~threads ~replica ~census:true (fun cl _ ->
            drive w cl ~reader:w.replica ~seed:!seed ~seconds:(!seconds /. 2.) ~spans:(Some lane_spans))
      in
      describe_run "traced window" b;
      let probe =
        match w.probe with
        | None -> a
        | Some p ->
            let r =
              with_cluster ~threads:2 ~replica:true ~census:false (fun cl _ ->
                  drive w cl ~reader:(Some p) ~seed:!seed ~seconds:2. ~spans:None)
            in
            describe_run "replica probe" r;
            r
      in
      let ledger_spans = Spans.create (w.ledger_ops * 14) in
      let reqs =
        let next = w.writer (Rng.create !seed) (Ops.prefilled ()) in
        Array.init w.ledger_ops (fun _ -> next ())
      in
      let l = Ledger.run reqs ledger_spans in
      let ms = per_layer w a b probe l in
      print_table "per-layer" ms;
      let path = Filename.concat !out_dir (Printf.sprintf "spans-%s.tsv" w.name) in
      Spans.write path [ fst lane_spans; snd lane_spans; ledger_spans ];
      Printf.printf "spans: %d written to %s\n"
        (Spans.count (fst lane_spans) + Spans.count (snd lane_spans) + Spans.count ledger_spans)
        path;
      Option.iter (fun e -> raise (Violation [ "ledger: " ^ e ])) l.wrong;
      (* The ledger must fit inside what the server spends per request. *)
      if w.replica = None && Ledger.served_us l > cpu_us_per_op a then
        raise
          (Violation
             [
               Printf.sprintf "ledger parse+mount+render %.2f us > served cpu %.2f us/op" (Ledger.served_us l)
                 (cpu_us_per_op a);
             ]);
      let runs = if probe != a then [ a; b; probe ] else [ a; b ] in
      ( List.fold_left (fun s r -> s + attempted r) 0 runs,
        List.fold_left (fun s r -> s + failed r) 0 runs,
        ms )
    end
  with
  | attempted, failed, ms ->
      print_json ~correct:(failed = 0) ~attempted ~failed ms;
      if failed > 0 then exit 1
  | exception Violation errors ->
      List.iter (fun e -> Printf.printf "VIOLATION %s\n" e) errors;
      exit 1
  | exception e ->
      Served.kill_all ();
      Printf.eprintf "pb: %s\n%!" (Printexc.to_string e);
      exit 1
