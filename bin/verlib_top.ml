(* verlib_top: a terminal dashboard for a running verlib_serve.  Polls
   the three observability wire commands — STATS (counters, phase
   histograms, gauges), METRICS (Prometheus plane, validated), PROFILE
   (sampling-profiler snapshot: per-domain activity, heaviest stacks,
   lock-site contention, GC counters) — and renders one screen per
   interval: throughput and shed rates, phase p50/p99, what every
   domain is doing right now, the most contended lock sites with their
   waits-on edges, and GC churn.

   [--once] renders a single plain snapshot and exits — the scripting /
   smoke mode.  With [--expect-lock-site] (and optionally
   [--expect-percent]) it turns into an assertion: exit 1 unless the
   named site is the top contention entry (and at least the given
   percent of profile samples mention it), which is how
   [make profile-smoke] gates convoy attribution.

   Keys (interactive mode): q quits, any other key refreshes early. *)

open Cmdliner
module P = Server.Protocol
module C = Server.Client
module J = Harness.Jsonlite

let host =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Server host.")

let port =
  Arg.(required & opt (some int) None
       & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")

let interval =
  Arg.(value & opt float 1.0
       & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh interval.")

let once =
  Arg.(value & flag
       & info [ "once" ]
           ~doc:"Render one snapshot to stdout (no screen control, no \
                 keyboard) and exit — for scripts and the profile smoke.")

let expect_site =
  Arg.(value & opt (some string) None
       & info [ "expect-lock-site" ] ~docv:"SITE"
           ~doc:"With $(b,--once): exit 1 unless $(docv) is the most \
                 contended lock site (failed acquire attempts, then booked \
                 wait time) in the PROFILE snapshot.")

let expect_percent =
  Arg.(value & opt float 0.
       & info [ "expect-percent" ] ~docv:"PCT"
           ~doc:"With $(b,--expect-lock-site): additionally require at \
                 least $(docv) percent of profile samples to mention the \
                 site (held or waited on).")

(* --- wire ----------------------------------------------------------------- *)

type snap = {
  s_stats : J.t;
  s_profile : J.t;
  s_metrics : (int, string) result;  (* validated sample count *)
  s_time : float;
}

let poll ~host ~port =
  match C.connect ~host ~retries:5 ~port () with
  | exception e -> Error (Printexc.to_string e)
  | conn ->
      Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
      let bulk cmd =
        match C.request conn cmd with
        | Ok (P.Bulk s) -> Ok s
        | Ok r -> Error (P.pp_reply r)
        | Error e -> Error e
      in
      let ( let* ) = Result.bind in
      let* stats_raw = Result.map_error (( ^ ) "STATS: ") (bulk P.Stats) in
      let* stats = Result.map_error (( ^ ) "STATS: ") (J.parse_result stats_raw) in
      let* profile_raw =
        Result.map_error (( ^ ) "PROFILE: ") (bulk (P.Profile 0))
      in
      let* profile =
        Result.map_error (( ^ ) "PROFILE: ") (J.parse_result profile_raw)
      in
      let metrics =
        match bulk P.Metrics with
        | Error e -> Error e
        | Ok text -> (
            match Harness.Obs_report.parse_prometheus text with
            | Ok samples -> Ok (List.length samples)
            | Error e -> Error e)
      in
      Ok
        {
          s_stats = stats;
          s_profile = profile;
          s_metrics = metrics;
          s_time = Unix.gettimeofday ();
        }

(* --- JSON helpers --------------------------------------------------------- *)

let jnum k j = Option.value ~default:0. (Option.bind (J.member k j) J.to_number)

let jint k j = int_of_float (jnum k j)

let jstr k j = Option.value ~default:"" (Option.bind (J.member k j) J.to_string)

let jlist k j = Option.value ~default:[] (Option.bind (J.member k j) J.to_list)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- derived views -------------------------------------------------------- *)

(* Lock sites from the PROFILE snapshot, most contended first.
   Contended attempts are the primary key because wait time is only
   booked once an acquire finally succeeds — during a live convoy the
   convoyed site has enormous contended counts and near-zero booked
   wait; the tie-break on wait time orders quiescent snapshots. *)
let lock_sites profile =
  jlist "lock_sites" profile
  |> List.map (fun s ->
         ( jstr "site" s,
           jint "acquires" s,
           jint "contended" s,
           jnum "wait_us" s,
           jint "helps" s,
           jlist "edges" s ))
  |> List.sort (fun (_, _, c1, w1, _, _) (_, _, c2, w2, _, _) ->
         match compare c2 c1 with 0 -> compare w2 w1 | n -> n)

(* Percent of profile samples whose stack mentions [site].  Site
   activities are interned as "lock:<site>", so a holder frame renders
   as ";lock:<site>" and a waiter frame as ";wait:lock:<site>" — both
   contain "lock:<site>". *)
let site_sample_percent profile site =
  let total = jnum "samples" profile in
  if total <= 0. then 0.
  else
    let hit =
      List.fold_left
        (fun acc s ->
          let stack = jstr "stack" s in
          if contains stack ("lock:" ^ site)
          then acc +. jnum "count" s
          else acc)
        0. (jlist "stacks" profile)
    in
    100. *. hit /. total

let fmt_count v =
  if v >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.0f" v

(* --- renderer ------------------------------------------------------------- *)

(* [prev] enables rate columns (commands/s, alloc/s, GC/s); [--once]
   has no previous snapshot and renders cumulative figures only. *)
let render ~host ~port ~prev snap =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let st = snap.s_stats and pr = snap.s_profile in
  let gc = Option.value ~default:J.Null (J.member "gc" pr) in
  let rate cur get =
    match prev with
    | Some p when snap.s_time -. p.s_time > 1e-3 ->
        let dt = snap.s_time -. p.s_time in
        Printf.sprintf "%s/s" (fmt_count ((cur -. get p) /. dt))
    | _ -> "-"
  in
  line "verlib_top — %s:%d  uptime %ds  domains %d  structure sz %s  clock %s"
    host port (jint "uptime_s" st) (jint "domains" st)
    (fmt_count (jnum "size" st))
    (jstr "clock_source" st);
  let running = J.member "running" pr = Some (J.Bool true) in
  line "profiler: %s hz=%d samples=%s   metrics: %s"
    (if running then "ON" else "off")
    (jint "hz" pr)
    (fmt_count (jnum "samples" pr))
    (match snap.s_metrics with
     | Ok n -> Printf.sprintf "%d samples ok" n
     | Error e -> "FAIL " ^ e);
  line "commands %s (%s)  conns %d/%d  shed %s  deadline_kills %s  proto_errors %s"
    (fmt_count (jnum "commands_total" st))
    (rate (jnum "commands_total" st) (fun p -> jnum "commands_total" p.s_stats))
    (jint "connections_active" st)
    (jint "connections_total" st)
    (fmt_count (jnum "shed" st))
    (fmt_count (jnum "deadline_kills" st))
    (fmt_count (jnum "protocol_errors" st));
  (* Event loops: connections each owns (the balance the acceptor keeps)
     and the admission signal, readable connections not yet executed. *)
  line "loops: conns [%s]  waiting %d"
    (String.concat " "
       (List.map
          (fun c -> Printf.sprintf "%.0f" (Option.value ~default:0. (J.to_number c)))
          (jlist "loop_conns" st)))
    (jint "queue_depth" st);
  (* Transactions, from the txn_* gauges: commit rate, the abort share
     of finished transactions, mean validation retries per commit (the
     OCC contention signal) and exactly-once replays served from the
     token cache.  Hidden entirely until the first MULTI/EXEC. *)
  let gauges j = Option.value ~default:J.Null (J.member "gauges" j) in
  let g name = jnum name (gauges st) in
  let tc = g "txn_commits" and ta = g "txn_aborts" in
  if tc +. ta > 0. then
    line "txn: commits %s (%s)  abort%% %.2f  val-retries/commit %.2f  replays %s"
      (fmt_count tc)
      (rate tc (fun p -> jnum "txn_commits" (gauges p.s_stats)))
      (100. *. ta /. (tc +. ta))
      (if tc > 0. then g "txn_validation_retries" /. tc else 0.)
      (fmt_count (g "txn_replays"));
  (* Replication, from the repl_* gauges: feed rate, subscriber lag in
     stamps and bytes (both ~0 on a healthy pair, rising through a
     partition), applied records and the replica watermark, dropped
     duplicates and snapshot resyncs.  Hidden until the feed carries a
     record or a replica applies one. *)
  let rr = g "repl_records_total" and ra = g "repl_applied_total" in
  if rr +. ra > 0. then
    line
      "repl: records %s (%s)  lag %s stamps / %sB  applied %s  wm %s  dups %s  \
       resyncs %s"
      (fmt_count rr)
      (rate rr (fun p -> jnum "repl_records_total" (gauges p.s_stats)))
      (fmt_count (g "repl_lag_stamps"))
      (fmt_count (g "repl_lag_bytes"))
      (fmt_count ra)
      (fmt_count (g "repl_watermark"))
      (fmt_count (g "repl_dup_dropped"))
      (fmt_count (g "repl_resyncs"));
  line "gc: alloc %sB (%s)  minor %s (%s)  major %s (%s)  heap %s words"
    (fmt_count (jnum "alloc_bytes" gc))
    (rate (jnum "alloc_bytes" gc) (fun p ->
         jnum "alloc_bytes" (Option.value ~default:J.Null (J.member "gc" p.s_profile))))
    (fmt_count (jnum "minor_collections" gc))
    (rate (jnum "minor_collections" gc) (fun p ->
         jnum "minor_collections"
           (Option.value ~default:J.Null (J.member "gc" p.s_profile))))
    (fmt_count (jnum "major_collections" gc))
    (rate (jnum "major_collections" gc) (fun p ->
         jnum "major_collections"
           (Option.value ~default:J.Null (J.member "gc" p.s_profile))))
    (fmt_count (jnum "heap_words" gc));
  (* Phase / latency histograms, busiest first; tick-valued ones carry
     pre-converted *_us percentiles. *)
  let hists =
    match J.member "histograms" st with Some (J.Obj kvs) -> kvs | _ -> []
  in
  let hists =
    hists
    |> List.filter (fun (_, v) -> jnum "count" v > 0.)
    |> List.sort (fun (_, a) (_, b) -> compare (jnum "count" b) (jnum "count" a))
  in
  if hists <> [] then begin
    line "";
    line "%-28s %10s %12s %12s" "histogram" "count" "p50" "p99";
    List.iteri
      (fun i (name, v) ->
        if i < 10 then
          let pct k k_us =
            match J.member k_us v with
            | Some (J.Num us) -> Printf.sprintf "%.1fus" us
            | _ -> fmt_count (jnum k v)
          in
          line "%-28s %10s %12s %12s" name
            (fmt_count (jnum "count" v))
            (pct "p50" "p50_us") (pct "p99" "p99_us"))
      hists
  end;
  let sites = lock_sites pr in
  if sites <> [] then begin
    line "";
    line "%-24s %10s %10s %12s %7s  %s" "lock site" "acquires" "contended"
      "wait" "helps" "waits-on";
    List.iteri
      (fun i (site, acq, cont, wait_us, helps, edges) ->
        if i < 8 then
          let edge =
            match
              List.sort
                (fun a b -> compare (jnum "waits" b) (jnum "waits" a))
                edges
            with
            | [] -> "-"
            | e :: _ ->
                Printf.sprintf "holder %d (%s waits)" (jint "holder" e)
                  (fmt_count (jnum "waits" e))
          in
          line "%-24s %10s %10s %10.0fus %7s  %s" site
            (fmt_count (float_of_int acq))
            (fmt_count (float_of_int cont))
            wait_us
            (fmt_count (float_of_int helps))
            edge)
      sites
  end;
  let activity = jlist "activity" pr in
  if activity <> [] then begin
    line "";
    line "per-domain activity (last sample):";
    List.iter
      (fun a -> line "  slot %2d  %s" (jint "slot" a) (jstr "stack" a))
      activity
  end;
  let stacks = jlist "stacks" pr in
  if stacks <> [] then begin
    let total = jnum "samples" pr in
    line "";
    line "hottest stacks:";
    List.iteri
      (fun i s ->
        if i < 8 then
          let n = jnum "count" s in
          line "  %5.1f%%  %s"
            (if total > 0. then 100. *. n /. total else 0.)
            (jstr "stack" s))
      stacks
  end;
  Buffer.contents b

(* --- assertions (smoke mode) ---------------------------------------------- *)

let check_expectations profile expect_site expect_percent =
  match expect_site with
  | None -> true
  | Some site ->
      let ok_top =
        match lock_sites profile with
        | (top, _, _, _, _, _) :: _ when top = site ->
            Printf.printf "expect: OK — %s is the top contended site\n" site;
            true
        | (top, _, _, _, _, _) :: _ ->
            Printf.printf
              "expect: FAIL — top contended site is %s, wanted %s\n" top site;
            false
        | [] ->
            Printf.printf "expect: FAIL — no lock sites in profile\n";
            false
      in
      let ok_pct =
        if expect_percent <= 0. then true
        else begin
          let pct = site_sample_percent profile site in
          Printf.printf "expect: %.1f%% of samples mention %s (want >= %.1f%%)\n"
            pct site expect_percent;
          pct >= expect_percent
        end
      in
      ok_top && ok_pct

(* --- keyboard (interactive mode) ------------------------------------------ *)

let setup_tty () =
  if Unix.isatty Unix.stdin then
    match Unix.tcgetattr Unix.stdin with
    | exception _ -> ()
    | t ->
        let raw = { t with Unix.c_icanon = false; c_echo = false } in
        (try Unix.tcsetattr Unix.stdin Unix.TCSANOW raw with _ -> ());
        at_exit (fun () ->
            try Unix.tcsetattr Unix.stdin Unix.TCSANOW t with _ -> ())

(* Sleep up to [interval], returning the key pressed, if any.  Poll-
   based readiness (Server.Evpoll): stdin's fd number is 0 here, but no
   select call survives in the tree — FD_SETSIZE bites any process
   holding a thousand fds, and the dashboard may run inside one. *)
let wait_key interval =
  match Server.Evpoll.readable ~timeout:interval Unix.stdin with
  | true ->
      let buf = Bytes.create 1 in
      if (try Unix.read Unix.stdin buf 0 1 with _ -> 0) = 1 then
        Some (Bytes.get buf 0)
      else None
  | false -> None
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None

(* --- driver ---------------------------------------------------------------- *)

let run host port interval once expect_site expect_percent =
  if once then begin
    match poll ~host ~port with
    | Error e ->
        Printf.eprintf "verlib_top: %s\n" e;
        exit 1
    | Ok snap ->
        print_string (render ~host ~port ~prev:None snap);
        if not (check_expectations snap.s_profile expect_site expect_percent)
        then exit 1
  end
  else begin
    setup_tty ();
    let prev = ref None in
    let quit = ref false in
    let failures = ref 0 in
    while not !quit do
      (match poll ~host ~port with
       | Error e ->
           incr failures;
           Printf.printf "\027[H\027[2Jverlib_top: %s (retry %d/5)\n%!" e
             !failures;
           if !failures >= 5 then exit 1
       | Ok snap ->
           failures := 0;
           let screen = render ~host ~port ~prev:!prev snap in
           Printf.printf "\027[H\027[2J%s(q quits)\n%!" screen;
           prev := Some snap);
      match wait_key (max 0.05 interval) with
      | Some ('q' | 'Q') -> quit := true
      | Some _ | None -> ()
    done
  end

let cmd =
  let doc = "live terminal dashboard for a running verlib_serve" in
  Cmd.v
    (Cmd.info "verlib_top" ~doc)
    Term.(
      const run $ host $ port $ interval $ once $ expect_site $ expect_percent)

let () = exit (Cmd.eval cmd)
