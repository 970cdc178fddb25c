(* verlib-serve CLI: mount one versioned structure behind the wire
   protocol (docs/PROTOCOL.md) and serve it until SIGINT/SIGTERM (or
   for --duration seconds).  The main domain runs event loop 0
   ([Server.run]).  Shutdown is a graceful drain: accepting stops,
   in-flight connections are answered, every domain (including the
   background sweep) is joined, and the final stats report —
   with a quiescent, exact-audit chain census — is flushed before
   exit. *)

open Cmdliner

let structure =
  let doc =
    Printf.sprintf "Data structure to serve: %s."
      Harness.Registry.spec_help
  in
  Arg.(value & opt string "btree" & info [ "s"; "structure" ] ~docv:"NAME" ~doc)

let mode =
  let alist =
    [
      ("indonneed", Verlib.Vptr.Ind_on_need);
      ("indirect", Verlib.Vptr.Indirect);
      ("noshortcut", Verlib.Vptr.No_shortcut);
      ("reconce", Verlib.Vptr.Rec_once);
      ("plain", Verlib.Vptr.Plain);
    ]
  in
  Arg.(value & opt (enum alist) Verlib.Vptr.Ind_on_need & info [ "m"; "mode" ]
       ~doc:"Versioned pointer implementation.")

let port =
  Arg.(value & opt int 7379 & info [ "p"; "port" ]
       ~doc:"TCP port on 127.0.0.1; 0 picks an ephemeral port (printed on stdout).")

let domains =
  Arg.(value & opt int 4 & info [ "t"; "domains" ]
       ~doc:"Event-loop domains.  Each runs its own loop over an even \
             share of the connections and executes their commands inline \
             (docs/ASYNC.md), SUBSCRIBE streams and parked WATCHes \
             included.  Not a connection cap.")

let n_hint =
  Arg.(value & opt int 10_000 & info [ "n"; "size-hint" ]
       ~doc:"Structure size hint (e.g. hash bucket count).")

let prefill =
  Arg.(value & opt int 0 & info [ "prefill" ]
       ~doc:"Insert keys 1..$(docv) (value = key) before serving." ~docv:"N")

let census_interval =
  Arg.(value & opt float 0. & info [ "census-interval" ] ~docv:"SECONDS"
       ~doc:"Census period of the background sweep: every $(docv) seconds it \
             walks the structure's version chains ([Verlib.Chainscan]), the \
             whole mount and, on a sharded mount, each shard; STATS reports \
             the latest census and shutdown takes a final quiescent one.  0 \
             = census at --metrics-interval when that is set, else none.  \
             With both intervals set the sweep is still one domain.")

let duration =
  Arg.(value & opt float 0. & info [ "d"; "duration" ]
       ~doc:"Serve for this many seconds then drain and exit; 0 = until \
             SIGINT/SIGTERM.")

let max_conns =
  Arg.(value & opt int 0 & info [ "max-conns" ]
       ~doc:"Answer -BUSY at accept beyond this many simultaneous \
             connections; 0 = unlimited.")

let idle_timeout =
  Arg.(value & opt float 0. & info [ "idle-timeout" ] ~docv:"SECONDS"
       ~doc:"Close connections idle for $(docv) seconds; 0 = never.")

let write_timeout =
  Arg.(value & opt float 5. & info [ "write-timeout" ] ~docv:"SECONDS"
       ~doc:"Kill connections whose reply flush blocks for $(docv) seconds \
             (peer stopped reading); 0 = forever.")

let shed_queue =
  Arg.(value & opt int 0 & info [ "shed-queue" ] ~docv:"N"
       ~doc:"Admission control: answer snapshot-heavy commands (MGET, \
             RANGE, RANGECOUNT, SCAN, EXEC, SYNC, WATCH) with -BUSY while \
             $(docv) or more other connections that the same poll round \
             reported readable still wait on the loop, and every data \
             command at 2x$(docv).  PING, \
             STATS and the other observability commands are never shed.  \
             0 = off.")

let retry_after_ms =
  Arg.(value & opt int 50 & info [ "retry-after-ms" ]
       ~doc:"The retry hint carried in -BUSY replies.")

let metrics_interval =
  Arg.(value & opt float 0. & info [ "metrics-interval" ] ~docv:"SECONDS"
       ~doc:"SLO period of the background sweep: every $(docv) seconds the \
             request-phase p99s are checked against --slo-p99-us (and, when \
             --census-interval is 0, a census is taken); 0 = off.")

let flight_dir =
  Arg.(value & opt string "" & info [ "flight-dir" ] ~docv:"DIR"
       ~doc:"Arm the anomaly flight recorder: deadline kills, hard-shed \
             engagement, census invariant violations and SLO breaches each \
             dump the recent-span ring plus live gauges to \
             $(docv)/flight-<ms>-<trigger>.json.  Empty = off.")

let flight_min_interval =
  Arg.(value & opt float 5. & info [ "flight-min-interval" ] ~docv:"SECONDS"
       ~doc:"Flight-recorder cooldown: at most one dump per $(docv) seconds.")

let slo_p99_us =
  Arg.(value & opt float 0. & info [ "slo-p99-us" ] ~docv:"US"
       ~doc:"Flight trigger: any request phase whose p99 exceeds $(docv) \
             microseconds files a dump (checked every --metrics-interval); \
             0 = off.")

let locks =
  let alist =
    [ ("lockfree", Flock.Lock.Lock_free); ("blocking", Flock.Lock.Blocking) ]
  in
  Arg.(value & opt (enum alist) Flock.Lock.Lock_free & info [ "locks" ]
       ~doc:"Lock implementation for the mounted structure: lockfree \
             (helping, the default) or blocking (required by the \
             blocking-convoy fault preset).")

let profile_hz =
  Arg.(value & opt int 0 & info [ "profile-hz" ] ~docv:"HZ"
       ~doc:"Run the continuous sampling profiler at $(docv) samples per \
             second for the server's lifetime ([Verlib.Obs.Profile]); \
             activity stacks are served by the PROFILE wire command and \
             land in flight-recorder dumps.  0 = off.")

let profile_out =
  Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE"
       ~doc:"Write the accumulated profile as collapsed-stack text \
             (flamegraph.pl / speedscope compatible) to $(docv) on \
             shutdown.  Implies --profile-hz 97 (the default rate) when \
             --profile-hz is unset.")

let replica_of =
  let host_port =
    let parse s =
      match String.rindex_opt s ':' with
      | Some i -> (
          let host = String.sub s 0 i in
          let port = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 ->
              Ok ((if host = "" then "127.0.0.1" else host), p)
          | _ -> Error (`Msg ("bad port in " ^ s)))
      | None -> (
          match int_of_string_opt s with
          | Some p when p > 0 && p < 65536 -> Ok ("127.0.0.1", p)
          | _ -> Error (`Msg ("expected HOST:PORT, got " ^ s)))
    in
    let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
    Arg.conv (parse, print)
  in
  Arg.(value & opt (some host_port) None & info [ "replica-of" ] ~docv:"HOST:PORT"
       ~doc:"Run as an asynchronous read replica of that primary: bootstrap \
             via SYNC, stream its change feed (SUBSCRIBE), apply records in \
             order, serve snapshot reads at the replication watermark, and \
             refuse writes with -ERR READONLY until PROMOTE \
             (docs/REPLICATION.md).  A bare port means 127.0.0.1.")

let feed_capacity =
  Arg.(value & opt int 65536 & info [ "feed-capacity" ] ~docv:"RECORDS"
       ~doc:"Replication log ring size in records; a subscriber that falls \
             further behind than this is told to resync from a snapshot.")

let faults =
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"PLAN"
       ~doc:"Arm a fault plan (preset name or raw spec, docs/RESILIENCE.md) \
             for the lifetime of the server: injects faults at the core \
             (lock/vptr/epoch) and server wire points in this process.  \
             Disarmed before the final quiescent census.")

let stats_fmt =
  let alist = [ ("none", `None); ("json", `Json) ] in
  Arg.(value & opt (enum alist) `Json & info [ "stats" ] ~docv:"FMT"
       ~doc:"Final report on shutdown: json (stdout) or none.")

let trace_file =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
       ~doc:"Record typed events and export Chrome trace-event JSON to $(docv) \
             on shutdown.")

(* First signal: graceful drain ([Server.run] returns once the loops
   have drained, so the final stats/census are flushed instead of dying
   mid-write).  Second signal: force-quit. *)
let install_signal_handlers srv =
  let signalled = Atomic.make false in
  let handle _ =
    if Atomic.exchange signalled true then exit 130
    else begin
      Server.request_stop srv;
      prerr_endline "verlib-serve: draining (signal again to force-quit)..."
    end
  in
  List.iter
    (fun s -> try Sys.set_signal s (Sys.Signal_handle handle) with _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let run structure mode port domains n_hint prefill census_interval max_conns
    idle_timeout write_timeout shed_queue retry_after_ms metrics_interval
    flight_dir flight_min_interval slo_p99_us locks profile_hz profile_out
    replica_of feed_capacity faults duration stats_fmt trace_file =
  let plan =
    match faults with
    | None -> None
    | Some spec -> (
        match Fault.find_plan spec with
        | Ok p -> Some p
        | Error e ->
            prerr_endline ("verlib-serve: bad --faults plan: " ^ e);
            exit 2)
  in
  let map = Harness.Registry.find structure in
  let module M = (val map : Dstruct.Map_intf.MAP) in
  if not (M.supports_mode mode) then begin
    Printf.eprintf "%s does not support mode %s\n" structure
      (Verlib.Vptr.mode_name mode);
    exit 2
  end;
  Verlib.reset ~lock_mode:locks ();
  if trace_file <> None then Verlib.Obs.set_tracing true;
  let profile_hz =
    if profile_hz = 0 && profile_out <> None then
      Verlib.Obs.Profile.default_hz
    else profile_hz
  in
  if slo_p99_us > 0. && metrics_interval <= 0. then
    prerr_endline
      "verlib-serve: note: --slo-p99-us has no effect without \
       --metrics-interval";
  let mount = Server.Mount.mount ~mode ~lock_mode:locks ~n_hint map in
  for k = 1 to prefill do
    ignore (Server.Mount.exec mount (Server.Protocol.Put (k, k)))
  done;
  let config =
    {
      Server.port;
      domains;
      census_interval;
      max_conns;
      idle_timeout;
      write_timeout;
      shed_queue;
      retry_after_ms;
      metrics_interval;
      flight_dir;
      flight_min_interval;
      slo_p99_us;
      profile_hz;
      replica_of;
      feed_capacity;
    }
  in
  let srv = Server.create ~config mount in
  install_signal_handlers srv;
  Server.listen srv;
  (match plan with
   | None -> ()
   | Some p ->
       Fault.arm p;
       Printf.eprintf "verlib-serve: fault plan armed: %s\n%!"
         (Fault.plan_to_string p));
  Printf.printf "PORT %d\n%!" (Server.port srv);
  Printf.eprintf
    "verlib-serve: %s (%s, %s) on 127.0.0.1:%d — %d loop domain(s)%s\n%!"
    structure
    (Verlib.Vptr.mode_name mode)
    (Dstruct.Map_intf.range_capability_name M.range_capability)
    (Server.port srv) domains
    (if census_interval > 0. then
       Printf.sprintf ", census every %.2fs" census_interval
     else "");
  (match replica_of with
   | Some (h, p) ->
       Printf.eprintf "verlib-serve: replica of %s:%d (reads at watermark, \
                       writes refused until PROMOTE)\n%!" h p
   | None -> ());
  let deadline =
    if duration > 0. then Unix.gettimeofday () +. duration else infinity
  in
  (* Disarm before the drain: crash-stopped loops resume, so the drain
     terminates and the final census is quiescent and fault-free. *)
  let on_stop () = if plan <> None then Fault.disarm () in
  Server.run srv ~deadline ~on_stop;
  (match stats_fmt with
   | `None -> ()
   | `Json -> print_endline (Server.stats_json srv));
  (match trace_file with
   | None -> ()
   | Some path ->
       Verlib.Obs.set_tracing false;
       let streams = Verlib.Obs.export_trace path in
       Printf.eprintf "trace: %d domain stream(s) written to %s\n%!" streams path);
  (match profile_out with
   | None -> ()
   | Some path ->
       Verlib.Obs.Profile.write_collapsed path;
       Printf.eprintf "profile: %d sample(s) at %d Hz -> %s\n%!"
         (Verlib.Obs.Profile.samples_total ())
         profile_hz path);
  if flight_dir <> "" then
    Printf.eprintf "flight: %d dump(s)%s\n%!"
      (Server.flight_dump_count srv)
      (match Server.flight_last_path srv with
       | Some p -> ", last " ^ p
       | None -> "");
  let violations = Server.census_violations_total srv in
  if violations > 0 then begin
    Printf.eprintf "verlib-serve: %d census invariant violation(s)\n%!" violations;
    exit 1
  end

let cmd =
  let doc = "serve a versioned map over TCP (pipelined RESP-like protocol)" in
  Cmd.v
    (Cmd.info "verlib_serve" ~doc)
    Term.(
      const run $ structure $ mode $ port $ domains $ n_hint $ prefill
      $ census_interval $ max_conns $ idle_timeout $ write_timeout
      $ shed_queue $ retry_after_ms $ metrics_interval $ flight_dir
      $ flight_min_interval $ slo_p99_us $ locks $ profile_hz $ profile_out
      $ replica_of $ feed_capacity $ faults $ duration $ stats_fmt
      $ trace_file)

let () = exit (Cmd.eval cmd)
