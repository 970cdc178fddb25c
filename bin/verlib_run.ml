(* CLI for running a single Verlib experiment with custom parameters —
   the counterpart of the paper artifact's experiment-customisation entry
   point (Appendix A.7). *)

open Cmdliner

let structure =
  let doc =
    Printf.sprintf "Data structure to benchmark: %s."
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
  let doc = "Versioned pointer implementation: indonneed, indirect, noshortcut, reconce, plain." in
  Arg.(value & opt (enum alist) Verlib.Vptr.Ind_on_need & info [ "m"; "mode" ] ~doc)

let scheme =
  let alist =
    [
      ("query", Verlib.Stamp.Query_ts);
      ("update", Verlib.Stamp.Update_ts);
      ("hw", Verlib.Stamp.Hw_ts);
      ("tl2", Verlib.Stamp.Tl2_ts);
      ("opt", Verlib.Stamp.Opt_ts);
      ("nostamp", Verlib.Stamp.No_stamp);
    ]
  in
  let doc = "Timestamp scheme: query, update, hw, tl2, opt, nostamp." in
  Arg.(value & opt (enum alist) Verlib.Stamp.Query_ts & info [ "ts" ] ~doc)

let lock_mode =
  let alist = [ ("lockfree", Flock.Lock.Lock_free); ("blocking", Flock.Lock.Blocking) ] in
  Arg.(
    value
    & opt (enum alist) Flock.Lock.Lock_free
    & info [ "locks" ] ~doc:"Lock implementation: lockfree or blocking.")

let threads =
  Arg.(value & opt int 4 & info [ "t"; "threads" ] ~doc:"Number of worker domains.")

let size = Arg.(value & opt int 10_000 & info [ "n"; "size" ] ~doc:"Structure size.")

let updates =
  Arg.(value & opt int 20 & info [ "u"; "updates" ] ~doc:"Update percentage (0-100).")

let query =
  let doc = "Query kind for non-update operations: find, range:SIZE, multifind:K." in
  Arg.(value & opt string "multifind:16" & info [ "q"; "query" ] ~doc)

let theta =
  Arg.(value & opt float 0. & info [ "z"; "zipf" ] ~doc:"Zipfian parameter (0 = uniform).")

let duration =
  Arg.(value & opt float 1.0 & info [ "d"; "duration" ] ~doc:"Seconds per run.")

let repeats = Arg.(value & opt int 3 & info [ "r"; "repeats" ] ~doc:"Runs to average.")

let stats_fmt =
  let alist = [ ("none", `None); ("pretty", `Pretty); ("json", `Json) ] in
  let doc =
    "Observability report: pretty (aligned tables) or json (machine readable, \
     stdout carries only the JSON).  Enables 1-in-64 per-operation latency \
     sampling."
  in
  Arg.(value & opt (enum alist) `None & info [ "stats" ] ~docv:"FMT" ~doc)

let trace_file =
  let doc =
    "Record typed events (snapshots, shortcuts, truncations, stamp increments, \
     lock traffic) and export them as Chrome trace-event JSON to $(docv) — \
     loadable in Perfetto or chrome://tracing.  Off by default; the run keeps \
     only the last repeat's events."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let profile_out =
  let doc =
    "Run the continuous sampling profiler ([Verlib.Obs.Profile], default \
     rate) for the duration of the run and write the accumulated \
     collapsed-stack profile (flamegraph.pl / speedscope compatible) to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE" ~doc)

let profile_hz =
  let doc = "Sampling rate for $(b,--profile-out); 0 uses the default (97)." in
  Arg.(value & opt int 0 & info [ "profile-hz" ] ~docv:"HZ" ~doc)

let census =
  let doc =
    "Register the structure with the chain-census registry, take a quiescent \
     final census after the run (chain-length distribution, live vs. \
     reclaimable versions, indirect links, shortcut ratio) and audit the \
     chain invariants; reported in the stats output."
  in
  Arg.(value & flag & info [ "census" ] ~doc)

let census_interval =
  let doc =
    "With $(b,--census), additionally sample a census every $(docv) seconds \
     from a background domain while the workers run, reporting a time series \
     (chain growth and reclamation lag over time).  0 disables the series."
  in
  Arg.(value & opt float 0. & info [ "census-interval" ] ~docv:"SECONDS" ~doc)

let lat_sample_of_stats = function `None -> 0 | `Pretty | `Json -> 64

let parse_query s =
  match String.split_on_char ':' s with
  | [ "find" ] | [ "finds" ] -> Ok Workload.Opgen.Finds
  | [ "range"; n ] -> Ok (Workload.Opgen.Ranges (int_of_string n))
  | [ "multifind"; n ] -> Ok (Workload.Opgen.Multifinds (int_of_string n))
  | _ -> Error (`Msg (Printf.sprintf "bad query spec %S" s))

(* First SIGINT/SIGTERM: cooperative stop — the driver winds the run
   down (workers joined, background census domain stopped) and the
   stats / census / trace reports are still written in full, instead of
   the process dying mid-write.  A second signal force-exits. *)
let install_signal_handlers () =
  let signalled = ref false in
  let handle _ =
    if !signalled then exit 130
    else begin
      signalled := true;
      prerr_endline "verlib_run: stopping (again to force-quit)...";
      Harness.Driver.request_stop ()
    end
  in
  List.iter
    (fun s -> try Sys.set_signal s (Sys.Signal_handle handle) with _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let run structure mode scheme lock_mode threads size updates query theta duration repeats
    stats_fmt trace_file profile_out profile_hz census census_interval =
  install_signal_handlers ();
  match parse_query query with
  | Error (`Msg m) ->
      prerr_endline m;
      exit 2
  | Ok q ->
      let map = Harness.Registry.find structure in
      let module M = (val map : Dstruct.Map_intf.MAP) in
      if not (M.supports_mode mode) then begin
        Printf.eprintf "%s does not support mode %s\n" structure
          (Verlib.Vptr.mode_name mode);
        exit 2
      end;
      let spec =
        {
          Harness.Driver.map;
          mode;
          lock_mode;
          scheme;
          direct_stores = true;
          n = size;
          theta;
          groups = [ { Harness.Driver.g_count = threads; g_update_percent = updates; g_query = q } ];
          duration;
          repeats;
          seed = 42;
          lat_sample = lat_sample_of_stats stats_fmt;
          census;
          census_interval;
        }
      in
      if trace_file <> None then Verlib.Obs.set_tracing true;
      if profile_out <> None then
        Verlib.Obs.Profile.start
          ~hz:(if profile_hz > 0 then profile_hz
               else Verlib.Obs.Profile.default_hz)
          ();
      let r = Harness.Driver.run spec in
      if profile_out <> None then Verlib.Obs.Profile.stop ();
      Verlib.Obs.set_tracing false;
      let locks_name =
        match lock_mode with Flock.Lock.Lock_free -> "lock-free" | Blocking -> "blocking"
      in
      (match stats_fmt with
       | `Json ->
           (* stdout carries only the JSON report, so it pipes into jq or
              the smoke validator unchanged. *)
           let extra =
             [
               ("structure", Printf.sprintf "%S" structure);
               ("mode", Printf.sprintf "%S" (Verlib.Vptr.mode_name mode));
               ("scheme", Printf.sprintf "%S" (Verlib.Stamp.scheme_name scheme));
               ("locks", Printf.sprintf "%S" locks_name);
               ("threads", string_of_int threads);
               ("n", string_of_int size);
               ("update_percent", string_of_int updates);
               ("zipf", Printf.sprintf "%.2f" theta);
               ("duration_s", Printf.sprintf "%.3f" duration);
               ("repeats", string_of_int repeats);
               ("total_mops", Printf.sprintf "%.6f" r.Harness.Driver.total_mops);
               ("final_size", string_of_int r.Harness.Driver.final_size);
               ("clock_increments", string_of_int r.Harness.Driver.increments);
               ("optimistic_aborts", string_of_int r.Harness.Driver.aborts);
               ( "space",
                 Printf.sprintf "{\"bytes_per_entry\":%.1f}"
                   r.Harness.Driver.space_bytes_per_entry );
             ]
           in
           let extra =
             match r.Harness.Driver.census with
             | None -> extra
             | Some c ->
                 let series =
                   r.Harness.Driver.census_series
                   |> List.map (fun (t, c) ->
                          Printf.sprintf "{\"t_s\":%.3f,\"census\":%s}" t
                            (Harness.Obs_report.json_of_census c))
                   |> String.concat ","
                 in
                 extra
                 @ [
                     ("census", Harness.Obs_report.json_of_census c);
                     ("census_series", Printf.sprintf "[%s]" series);
                   ]
           in
           print_endline (Harness.Obs_report.to_json ~extra r.Harness.Driver.obs)
       | `None | `Pretty ->
           Printf.printf
             "%s mode=%s ts=%s locks=%s threads=%d n=%d updates=%d%% zipf=%.2f\n"
             structure
             (Verlib.Vptr.mode_name mode)
             (Verlib.Stamp.scheme_name scheme)
             locks_name threads size updates theta;
           Printf.printf "throughput: %.3f Mop/s (final size %d)\n"
             r.Harness.Driver.total_mops r.Harness.Driver.final_size;
           Printf.printf "clock increments: %d, optimistic aborts: %d\n"
             r.Harness.Driver.increments r.Harness.Driver.aborts;
           Printf.printf "space: %.1f bytes/entry\n"
             r.Harness.Driver.space_bytes_per_entry;
           if stats_fmt = `Pretty then
             Harness.Obs_report.pretty_print r.Harness.Driver.obs;
           (match r.Harness.Driver.census with
            | None -> ()
            | Some c ->
                Harness.Obs_report.pretty_census c;
                List.iter
                  (fun (t, (c : Verlib.Chainscan.census)) ->
                    Printf.printf
                      "census @ %.2fs: versions=%d reclaimable=%d \
                       indirect_links=%d max_chain=%d violations=%d\n"
                      t c.Verlib.Chainscan.c_versions c.c_reclaimable
                      c.c_indirect_links c.c_max_chain c.c_violation_count)
                  r.Harness.Driver.census_series));
      (match profile_out with
       | None -> ()
       | Some path ->
           Verlib.Obs.Profile.write_collapsed path;
           Printf.eprintf "profile: %d sample(s) -> %s\n%!"
             (Verlib.Obs.Profile.samples_total ())
             path);
      match trace_file with
      | None -> ()
      | Some path ->
          let streams = Verlib.Obs.export_trace path in
          Printf.eprintf "trace: %d domain stream(s) written to %s\n%!" streams path

let cmd =
  let doc = "run one Verlib experiment with custom parameters" in
  Cmd.v
    (Cmd.info "verlib_run" ~doc)
    Term.(
      const run $ structure $ mode $ scheme $ lock_mode $ threads $ size $ updates
      $ query $ theta $ duration $ repeats $ stats_fmt $ trace_file
      $ profile_out $ profile_hz $ census $ census_interval)

let () = exit (Cmd.eval cmd)
