(* verlib-soak: the chaos gate.  One process hosts a verlib-serve
   primary (and, with --repl, an async replica following it) and runs
   the plain bank workload ([Server.Bank]) against the primary over
   loopback under a named fault plan (docs/RESILIENCE.md), armed only
   once every client is connected and parked.  Then it disarms and
   audits.  Exit 0 requires ALL of:

   - the plan actually fired (faults_fired > 0) and every crash-stopped
     domain was released by disarm (stalled_now = 0);
   - the bank verdict passed: transfers > 0 and atomic snapshot checks
     > 0 under fire, with zero invariant violations, zero client errors
     and zero give-ups (the retry layer masked every injected fault);
   - every server's background censuses and final {e quiescent} census
     are violation-free;
   - the conservation audit balances: the sum over every account equals
     2*BASE*pairs, so transfers replayed after ambiguous failures (lost
     replies, killed connections, crash-stopped loop domains whose
     critical sections were finished by helpers) landed exactly once in
     effect;
   - with --repl, the divergence arc: the feed carried records, the lag
     gauges rose under the plan's partition and drained to zero after
     the heal, and the replica's ledger balances at the healed
     watermark.

   This is the executable form of the paper's robustness story: the
   Theorem 6.1/6.2 schedules (crash-stop lock holders, arbitrarily
   interleaved helpers) are produced on demand by [Fault], and the
   observable ledger proves the structure absorbed them.  Transfers are
   plain pipelines, not transactions: under crash-stop-locker a commit
   would park holding its stripe latches. *)

open Cmdliner
module Bank = Server.Bank

let plan_arg =
  Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"PLAN"
       ~doc:"Fault plan: a preset name (crash-stop-locker, \
             stalled-reclaimer, flaky-wire, tbd-window, yield-storm, \
             blocking-convoy, abort-storm, split-brain-window) or a raw \
             spec (docs/RESILIENCE.md).  Default: crash-stop-locker, or \
             split-brain-window with $(b,--repl).")

let structure =
  let doc =
    Printf.sprintf "Structure to soak: %s."
      Harness.Registry.spec_help
  in
  Arg.(value & opt string "btree" & info [ "s"; "structure" ] ~doc)

let duration =
  Arg.(value & opt float 2.0 & info [ "d"; "duration" ]
       ~doc:"Seconds under fire (before the drain + audit).")

let pairs =
  Arg.(value & opt int 16 & info [ "pairs" ] ~doc:"Bank account pairs.")

let repl =
  Arg.(value & flag & info [ "repl" ]
       ~doc:"Replication chaos gate: also host an async replica of the \
             primary, then demand divergence-then-convergence — lag must \
             RISE under the plan's feed partition, drain to zero after \
             the heal, and the replica's ledger must balance exactly at \
             the healed watermark (docs/REPLICATION.md).")

(* Client domains (half writers, half readers) and server loops. *)
let threads = 4

let server_domains = 4

(* One integer field of a server's REPLSTATS, read over the wire. *)
let replstats port =
  let c = Server.Client.connect ~retries:20 ~port () in
  let j =
    Fun.protect
      ~finally:(fun () -> Server.Client.close c)
      (fun () ->
        match Server.Client.request c Server.Protocol.Replstats with
        | Ok (Server.Protocol.Bulk s) -> Harness.Jsonlite.parse s
        | Ok r -> failwith ("REPLSTATS: " ^ Server.Protocol.pp_reply r)
        | Error e -> failwith ("REPLSTATS: " ^ e))
  in
  fun key ->
    match Option.bind (Harness.Jsonlite.member key j) Harness.Jsonlite.to_number with
    | Some x -> int_of_float x
    | None -> failwith ("REPLSTATS: no " ^ key)

let run plan_spec structure duration pairs repl =
  let pairs = max 1 pairs in
  let plan_spec =
    match plan_spec with
    | Some p -> p
    | None -> if repl then "split-brain-window" else "crash-stop-locker"
  in
  let plan =
    match Fault.find_plan plan_spec with
    | Ok p -> p
    | Error e ->
        prerr_endline ("verlib-soak: bad plan: " ^ e);
        exit 2
  in
  let map = Harness.Registry.find structure in
  Verlib.reset ();
  let config =
    {
      Server.default_config with
      Server.port = 0;
      domains = server_domains;
      census_interval = 0.05;
      write_timeout = 2.;
      idle_timeout = 10.;
      retry_after_ms = 5;
    }
  in
  let serve ?replica_of () =
    let mount = Server.Mount.mount ~n_hint:(4 * pairs) map in
    if replica_of = None then Bank.seed (Server.Mount.exec mount) ~pairs;
    let srv = Server.create ~config:{ config with Server.replica_of } mount in
    Server.start srv;
    (mount, srv)
  in
  let pmount, primary = serve () in
  let port = Server.port primary in
  let replica =
    if repl then Some (serve ~replica_of:("127.0.0.1", port) ()) else None
  in
  let tag = if repl then "soak(repl)" else "soak" in
  Printf.printf "%s: plan=%s structure=%s port=%d %.1fs %d pair(s)\n%!" tag
    (Fault.plan_to_string plan) structure port duration pairs;
  (* Sample the lag gauges through the window: a feed partition severs
     the stream, the orphaned cursor pins the acked mark, and the
     writers keep moving the tail, so divergence must be visible. *)
  let max_lag_s = ref 0 and max_lag_b = ref 0 in
  let records0 = Repl.records_total () in
  let tick () =
    max_lag_s := max !max_lag_s (Repl.lag_stamps ());
    max_lag_b := max !max_lag_b (Repl.lag_bytes ())
  in
  let v =
    Bank.run Bank.Plain ~port ~pairs ~threads ~duration
      ~on_go:(fun () -> Fault.arm plan)
      ~tick ()
  in
  let records_fed = Repl.records_total () - records0 in
  (* Disarm BEFORE the server drain: crash-stopped loops resume, so the
     joins inside [Server.stop] terminate; the grace sleep lets them
     finish their interrupted critical sections.  A partitioned replica
     redials, resubscribes (resyncing if it fell below the trim) and
     drains the backlog. *)
  Fault.disarm ();
  Unix.sleepf 0.1;
  let t_heal = Unix.gettimeofday () in
  (* Caught up: the primary has a subscriber again, the replica has
     applied through the primary's tail seq, and the acks drained the
     lag gauges.  The gauges alone read 0 while no subscriber is
     registered, so they cannot tell a healed stream from a replica
     still redialing.  Seqs, not stamps: under crash-stop plans
     records reach the feed out of stamp order, so the replica's max
     stamp can reach the tail's before the last record is applied. *)
  let caught () =
    match replica with
    | None -> true
    | Some (_, r) ->
        let p = replstats port and rs = replstats (Server.port r) in
        p "subscribers" >= 1
        && rs "apply_last_seq" >= p "tail_seq"
        && Repl.lag_stamps () = 0
        && Repl.lag_bytes () = 0
  in
  while (not (caught ())) && Unix.gettimeofday () < t_heal +. 30. do
    Unix.sleepf 0.01
  done;
  let catchup_s = Unix.gettimeofday () -. t_heal in
  let caught = caught () in
  Option.iter (fun (_, r) -> Server.stop r) replica;
  Server.stop primary;
  (* ---- verdicts ---- *)
  let fired = Fault.fired_total () in
  let stalled = Fault.stalled_now () in
  List.iter (Printf.eprintf "  detail: %s\n") v.Bank.details;
  print_endline (Bank.summary v);
  Printf.printf
    "resilience: faults_fired=%d stalled_after_disarm=%d shed=%d \
     deadline_kills=%d\n"
    fired stalled (Server.shed_count primary)
    (Server.deadline_kill_count primary);
  if repl then begin
    Printf.printf
      "divergence: max_lag=%d stamps / %dB  records=%d resyncs=%d \
       dups_dropped=%d\n"
      !max_lag_s !max_lag_b records_fed (Repl.resyncs_total ())
      (Repl.dup_dropped_total ());
    Printf.printf
      "convergence: caught_up=%b in %.2fs  applied=%d  watermark=%d\n"
      caught catchup_s (Repl.applied_total ()) (Repl.watermark_now ())
  end;
  let fail = ref false in
  let check ok msg =
    if not ok then begin
      Printf.printf "FAIL: %s\n" msg;
      fail := true
    end
  in
  check (fired > 0) "plan never fired (no fault injected — dead soak)";
  check (stalled = 0) "domains still parked after disarm";
  List.iter (check false) (Bank.failures v);
  let sides =
    ("primary", pmount, primary)
    :: Option.fold ~none:[]
         ~some:(fun (m, s) -> [ ("replica", m, s) ])
         replica
  in
  List.iter
    (fun (side, mount, srv) ->
      let census_viol = Server.census_violations_total srv in
      check (census_viol = 0)
        (Printf.sprintf "%s: %d census invariant violation(s)" side
           census_viol);
      check
        (match Server.final_census srv with
         | Some c -> c.Verlib.Chainscan.c_violation_count = 0
         | None -> false)
        (side ^ ": final quiescent census missing or violated");
      match Bank.audit (Server.Mount.exec mount) ~pairs with
      | Ok total ->
          Printf.printf "%s conservation audit: OK (total %d)\n" side total
      | Error e -> check false (side ^ " conservation audit: " ^ e))
    sides;
  if repl then begin
    check (records_fed > 0) "the change feed carried no records";
    check (!max_lag_s > 0)
      "replication lag never rose — the partition did not bite the feed";
    check caught "replication lag did not drain to zero after the heal"
  end;
  if !fail then begin
    print_endline (tag ^ ": FAIL");
    exit 1
  end
  else print_endline (tag ^ ": OK")

let cmd =
  let doc = "run the bank workload against an in-process server under a fault \
             plan, then audit (chaos gate)" in
  Cmd.v
    (Cmd.info "verlib_soak" ~doc)
    Term.(const run $ plan_arg $ structure $ duration $ pairs $ repl)

let () = exit (Cmd.eval cmd)
