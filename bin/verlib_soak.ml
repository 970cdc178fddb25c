(* verlib-soak: the chaos gate.  One process hosts a verlib-serve
   instance AND a set of retrying bank clients over loopback, runs the
   mixed workload under a named fault plan (docs/RESILIENCE.md), then
   disarms and audits.  Exit 0 requires ALL of:

   - the plan actually fired (faults_fired > 0) and every crash-stopped
     domain was released by disarm (stalled_now = 0);
   - the client retry layer masked every injected wire fault (no
     residual client errors);
   - real progress was made under fire (transfers > 0 and atomic
     snapshot checks > 0, each with zero invariant violations);
   - the final {e quiescent} chain census is violation-free (and no
     background census saw a violation either);
   - the bank conservation audit balances: after the drain, the sum
     over every account equals 2*BASE*pairs — transfers replayed after
     ambiguous failures (lost replies, killed connections,
     crash-stopped loop domains whose critical sections were finished by
     helpers) must have landed exactly once in effect.

   This is the executable form of the paper's robustness story: the
   Theorem 6.1/6.2 schedules (crash-stop lock holders, arbitrarily
   interleaved helpers) are produced on demand by [Fault], and the
   observable ledger proves the structure absorbed them. *)

open Cmdliner
module P = Server.Protocol
module C = Server.Client

let plan_arg =
  Arg.(value & opt string "crash-stop-locker" & info [ "plan" ] ~docv:"PLAN"
       ~doc:"Fault plan: a preset name (crash-stop-locker, \
             stalled-reclaimer, flaky-wire, tbd-window, yield-storm, \
             blocking-convoy, abort-storm) or a raw spec \
             (docs/RESILIENCE.md).")

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

let writers = Arg.(value & opt int 2 & info [ "writers" ] ~doc:"Writer domains.")

let readers = Arg.(value & opt int 2 & info [ "readers" ] ~doc:"Reader domains.")

let srv_domains =
  Arg.(value & opt int 4 & info [ "server-domains" ]
       ~doc:"Server event-loop domains.")

let ci =
  Arg.(value & flag & info [ "ci" ] ~doc:"Smoke scale: duration capped at 1s.")

let repl =
  Arg.(value & flag & info [ "repl" ]
       ~doc:"Replication chaos gate: host a primary AND an async replica, \
             run the bank mix against the primary while the fault plan \
             partitions the change feed (default plan becomes \
             split-brain-window), then heal and audit divergence-then-\
             convergence — lag must RISE under the partition, drain to \
             zero after it, and the replica's ledger must balance exactly \
             at the healed watermark (docs/REPLICATION.md).")

let json_out =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
       ~doc:"With $(b,--repl): write Bench_json schema-v1 rows (figure \
             $(b,repl): feed throughput and catch-up rate) to $(docv), \
             merging into an existing file.")

let profile_out =
  Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE"
       ~doc:"Sample the in-process server with the continuous profiler \
             (default rate) for the soak window and write the collapsed-stack \
             profile to $(docv) — shows where the domains sat while the \
             fault plan was firing.")

(* --- bank workload over the retrying client ------------------------------- *)

let bank_base = 1_000_000

let stop = Atomic.make false

let go = Atomic.make false

let ready = Atomic.make 0

let wait_go () =
  Atomic.incr ready;
  while not (Atomic.get go) do
    Domain.cpu_relax ()
  done

type cstats = {
  mutable transfers : int;
  mutable checks : int;
  mutable skipped : int;
  mutable violations : int;
  mutable errors : int;
  mutable detail : string option;
  mutable retries : int;
  mutable busy : int;
}

let new_cstats () =
  { transfers = 0; checks = 0; skipped = 0; violations = 0; errors = 0;
    detail = None; retries = 0; busy = 0 }

let note st msg =
  st.errors <- st.errors + 1;
  if st.detail = None then st.detail <- Some msg

let has_busy = List.exists (function P.Busy _ -> true | _ -> false)

(* Writer [wid] owns pairs {i | i mod nwriters = wid}.  Replaying a full
   transfer after an ambiguous failure is effect-idempotent because the
   writer owns both accounts: DEL;PUT converges to the target balance
   from any intermediate state a partial earlier attempt left behind. *)
let writer ~port ~pairs ~nwriters ~wid st () =
  let rt =
    C.connect_rt ~port ~read_timeout:0.5 ~max_attempts:30
      ~seed:(0xbad5eed + (wid * 7919)) ()
  in
  let owned =
    List.init pairs Fun.id
    |> List.filter (fun i -> i mod nwriters = wid)
    |> Array.of_list
  in
  let va = Hashtbl.create 16 and vb = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      Hashtbl.replace va i bank_base;
      Hashtbl.replace vb i bank_base)
    owned;
  let rng = Workload.Splitmix.create (0xbad5eed + (wid * 104729)) in
  wait_go ();
  (try
     while not (Atomic.get stop) && Array.length owned > 0 do
       let i = owned.(Workload.Splitmix.below rng (Array.length owned)) in
       let a = (2 * i) + 1 and b = (2 * i) + 2 in
       let na = Hashtbl.find va i - 1 and nb = Hashtbl.find vb i + 1 in
       let cmds = [ P.Del a; P.Put (a, na); P.Del b; P.Put (b, nb) ] in
       let rec exec tries =
         if tries > 10_000 then begin
           note st "transfer shed past settle budget";
           Atomic.set stop true
         end
         else
           match C.rt_pipeline rt cmds with
           | Ok [ _; P.Ok_; _; P.Ok_ ] ->
               Hashtbl.replace va i na;
               Hashtbl.replace vb i nb;
               st.transfers <- st.transfers + 1
           | Ok rs when has_busy rs ->
               Unix.sleepf 0.005;
               exec (tries + 1)
           | Ok rs ->
               note st
                 ("transfer replies: "
                 ^ String.concat " " (List.map P.pp_reply rs));
               Atomic.set stop true
           | Error e ->
               note st ("transfer: " ^ e);
               Atomic.set stop true
       in
       exec 0
     done
   with e -> note st (Printexc.to_string e));
  let r, b = C.rt_stats rt in
  st.retries <- r;
  st.busy <- b;
  C.rt_close rt

let sum_of_mget = function
  | P.Arr [ P.Int x; P.Int y ] -> Ok (Some (x + y))
  | P.Arr [ _; _ ] -> Ok None (* an account mid-transfer *)
  | P.Busy _ -> Ok None (* shed past the retry budget *)
  | r -> Error ("MGET reply: " ^ P.pp_reply r)

let reader ~port ~pairs ~rid st () =
  let rt =
    C.connect_rt ~port ~read_timeout:0.5 ~max_attempts:30
      ~seed:(0x5eed + (rid * 65537)) ()
  in
  let rng = Workload.Splitmix.create (0x5eed + (rid * 65537)) in
  wait_go ();
  (try
     while not (Atomic.get stop) do
       let i = Workload.Splitmix.below rng pairs in
       let a = (2 * i) + 1 and b = (2 * i) + 2 in
       match C.rt_request rt (P.Mget [| a; b |]) with
       | Ok r -> (
           match sum_of_mget r with
           | Ok None -> st.skipped <- st.skipped + 1
           | Ok (Some sum) ->
               st.checks <- st.checks + 1;
               if sum <> 2 * bank_base && sum <> (2 * bank_base) - 1 then begin
                 st.violations <- st.violations + 1;
                 if st.detail = None then
                   st.detail <-
                     Some
                       (Printf.sprintf
                          "pair (%d,%d): sum %d outside {%d,%d} — \
                           non-atomic multi-read"
                          a b sum (2 * bank_base)
                          ((2 * bank_base) - 1))
               end
           | Error e ->
               note st e;
               Atomic.set stop true)
       | Error e ->
           note st ("mget: " ^ e);
           Atomic.set stop true
     done
   with e -> note st (Printexc.to_string e));
  let r, b = C.rt_stats rt in
  st.retries <- r;
  st.busy <- b;
  C.rt_close rt

(* Quiescent conservation audit, directly against a mount: every domain
   is joined when this runs, so the read is exact. *)
let conservation_audit mount ~pairs =
  let missing = ref 0 and total = ref 0 in
  (match
     Server.Mount.exec mount (P.Mget (Array.init (2 * pairs) (fun j -> j + 1)))
   with
   | P.Arr items ->
       List.iter
         (function P.Int v -> total := !total + v | _ -> incr missing)
         items
   | r -> failwith ("audit reply: " ^ P.pp_reply r));
  if !missing > 0 then Error (Printf.sprintf "%d account(s) missing" !missing)
  else if !total <> 2 * bank_base * pairs then
    Error
      (Printf.sprintf "total %d, expected %d (money %s)" !total
         (2 * bank_base * pairs)
         (if !total < 2 * bank_base * pairs then "destroyed" else "created"))
  else Ok !total

let seed_ledger mount ~pairs =
  for i = 0 to pairs - 1 do
    (match Server.Mount.exec mount (P.Put ((2 * i) + 1, bank_base)) with
     | P.Ok_ -> ()
     | r -> failwith ("seed: " ^ P.pp_reply r));
    match Server.Mount.exec mount (P.Put ((2 * i) + 2, bank_base)) with
    | P.Ok_ -> ()
    | r -> failwith ("seed: " ^ P.pp_reply r)
  done

(* --- the replication gate -------------------------------------------------- *)

(* Divergence-then-convergence: a primary/replica pair with the bank mix
   on the primary while the plan partitions the change feed (repl.send).
   The orphaned stream cursor keeps the lag gauges honest through the
   window, so the audit can demand the full arc: lag RISES while the
   wire is down, the healed replica drains it to zero, and its ledger
   then balances to the stamp. *)
let run_repl ~plan ~structure ~duration ~pairs ~writers ~readers ~srv_domains
    ~ci ~json_out =
  let map = Harness.Registry.find structure in
  Verlib.reset ();
  let pmount = Server.Mount.mount ~n_hint:(4 * pairs) map in
  seed_ledger pmount ~pairs;
  let config =
    {
      Server.default_config with
      Server.port = 0;
      domains = srv_domains;
      census_interval = 0.05;
      write_timeout = 2.;
      idle_timeout = 10.;
      retry_after_ms = 5;
    }
  in
  let primary = Server.create ~config pmount in
  Server.start primary;
  let pport = Server.port primary in
  let rmount = Server.Mount.mount ~n_hint:(4 * pairs) map in
  let replica =
    Server.create
      ~config:{ config with Server.replica_of = Some ("127.0.0.1", pport) }
      rmount
  in
  Server.start replica;
  Printf.printf
    "soak(repl): plan=%s structure=%s primary=%d replica=%d %.1fs %d pair(s)\n%!"
    (Fault.plan_to_string plan) structure pport (Server.port replica) duration
    pairs;
  let wstats = Array.init writers (fun _ -> new_cstats ()) in
  let rstats = Array.init readers (fun _ -> new_cstats ()) in
  let ds =
    List.init writers (fun w ->
        Domain.spawn
          (writer ~port:pport ~pairs ~nwriters:writers ~wid:w wstats.(w)))
    @ List.init readers (fun r ->
          Domain.spawn (reader ~port:pport ~pairs ~rid:r rstats.(r)))
  in
  let n = List.length ds in
  let t_wait = Unix.gettimeofday () +. 10. in
  while Atomic.get ready < n && Unix.gettimeofday () < t_wait do
    Unix.sleepf 0.002
  done;
  Fault.arm plan;
  Atomic.set go true;
  (* Sample the lag gauges through the window: the partition severs the
     stream, the orphaned cursor pins the acked mark, and the writers
     keep moving the tail — divergence must be visible here. *)
  let max_lag_s = ref 0 and max_lag_b = ref 0 in
  let t0 = Unix.gettimeofday () in
  let records0 = Repl.records_total () in
  while Unix.gettimeofday () -. t0 < duration do
    max_lag_s := max !max_lag_s (Repl.lag_stamps ());
    max_lag_b := max !max_lag_b (Repl.lag_bytes ());
    Unix.sleepf 0.01
  done;
  Atomic.set stop true;
  List.iter Domain.join ds;
  let elapsed = Unix.gettimeofday () -. t0 in
  let records_fed = Repl.records_total () - records0 in
  (* Heal: disarm releases any still-latched window; the replica loop
     redials, resubscribes (resyncing if it fell below the trim) and
     drains the backlog, acking as it goes. *)
  Fault.disarm ();
  let t_heal = Unix.gettimeofday () in
  let caught = ref false in
  while
    (not !caught)
    && Unix.gettimeofday () < t_heal +. 30.
  do
    if Repl.lag_stamps () = 0 && Repl.lag_bytes () = 0 then caught := true
    else Unix.sleepf 0.01
  done;
  let catchup_s = Unix.gettimeofday () -. t_heal in
  Server.stop replica;
  Server.stop primary;
  (* ---- verdicts ---- *)
  let fired = Fault.fired_total () in
  let stalled = Fault.stalled_now () in
  let sum f arr = Array.fold_left (fun acc s -> acc + f s) 0 arr in
  let transfers = sum (fun s -> s.transfers) wstats in
  let checks = sum (fun s -> s.checks) rstats in
  let violations =
    sum (fun s -> s.violations) wstats + sum (fun s -> s.violations) rstats
  in
  let errors = sum (fun s -> s.errors) wstats + sum (fun s -> s.errors) rstats in
  let retries =
    sum (fun s -> s.retries) wstats + sum (fun s -> s.retries) rstats
  in
  Array.iter
    (fun s -> Option.iter (Printf.eprintf "  detail: %s\n") s.detail)
    (Array.append wstats rstats);
  let census_viol =
    Server.census_violations_total primary
    + Server.census_violations_total replica
  in
  let final_ok srv =
    match Server.final_census srv with
    | Some c -> c.Verlib.Chainscan.c_violation_count = 0
    | None -> false
  in
  Printf.printf
    "under fire: transfers=%d checks=%d violations=%d errors=%d records=%d\n"
    transfers checks violations errors records_fed;
  Printf.printf
    "divergence: max_lag=%d stamps / %dB  resyncs=%d dups_dropped=%d\n"
    !max_lag_s !max_lag_b (Repl.resyncs_total ())
    (Repl.dup_dropped_total ());
  Printf.printf
    "convergence: caught_up=%b in %.2fs  applied=%d  watermark=%d\n"
    !caught catchup_s (Repl.applied_total ()) (Repl.watermark_now ());
  let fail = ref false in
  let check ok msg =
    if not ok then begin
      Printf.printf "FAIL: %s\n" msg;
      fail := true
    end
  in
  check (fired > 0) "plan never fired (no fault injected — dead soak)";
  check (stalled = 0) "domains still parked after disarm";
  check (transfers > 0) "no transfers completed under fire (no progress)";
  check (checks > 0) "no atomic snapshot checks completed under fire";
  check (violations = 0) "snapshot invariant violated";
  check (errors = 0) "client errors survived the retry layer";
  check (records_fed > 0) "the change feed carried no records";
  check (!max_lag_s > 0)
    "replication lag never rose — the partition did not bite the feed";
  check !caught "replication lag did not drain to zero after the heal";
  check (census_viol = 0)
    (Printf.sprintf "%d census invariant violation(s)" census_viol);
  check (final_ok primary) "primary final census missing or violated";
  check (final_ok replica) "replica final census missing or violated";
  (match conservation_audit pmount ~pairs with
   | Ok total -> Printf.printf "primary conservation audit: OK (total %d)\n" total
   | Error e -> check false ("primary conservation audit: " ^ e));
  (match conservation_audit rmount ~pairs with
   | Ok total ->
       Printf.printf
         "replica conservation audit: OK (total %d at the healed watermark)\n"
         total
   | Error e -> check false ("replica conservation audit: " ^ e));
  (* Figure rows: "feed" is feed throughput; "catchup" folds the
     catch-up time into the denominator, so a slower post-heal drain
     reads as a (one-sided-gated) throughput regression. *)
  (match json_out with
   | None -> ()
   | Some path ->
       let row r_label r_mops =
         {
           Harness.Bench_json.r_figure = "repl";
           r_label;
           r_mops;
           r_p50_us = 0.;
           r_p99_us = 0.;
           r_chain_max = 0;
           r_chain_p99 = 0;
           r_indirect_links = 0;
           r_reclaimable = 0;
           r_violations = violations + census_viol;
           r_space_bytes = 0.;
           r_retries = retries;
           r_shed = Server.shed_count primary;
           r_giveups = 0;
           r_walk_saturation = 0;
           r_phases = [];
           r_alloc_bytes_per_op = 0.;
           r_gc_minor = 0;
           r_gc_major = 0;
         }
       in
       let rows =
         [
           row "feed" (float_of_int records_fed /. elapsed /. 1e6);
           row "catchup"
             (float_of_int records_fed /. (elapsed +. catchup_s) /. 1e6);
         ]
       in
       let doc =
         match
           if Sys.file_exists path then Harness.Bench_json.read_file path
           else Error "absent"
         with
         | Ok d -> Harness.Bench_json.merge_rows d rows
         | Error _ ->
             Harness.Bench_json.make_doc ~label:"repl"
               ~scale:(if ci then "ci" else "quick")
               rows
       in
       Harness.Bench_json.write_file path doc;
       Printf.printf "bench_json: repl rows -> %s\n" path);
  if !fail then begin
    print_endline "soak(repl): FAIL";
    exit 1
  end
  else print_endline "soak(repl): OK"

(* --- the gate -------------------------------------------------------------- *)

let run plan_spec structure duration pairs writers readers srv_domains ci repl
    json_out profile_out =
  let duration = if ci then min duration 1.0 else duration in
  let pairs = max 1 pairs in
  let writers = max 1 writers and readers = max 1 readers in
  (* The replication gate defaults to the partition preset; an explicit
     --plan still wins. *)
  let plan_spec =
    if repl && plan_spec = "crash-stop-locker" then "split-brain-window"
    else plan_spec
  in
  let plan =
    match Fault.find_plan plan_spec with
    | Ok p -> p
    | Error e ->
        prerr_endline ("verlib-soak: bad plan: " ^ e);
        exit 2
  in
  if repl then
    run_repl ~plan ~structure ~duration ~pairs ~writers ~readers ~srv_domains
      ~ci ~json_out
  else begin
    let map = Harness.Registry.find structure in
    Verlib.reset ();
    let mount = Server.Mount.mount ~n_hint:(4 * pairs) map in
    (* Seed the ledger before anything can fail. *)
    seed_ledger mount ~pairs;
  let config =
    {
      Server.default_config with
      Server.port = 0;
      domains = srv_domains;
      census_interval = 0.05;
      write_timeout = 2.;
      idle_timeout = 10.;
      retry_after_ms = 5;
    }
  in
  let srv = Server.create ~config mount in
  Server.start srv;
  let port = Server.port srv in
  Printf.printf "soak: plan=%s structure=%s port=%d %.1fs %d pair(s)\n%!"
    (Fault.plan_to_string plan) structure port duration pairs;
  let wstats = Array.init writers (fun _ -> new_cstats ()) in
  let rstats = Array.init readers (fun _ -> new_cstats ()) in
  let ds =
    List.init writers (fun w ->
        Domain.spawn (writer ~port ~pairs ~nwriters:writers ~wid:w wstats.(w)))
    @ List.init readers (fun r ->
          Domain.spawn (reader ~port ~pairs ~rid:r rstats.(r)))
  in
  let n = List.length ds in
  let t_wait = Unix.gettimeofday () +. 10. in
  while Atomic.get ready < n && Unix.gettimeofday () < t_wait do
    Unix.sleepf 0.002
  done;
  if profile_out <> None then Verlib.Obs.Profile.start ();
  (* Light the fire only once every client is connected and parked. *)
  Fault.arm plan;
  Atomic.set go true;
  Unix.sleepf duration;
  Atomic.set stop true;
  List.iter Domain.join ds;
  (* Disarm BEFORE the server drain: crash-stopped loops resume, so
     the joins inside [Server.stop] terminate; the grace sleep lets
     them finish their interrupted critical sections. *)
  Fault.disarm ();
  Unix.sleepf 0.1;
  Server.stop srv;
  (match profile_out with
   | None -> ()
   | Some path ->
       Verlib.Obs.Profile.stop ();
       Verlib.Obs.Profile.write_collapsed path;
       Printf.eprintf "profile: %d sample(s) -> %s\n%!"
         (Verlib.Obs.Profile.samples_total ()) path);
  (* ---- verdicts ---- *)
  let fired = Fault.fired_total () in
  let stalled = Fault.stalled_now () in
  let sum f arr = Array.fold_left (fun acc s -> acc + f s) 0 arr in
  let transfers = sum (fun s -> s.transfers) wstats in
  let checks = sum (fun s -> s.checks) rstats in
  let skipped = sum (fun s -> s.skipped) rstats in
  let violations =
    sum (fun s -> s.violations) wstats + sum (fun s -> s.violations) rstats
  in
  let errors = sum (fun s -> s.errors) wstats + sum (fun s -> s.errors) rstats in
  let retries =
    sum (fun s -> s.retries) wstats + sum (fun s -> s.retries) rstats
  in
  let busy = sum (fun s -> s.busy) wstats + sum (fun s -> s.busy) rstats in
  Array.iter
    (fun s -> Option.iter (Printf.eprintf "  detail: %s\n") s.detail)
    (Array.append wstats rstats);
  let audit = conservation_audit mount ~pairs in
  let census_viol = Server.census_violations_total srv in
  let final_ok =
    match Server.final_census srv with
    | Some c -> c.Verlib.Chainscan.c_violation_count = 0
    | None -> false
  in
  Printf.printf
    "under fire: transfers=%d checks=%d inflight_skips=%d violations=%d \
     errors=%d\n"
    transfers checks skipped violations errors;
  Printf.printf
    "resilience: faults_fired=%d stalled_after_disarm=%d retries=%d busy=%d \
     shed=%d deadline_kills=%d reconnects=%d\n"
    fired stalled retries busy (Server.shed_count srv)
    (Server.deadline_kill_count srv)
    (C.reconnect_total ());
  let fail = ref false in
  let check ok msg =
    if not ok then begin
      Printf.printf "FAIL: %s\n" msg;
      fail := true
    end
  in
  check (fired > 0) "plan never fired (no fault injected — dead soak)";
  check (stalled = 0) "domains still parked after disarm";
  check (transfers > 0) "no transfers completed under fire (no progress)";
  check (checks > 0) "no atomic snapshot checks completed under fire";
  check (violations = 0) "snapshot invariant violated";
  check (errors = 0) "client errors survived the retry layer";
  check (census_viol = 0)
    (Printf.sprintf "%d census invariant violation(s)" census_viol);
  check final_ok "final quiescent census missing or violated";
  (match audit with
   | Ok total -> Printf.printf "conservation audit: OK (total %d)\n" total
   | Error e -> check false ("conservation audit: " ^ e));
  if !fail then begin
    print_endline "soak: FAIL";
    exit 1
  end
  else print_endline "soak: OK"
  end

let cmd =
  let doc = "run the bank workload against an in-process server under a fault \
             plan, then audit (chaos gate)" in
  Cmd.v
    (Cmd.info "verlib_soak" ~doc)
    Term.(
      const run $ plan_arg $ structure $ duration $ pairs $ writers $ readers
      $ srv_domains $ ci $ repl $ json_out $ profile_out)

let () = exit (Cmd.eval cmd)
