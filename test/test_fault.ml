(* Tests for the chaos layer (lib/fault) and the resilience machinery
   it exercises: plan grammar round-trips, deterministic seeded replay
   (qcheck), trigger semantics, the Theorem 6.1 crash-stop-locker
   schedule (peers progress via helping), a stalled reclaimer driving
   [epoch_lag] up and back down, wire-fault fuzz against a live server
   proving effective exactly-once for idempotent commands, and the
   [-BUSY] admission door with recovery. *)

module F = Fault
module S = Server
module P = Server.Protocol
module C = Server.Client

(* A private point for trigger tests — never hit by library code. *)
let tp = F.Point.make "test.point"

let mkplan ?(seed = 1) rules = F.plan ~name:"test" ~seed rules

let rule point trigger action =
  { F.r_point = point; r_trigger = trigger; r_action = action }

(* --- plan grammar ------------------------------------------------------- *)

let test_plan_roundtrip () =
  (* every preset round-trips through the grammar *)
  List.iter
    (fun (name, spec) ->
      match F.plan_of_string spec with
      | Error e -> Alcotest.fail (name ^ ": " ^ e)
      | Ok p -> (
          let s = F.plan_to_string p in
          match F.plan_of_string s with
          | Error e -> Alcotest.fail (name ^ " (canonical): " ^ e)
          | Ok p' ->
              Alcotest.(check string)
                (name ^ " canonical fixpoint") s (F.plan_to_string p')))
    F.presets;
  (* a spec exercising every action and trigger *)
  let spec =
    "seed=9;a:pause=5@once;b:stall@nth=3;c:yield=7@every=2;d:fail=boom@p=0.25;\
     e:shortwrite=4;f:econnreset@always;g:eagain=2;h:partition=250;\
     i:dup@p=0.5;j:reorder"
  in
  match F.plan_of_string spec with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int) "seed parsed" 9 p.F.p_seed;
      Alcotest.(check int) "ten rules" 10 (List.length p.F.p_rules);
      let s = F.plan_to_string p in
      (match F.plan_of_string s with
       | Ok p' ->
           Alcotest.(check string) "canonical fixpoint" s (F.plan_to_string p')
       | Error e -> Alcotest.fail e)

let test_plan_errors () =
  let bad spec =
    match F.plan_of_string spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted bad spec: " ^ spec)
  in
  bad "";
  bad "point-without-action";
  bad "x:frobnicate";
  bad "x:pause=notanumber";
  bad "x:stall@p=2.5";
  bad "x:stall@nth=0";
  bad "x:partition=0";
  bad "x:partition=nope";
  (* One action per rule: a comma'd action list is rejected, and the
     error names the offending point and the repeated-point rewrite
     (the grammar's documented limitation, docs/RESILIENCE.md). *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match F.plan_of_string "seed=1;repl.send:dup,reorder" with
   | Ok _ -> Alcotest.fail "accepted a comma'd action list"
   | Error e ->
       Alcotest.(check bool)
         ("error names the point: " ^ e)
         true
         (contains e "repl.send" && contains e "exactly one action"));
  (match F.find_plan "no-such-preset" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "find_plan accepted an unknown name");
  match F.find_plan "crash-stop-locker" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("preset lookup: " ^ e)

(* --- trigger semantics -------------------------------------------------- *)

let count_fires plan n =
  F.arm plan;
  let before = F.fired_at "test.point" in
  for _ = 1 to n do
    F.hit tp
  done;
  F.disarm ();
  F.fired_at "test.point" - before

let test_trigger_once () =
  Alcotest.(check int) "once fires once" 1
    (count_fires (mkplan [ rule "test.point" F.Once (F.Pause 0.) ]) 10)

let test_trigger_nth_every () =
  Alcotest.(check int) "nth=3 fires once in 10" 1
    (count_fires (mkplan [ rule "test.point" (F.Nth 3) (F.Pause 0.) ]) 10);
  Alcotest.(check int) "nth=3 never fires in 2" 0
    (count_fires (mkplan [ rule "test.point" (F.Nth 3) (F.Pause 0.) ]) 2);
  Alcotest.(check int) "every=4 fires thrice in 12" 3
    (count_fires (mkplan [ rule "test.point" (F.Every 4) (F.Pause 0.) ]) 12)

let test_pattern_match () =
  Alcotest.(check int) "prefix pattern matches" 10
    (count_fires (mkplan [ rule "test.*" F.Always (F.Pause 0.) ]) 10);
  Alcotest.(check int) "wildcard matches" 10
    (count_fires (mkplan [ rule "*" F.Always (F.Pause 0.) ]) 10);
  Alcotest.(check int) "other point does not" 0
    (count_fires (mkplan [ rule "lock.acquire" F.Always (F.Pause 0.) ]) 10)

let test_partition_latch () =
  F.arm (mkplan [ rule "test.point" F.Once (F.Partition 0.25) ]);
  (match F.hit tp with
   | () -> Alcotest.fail "partition did not raise"
   | exception F.Injected _ -> ());
  (* the point stays down for the window: every hit and feed_check
     raises, not just the triggering one (reconnects must fail too) *)
  (match F.hit tp with
   | () -> Alcotest.fail "down window did not hold"
   | exception F.Injected _ -> ());
  (match F.feed_check tp with
   | exception F.Injected _ -> ()
   | _ -> Alcotest.fail "feed_check ignored the down window");
  Unix.sleepf 0.3;
  (* window elapsed; the Once trigger is consumed, so the point heals *)
  F.hit tp;
  F.disarm ();
  (* disarm heals a still-open window (generation scoped) *)
  F.arm (mkplan [ rule "test.point" F.Once (F.Partition 60.) ]);
  (match F.hit tp with
   | () -> Alcotest.fail "partition did not raise"
   | exception F.Injected _ -> ());
  F.disarm ();
  F.arm (mkplan [ rule "test.point" (F.Nth 99) (F.Pause 0.) ]);
  F.hit tp;
  F.disarm ()

let test_feed_check_surfaces_stream_actions () =
  F.arm (mkplan [ rule "test.point" F.Always F.Dup ]);
  (match F.feed_check tp with
   | Some F.Dup -> ()
   | _ -> Alcotest.fail "expected Some Dup");
  (* [hit] treats the stream-layer actions as no-ops *)
  F.hit tp;
  F.disarm ();
  F.arm (mkplan [ rule "test.point" F.Always F.Reorder ]);
  (match F.feed_check tp with
   | Some F.Reorder -> ()
   | _ -> Alcotest.fail "expected Some Reorder");
  F.disarm ();
  (match F.feed_check tp with
   | None -> ()
   | Some _ -> Alcotest.fail "disarmed feed_check must be None")

let test_fail_action () =
  F.arm (mkplan [ rule "test.point" F.Always (F.Fail (F.Injected "boom")) ]);
  (match F.hit tp with
   | () -> Alcotest.fail "fail rule did not raise"
   | exception F.Injected m -> Alcotest.(check string) "message" "boom" m);
  F.disarm ()

let test_io_check () =
  F.arm (mkplan [ rule "test.point" F.Always (F.Short_write 5) ]);
  (match F.io_check tp with
   | Some (F.Short_write 5) -> ()
   | _ -> Alcotest.fail "io_check did not surface the short write");
  (* [hit] ignores I/O actions: no raise, still counted *)
  let before = F.fired_at "test.point" in
  F.hit tp;
  Alcotest.(check int) "hit counts I/O rules" (before + 1)
    (F.fired_at "test.point");
  F.disarm ();
  Alcotest.(check bool) "disarmed io_check is None" true (F.io_check tp = None)

let test_disarmed_noop () =
  F.disarm ();
  let before = F.fired_total () in
  for _ = 1 to 10_000 do
    F.hit tp
  done;
  Alcotest.(check int) "no fires while disarmed" before (F.fired_total ());
  Alcotest.(check int) "nobody parked" 0 (F.stalled_now ())

(* --- qcheck: seeded replay determinism ---------------------------------- *)

let fire_bits plan n =
  F.arm plan;
  let bits = Array.make n false in
  let before = ref (F.fired_at "test.point") in
  for i = 0 to n - 1 do
    F.hit tp;
    let now = F.fired_at "test.point" in
    bits.(i) <- now > !before;
    before := now
  done;
  F.disarm ();
  bits

let test_prob_replay_deterministic =
  QCheck.Test.make ~count:50 ~name:"seeded Prob plans replay identically"
    QCheck.(pair small_nat (float_range 0.05 0.95))
    (fun (seed, p) ->
      let plan = mkplan ~seed [ rule "test.point" (F.Prob p) (F.Pause 0.) ] in
      fire_bits plan 100 = fire_bits plan 100)

let test_prob_rate_sane () =
  let plan = mkplan ~seed:42 [ rule "test.point" (F.Prob 0.5) (F.Pause 0.) ] in
  let fired =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
      (fire_bits plan 400)
  in
  Alcotest.(check bool) "p=0.5 fires roughly half the time" true
    (fired > 100 && fired < 300)

(* --- Theorem 6.1: crash-stop locker, peers progress via helping --------- *)

let wait_until ?(timeout = 5.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

let test_crash_stop_helping () =
  let open Flock in
  let lock = Lock.create ~mode:Lock.Lock_free () in
  let counter = Fatomic.make 0 in
  let incr_cs () = Fatomic.store counter (Fatomic.load counter + 1) in
  F.arm (mkplan [ rule "lock.acquire" F.Once F.Stall_forever ]);
  let victim = Domain.spawn (fun () -> Lock.with_lock lock incr_cs) in
  Alcotest.(check bool) "victim parked inside its critical section" true
    (wait_until (fun () -> F.stalled_now () = 1));
  let helps0 = Lock.help_count () in
  let peers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 50 do
              Lock.with_lock lock incr_cs
            done))
  in
  List.iter Domain.join peers;
  (* peers finished while the lock owner is still crash-stopped: the
     first peer helped the victim's section through, then everyone made
     their own progress — Theorem 6.1's liveness claim. *)
  Alcotest.(check int) "victim still parked" 1 (F.stalled_now ());
  Alcotest.(check int) "every increment exactly once" 151
    (Fatomic.load counter);
  Alcotest.(check bool) "the helping path ran" true
    (Lock.help_count () > helps0);
  F.disarm ();
  Domain.join victim;
  Alcotest.(check int) "victim released on disarm" 0 (F.stalled_now ())

(* --- stalled reclaimer: epoch_lag climbs, then recovers ----------------- *)

let test_stalled_reclaimer () =
  let open Flock in
  let fired0 = F.fired_at "epoch.enter" in
  F.arm (mkplan [ rule "epoch.enter" F.Once (F.Pause 0.3) ]);
  let laggard = Domain.spawn (fun () -> Epoch.with_epoch (fun () -> ())) in
  Alcotest.(check bool) "laggard pinned its epoch" true
    (wait_until (fun () -> F.fired_at "epoch.enter" > fired0));
  (* churn epochs from the main domain while the laggard is pinned *)
  let max_lag = ref 0 in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 0.2 do
    Epoch.with_epoch (fun () -> ());
    max_lag := max !max_lag (Epoch.epoch_lag ())
  done;
  Domain.join laggard;
  F.disarm ();
  Alcotest.(check bool) "epoch_lag climbed while the reclaimer stalled" true
    (!max_lag >= 1);
  for _ = 1 to 4 do
    Epoch.with_epoch (fun () -> ())
  done;
  Alcotest.(check int) "epoch_lag recovered after release" 0 (Epoch.epoch_lag ())

(* --- live server helpers ------------------------------------------------ *)

let start_server ?(domains = 4) ?(census_interval = 0.) ?(max_conns = 0) map =
  Verlib.reset ();
  let mount = S.Mount.mount ~n_hint:1024 map in
  let config =
    {
      S.default_config with
      S.port = 0;
      domains;
      census_interval;
      max_conns;
    }
  in
  let srv = S.create ~config mount in
  S.start srv;
  srv

(* --- wire-fault fuzz: idempotent retry is effectively exactly-once ------ *)

let test_wire_fuzz_exactly_once () =
  let srv = start_server (module Dstruct.Btree) in
  let port = S.port srv in
  let finally () =
    F.disarm ();
    S.stop srv
  in
  Fun.protect ~finally @@ fun () ->
  F.arm
    (mkplan ~seed:23
       [
         rule "client.write" (F.Prob 0.12) F.Econnreset;
         rule "client.read" (F.Prob 0.12) F.Econnreset;
         rule "server.write" (F.Prob 0.08) (F.Short_write 7);
       ]);
  let rt = C.connect_rt ~port ~read_timeout:1.0 ~max_attempts:40 ~seed:7 () in
  let n = 120 in
  for k = 1 to n do
    match C.rt_request rt (P.Put (k, k * 10)) with
    | Ok (P.Ok_ | P.Exists) -> ()
    | Ok r -> Alcotest.fail ("PUT: " ^ P.pp_reply r)
    | Error e -> Alcotest.fail ("PUT: " ^ e)
  done;
  for k = 1 to n do
    match C.rt_request rt (P.Get k) with
    | Ok (P.Int v) ->
        if v <> k * 10 then
          Alcotest.failf "GET %d: value %d survived as the wrong version" k v
    | Ok r -> Alcotest.fail ("GET: " ^ P.pp_reply r)
    | Error e -> Alcotest.fail ("GET: " ^ e)
  done;
  let retries, _busy = C.rt_stats rt in
  C.rt_close rt;
  F.disarm ();
  (* audit over a clean connection: every key exactly once *)
  let conn = C.connect ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  (match C.request conn P.Size with
   | Ok (P.Int sz) -> Alcotest.(check int) "every key exactly once" n sz
   | Ok r -> Alcotest.fail ("SIZE: " ^ P.pp_reply r)
   | Error e -> Alcotest.fail ("SIZE: " ^ e));
  Alcotest.(check bool) "the flaky wire actually forced retries" true
    (retries > 0)

(* --- crash-stop locker against a live served structure ------------------ *)

let test_crash_stop_served_census () =
  let srv =
    start_server ~domains:4 ~census_interval:0.02 (module Dstruct.Btree)
  in
  let port = S.port srv in
  (match F.find_plan "crash-stop-locker" with
   | Ok p -> F.arm p
   | Error e -> Alcotest.fail e);
  let failed = ref 0 in
  (Fun.protect ~finally:F.disarm @@ fun () ->
   let rt = C.connect_rt ~port ~read_timeout:0.5 ~max_attempts:40 ~seed:3 () in
   for k = 1 to 200 do
     match C.rt_request rt (P.Put (k, k)) with
     | Ok (P.Ok_ | P.Exists) -> ()
     | _ -> incr failed
   done;
   C.rt_close rt);
  (* disarmed: the parked loop resumes, the drain below joins it *)
  Unix.sleepf 0.05;
  S.stop srv;
  Alcotest.(check int) "puts landed despite the crash-stopped locker" 0 !failed;
  Alcotest.(check bool) "the fault fired" true (F.fired_at "lock.acquire" > 0);
  Alcotest.(check int) "no one left parked" 0 (F.stalled_now ());
  Alcotest.(check int) "census clean" 0 (S.census_violations_total srv)

(* --- the -BUSY admission door + recovery -------------------------------- *)

let test_busy_door () =
  let srv = start_server ~domains:1 ~max_conns:1 (module Dstruct.Btree) in
  let port = S.port srv in
  Fun.protect ~finally:(fun () -> S.stop srv) @@ fun () ->
  let held = C.connect ~retries:20 ~port () in
  (match C.request held P.Ping with
   | Ok P.Pong -> ()
   | _ -> Alcotest.fail "held connection ping");
  (* the door refuses a second simultaneous connection with -BUSY *)
  let c2 = C.connect ~port () in
  (match C.read_reply c2 with
   | Ok (P.Busy ms) ->
       Alcotest.(check bool) "retry hint present" true (ms >= 0)
   | Ok r -> Alcotest.fail ("expected -BUSY at the door, got " ^ P.pp_reply r)
   | Error e -> Alcotest.fail ("door reply: " ^ e));
  C.close c2;
  Alcotest.(check bool) "shed counted" true (S.shed_count srv >= 1);
  (* release the held connection: the next arrival is served (recovery) *)
  ignore (C.request held P.Quit);
  C.close held;
  let recovered =
    wait_until ~timeout:5.0 (fun () ->
        let c = C.connect ~retries:20 ~port () in
        let ok =
          match C.request c P.Ping with Ok P.Pong -> true | _ -> false
        in
        C.close c;
        ok)
  in
  Alcotest.(check bool) "served again after the held conn quit" true recovered

(* --- suite -------------------------------------------------------------- *)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ test_prob_replay_deterministic ]

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "grammar round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "grammar rejects junk" `Quick test_plan_errors;
        ] );
      ( "triggers",
        [
          Alcotest.test_case "once" `Quick test_trigger_once;
          Alcotest.test_case "nth / every" `Quick test_trigger_nth_every;
          Alcotest.test_case "point patterns" `Quick test_pattern_match;
          Alcotest.test_case "fail raises" `Quick test_fail_action;
          Alcotest.test_case "partition latches a down window" `Quick
            test_partition_latch;
          Alcotest.test_case "feed_check surfaces stream actions" `Quick
            test_feed_check_surfaces_stream_actions;
          Alcotest.test_case "io_check surfaces I/O actions" `Quick
            test_io_check;
          Alcotest.test_case "disarmed is a no-op" `Quick test_disarmed_noop;
        ] );
      ("determinism", qsuite @ [ Alcotest.test_case "p=0.5 rate sane" `Quick test_prob_rate_sane ]);
      ( "crash-stop",
        [
          Alcotest.test_case "peers progress via helping (Thm 6.1)" `Quick
            test_crash_stop_helping;
          Alcotest.test_case "served structure, census clean" `Quick
            test_crash_stop_served_census;
        ] );
      ( "reclamation",
        [
          Alcotest.test_case "stalled reclaimer: lag up then down" `Quick
            test_stalled_reclaimer;
        ] );
      ( "wire",
        [
          Alcotest.test_case "flaky wire is exactly-once in effect" `Quick
            test_wire_fuzz_exactly_once;
          Alcotest.test_case "-BUSY door + recovery" `Quick test_busy_door;
        ] );
    ]
