(* Tests for the replication plane (lib/repl and the server's
   SUBSCRIBE/SYNC/REPLSTATS/PROMOTE machinery): feed capture at the
   commit tap (single writes and batch-atomic MULTI/EXEC records), the
   bounded log's laggard/resync contract, the apply engine's dedup and
   gap refusal, watermark monotonicity under a fault-plan-driven
   duplicating sender, a live primary→replica pair (SYNC bootstrap,
   streamed convergence, READONLY refusal, WATCH, REPLSTATS and PROMOTE
   failover), and a replica that redials from SYNC when a fake primary
   skips a seq. *)

module S = Server
module P = Server.Protocol
module C = Server.Client
module F = Fault

let mk_store ?(n_hint = 1024) () =
  let h = Dstruct.Btree.create ~n_hint () in
  Txn.Store.create (module Dstruct.Btree) h

(* --- the commit tap ------------------------------------------------------ *)

let test_feed_capture () =
  Verlib.reset ();
  let store = mk_store () in
  let log = Repl.Log.create ~capacity:64 () in
  Repl.Log.tap log store;
  ignore (Txn.put store 1 10);
  ignore (Txn.put store 2 20);
  ignore (Txn.del store 2);
  (* a whole MULTI/EXEC batch must land as ONE record at its stamp *)
  (match Txn.exec store [ Txn.Put (3, 30); Txn.Put (4, 40); Txn.Del 1 ] with
   | Txn.Committed _ -> ()
   | Txn.Aborted _ -> Alcotest.fail "uncontended batch aborted");
  (match Repl.Log.read_after log ~seq:0 with
   | `Resync -> Alcotest.fail "resync on a fresh log"
   | `Records rs ->
       Alcotest.(check int) "four records" 4 (List.length rs);
       (* dense seqs; strictly increasing stamps (single writer) *)
       ignore
         (List.fold_left
            (fun (seq, stamp) r ->
              Alcotest.(check int) "dense seq" (seq + 1) r.Repl.r_seq;
              Alcotest.(check bool)
                "stamps increase" true
                (r.Repl.r_stamp > stamp);
              (r.Repl.r_seq, r.Repl.r_stamp))
            (0, 0) rs);
       let batch = List.nth rs 3 in
       Alcotest.(check int) "batch-atomic record" 3
         (List.length batch.Repl.r_writes);
       Alcotest.(check bool) "delete rides as None" true
         (List.exists (fun (k, v) -> k = 1 && v = None) batch.Repl.r_writes));
  Txn.clear_commit_observer store

let test_log_resync_when_trimmed () =
  let log = Repl.Log.create ~capacity:16 () in
  for i = 1 to 100 do
    Repl.Log.append log ~stamp:i [ (i, Some i) ]
  done;
  Alcotest.(check int) "tail seq" 100 (Repl.Log.tail_seq log);
  (match Repl.Log.read_after log ~seq:0 with
   | `Resync -> ()
   | `Records _ -> Alcotest.fail "laggard below the trim must resync");
  match Repl.Log.read_after log ~seq:95 with
  | `Records rs -> Alcotest.(check int) "recent suffix" 5 (List.length rs)
  | `Resync -> Alcotest.fail "recent cursor forced to resync"

(* --- the apply engine ---------------------------------------------------- *)

let record seq stamp writes =
  { Repl.r_seq = seq; r_stamp = stamp; r_writes = writes }

let test_apply_dedup_and_gap () =
  Verlib.reset ();
  let store = mk_store () in
  let a = Repl.Apply.create store in
  let dup0 = Repl.dup_dropped_total () in
  let applied0 = Repl.applied_total () in
  (match Repl.Apply.offer a (record 1 5 [ (1, Some 10) ]) with
   | `Applied -> ()
   | _ -> Alcotest.fail "r1 not applied");
  (match Repl.Apply.offer a (record 1 5 [ (1, Some 10) ]) with
   | `Dup -> ()
   | _ -> Alcotest.fail "duplicate not dropped");
  Alcotest.(check int) "repl_dup_dropped counts" (dup0 + 1)
    (Repl.dup_dropped_total ());
  (* seq 2 never came: seq 3 is a gap, and installs nothing *)
  (match Repl.Apply.offer a (record 3 9 [ (3, Some 30) ]) with
   | `Gap -> ()
   | _ -> Alcotest.fail "gap not refused");
  Alcotest.(check int) "cursor stays" 1 (Repl.Apply.last_seq a);
  Alcotest.(check int) "watermark stays" 5 (Repl.Apply.watermark a);
  Alcotest.(check int) "last stamp stays" 5 (Repl.Apply.last_stamp a);
  Alcotest.(check (option int)) "gap record not installed" None
    (Txn.get store 3);
  Alcotest.(check int) "one record applied" (applied0 + 1)
    (Repl.applied_total ());
  (* the resync's snapshot moves the cursor; the feed goes on from it *)
  Repl.Apply.reset a ~seq:2 ~stamp:7;
  (match Repl.Apply.offer a (record 3 9 [ (3, Some 30) ]) with
   | `Applied -> ()
   | _ -> Alcotest.fail "next seq after the reset not applied");
  Alcotest.(check int) "cursor" 3 (Repl.Apply.last_seq a);
  Alcotest.(check int) "watermark" 9 (Repl.Apply.watermark a);
  Alcotest.(check (option int)) "state installed" (Some 30) (Txn.get store 3)

(* A [txn.commit] fault on the apply path releases the latches with
   nothing installed and the record installs again; a [repl.apply]
   fault escapes with the record unapplied, so the redelivered record
   installs. *)
let test_apply_under_faults () =
  Verlib.reset ();
  let store = mk_store () in
  let a = Repl.Apply.create store in
  let arm spec =
    match F.plan_of_string spec with
    | Ok p -> F.arm p
    | Error e -> Alcotest.fail e
  in
  arm "seed=5;txn.commit:fail@p=0.5";
  for i = 1 to 200 do
    match Repl.Apply.offer a (record i i [ (i, Some i); (i + 1000, Some (-i)) ]) with
    | `Applied -> ()
    | _ -> Alcotest.fail "in-order record not applied"
  done;
  let fired = F.fired_at "txn.commit" in
  F.disarm ();
  Alcotest.(check bool) "commit faults fired" true (fired > 0);
  Alcotest.(check bool) "no latch leaked" true (Txn.Store.quiescent store);
  for i = 1 to 200 do
    if Txn.mget store [| i; i + 1000 |] <> [| Some i; Some (-i) |] then
      Alcotest.failf "record %d not installed whole" i
  done;
  arm "repl.apply:fail@once";
  let r = record 201 201 [ (5000, Some 1) ] in
  (match Repl.Apply.offer a r with
   | exception F.Injected _ -> ()
   | _ -> Alcotest.fail "repl.apply fault did not fire");
  F.disarm ();
  (match Repl.Apply.offer a r with
   | `Applied -> ()
   | _ -> Alcotest.fail "redelivered record not applied");
  Alcotest.(check (option int)) "installed" (Some 1) (Txn.get store 5000)

(* --- satellite: watermark monotonicity under duplicated delivery ---------- *)

(* A fault plan drives the same dup interpretation the server's stream
   pump uses; the replica's applied-stamp sequence must stay strictly
   increasing (dedup on seq) and the final state must converge
   exactly. *)
let test_watermark_monotone_under_chaos () =
  Verlib.reset ();
  let primary = mk_store () in
  let log = Repl.Log.create ~capacity:4096 () in
  Repl.Log.tap log primary;
  let n = 64 in
  for i = 0 to n - 1 do
    ignore (Txn.put primary i 100)
  done;
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 400 do
    let a = Random.State.int rng n and b = Random.State.int rng n in
    if a <> b then begin
      let va = Option.value ~default:0 (Txn.get primary a) in
      let vb = Option.value ~default:0 (Txn.get primary b) in
      match
        Txn.exec primary
          [ Txn.Del a; Txn.Put (a, va - 1); Txn.Del b; Txn.Put (b, vb + 1) ]
      with
      | Txn.Committed _ | Txn.Aborted _ -> ()
    end
  done;
  let records =
    match Repl.Log.read_after log ~seq:0 with
    | `Records rs -> rs
    | `Resync -> Alcotest.fail "log trimmed under capacity 4096"
  in
  (match
     F.plan_of_string "seed=11;repl.send:dup@p=0.2"
   with
   | Error e -> Alcotest.fail e
   | Ok p -> F.arm p);
  let replica = mk_store () in
  let a = Repl.Apply.create replica in
  let dup0 = Repl.dup_dropped_total () in
  let last = ref 0 in
  let offer r =
    match Repl.Apply.offer a r with
    | `Applied ->
        let s = Repl.Apply.last_stamp a in
        Alcotest.(check bool)
          "applied stamps strictly increase" true (s > !last);
        last := s
    | `Dup -> ()
    | `Gap -> Alcotest.fail "gap in an in-order feed"
  in
  List.iter
    (fun r ->
      if F.feed_check Repl.fp_send = Some F.Dup then offer r;
      offer r)
    records;
  F.disarm ();
  Alcotest.(check bool) "duplicates were dropped (repl_dup_dropped)" true
    (Repl.dup_dropped_total () > dup0);
  Alcotest.(check int) "cursor reached the tail" (Repl.Log.tail_seq log)
    (Repl.Apply.last_seq a);
  let sum = ref 0 in
  for i = 0 to n - 1 do
    let pv = Txn.get primary i and rv = Txn.get replica i in
    Alcotest.(check bool) (Printf.sprintf "key %d equal" i) true (pv = rv);
    sum := !sum + Option.value ~default:0 rv
  done;
  Alcotest.(check int) "conservation on the replica" (100 * n) !sum;
  Txn.clear_commit_observer primary

(* --- live: primary → replica pair ----------------------------------------- *)

(* A primary and a replica following it.  Each server runs one event
   loop per domain; the replica's SUBSCRIBE stream and any parked WATCH
   live on a loop without holding it, so the domain counts are not
   sized by streams.  The replica follows from its loop 0, so with
   [replica_domains = 1] its apply, resyncs and reads share one loop. *)
let with_pair ?(replica_domains = 2) f =
  Verlib.reset ();
  let pmount = S.Mount.mount ~n_hint:1024 (module Dstruct.Btree) in
  let pconfig =
    { S.default_config with S.port = 0; domains = 4 }
  in
  let primary = S.create ~config:pconfig pmount in
  S.start primary;
  let rmount = S.Mount.mount ~n_hint:1024 (module Dstruct.Btree) in
  let rconfig =
    {
      S.default_config with
      S.port = 0;
      domains = replica_domains;
      replica_of = Some ("127.0.0.1", S.port primary);
    }
  in
  let replica = S.create ~config:rconfig rmount in
  S.start replica;
  let finally () =
    S.stop replica;
    S.stop primary
  in
  Fun.protect ~finally (fun () -> f (S.port primary) (S.port replica))

let req conn c =
  match C.request conn c with
  | Ok r -> r
  | Error e -> Alcotest.fail ("request: " ^ e)

let await ?(timeout = 10.) msg pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail ("timed out awaiting " ^ msg)
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* An integer field of a REPLSTATS/STATS JSON object. *)
let json_int json key =
  let key = Printf.sprintf "\"%s\":" key in
  let rec find i =
    if i + String.length key > String.length json then
      Alcotest.failf "no %s in %s" key json
    else if String.sub json i (String.length key) = key then
      i + String.length key
    else find (i + 1)
  in
  let i = find 0 in
  Scanf.sscanf (String.sub json i (String.length json - i)) "%d" Fun.id

let replstats conn =
  match req conn P.Replstats with
  | P.Bulk json -> json
  | r -> Alcotest.fail ("REPLSTATS: " ^ P.pp_reply r)

let test_pair_converges_readonly_promote () =
  with_pair @@ fun pport rport ->
  let pc = C.connect ~retries:20 ~port:pport () in
  let rc = C.connect ~retries:20 ~port:rport () in
  Fun.protect
    ~finally:(fun () ->
      C.close pc;
      C.close rc)
  @@ fun () ->
  for i = 1 to 50 do
    ignore (req pc (P.Put (i, i * 10)))
  done;
  (* one batch, appended last: once its effect is visible on the replica
     every earlier record has been applied (seq order) *)
  (match C.pipeline pc [ P.Multi; P.Del 1; P.Put (1, 111); P.Exec 0 ] with
   | Ok [ P.Ok_; P.Queued; P.Queued; P.Arr (P.Int _ :: _) ] -> ()
   | Ok rs ->
       Alcotest.fail
         ("batch: " ^ String.concat "," (List.map P.pp_reply rs))
   | Error e -> Alcotest.fail e);
  await "replica convergence" (fun () -> req rc (P.Get 1) = P.Int 111);
  for i = 2 to 50 do
    Alcotest.(check bool)
      (Printf.sprintf "replica key %d" i)
      true
      (req rc (P.Get i) = P.Int (i * 10))
  done;
  (* replica refuses writes until promoted *)
  (match req rc (P.Put (9, 9)) with
   | P.Err msg ->
       Alcotest.(check bool) "READONLY refusal" true (contains msg "READONLY")
   | r -> Alcotest.fail ("replica accepted a write: " ^ P.pp_reply r));
  (match C.pipeline rc [ P.Multi; P.Del 2; P.Put (2, 0); P.Exec 0 ] with
   | Ok [ P.Ok_; P.Queued; P.Queued; P.Err msg ] ->
       Alcotest.(check bool) "READONLY EXEC" true (contains msg "READONLY")
   | Ok rs ->
       Alcotest.fail
         ("replica EXEC: " ^ String.concat "," (List.map P.pp_reply rs))
   | Error e -> Alcotest.fail e);
  (* both ends introspect their role *)
  (match req rc P.Replstats with
   | P.Bulk json ->
       Alcotest.(check bool) "replica role" true
         (contains json "\"role\":\"replica\"")
   | r -> Alcotest.fail ("replica REPLSTATS: " ^ P.pp_reply r));
  (match req pc P.Replstats with
   | P.Bulk json ->
       Alcotest.(check bool) "primary role" true
         (contains json "\"role\":\"primary\"");
       Alcotest.(check bool) "primary sees a subscriber" true
         (contains json "\"subscribers\":0" = false)
   | r -> Alcotest.fail ("primary REPLSTATS: " ^ P.pp_reply r));
  (* failover: promote, then writes land *)
  Alcotest.(check bool) "promote" true (req rc P.Promote = P.Ok_);
  Alcotest.(check bool) "promote idempotent" true (req rc P.Promote = P.Ok_);
  Alcotest.(check bool) "post-promote write" true
    (req rc (P.Put (1000, 1)) = P.Ok_);
  match req rc P.Replstats with
  | P.Bulk json ->
      Alcotest.(check bool) "promoted role" true
        (contains json "\"role\":\"primary\"")
  | r -> Alcotest.fail ("post-promote REPLSTATS: " ^ P.pp_reply r)

(* Failover drill: kill the primary mid-flight, PROMOTE the replica,
   and watch a retrying client armed with both endpoints land its next
   write on the promoted side with zero surfaced errors — the rotation
   shows up in [failover_total]. *)
let test_client_failover () =
  Verlib.reset ();
  let pmount = S.Mount.mount ~n_hint:1024 (module Dstruct.Btree) in
  let primary =
    S.create
      ~config:{ S.default_config with S.port = 0; domains = 4 }
      pmount
  in
  S.start primary;
  let rmount = S.Mount.mount ~n_hint:1024 (module Dstruct.Btree) in
  let replica =
    S.create
      ~config:
        {
          S.default_config with
          S.port = 0;
          domains = 4;
          replica_of = Some ("127.0.0.1", S.port primary);
        }
      rmount
  in
  S.start replica;
  Fun.protect
    ~finally:(fun () ->
      S.stop replica;
      S.stop primary (* idempotent: already stopped mid-test *))
  @@ fun () ->
  let rport = S.port replica in
  let rt =
    C.connect_rt ~port:(S.port primary)
      ~endpoints:[ ("127.0.0.1", rport) ]
      ~seed:7 ()
  in
  Fun.protect ~finally:(fun () -> C.rt_close rt) @@ fun () ->
  (match C.rt_request rt (P.Put (1, 10)) with
   | Ok P.Ok_ -> ()
   | Ok r -> Alcotest.fail ("pre-failover PUT: " ^ P.pp_reply r)
   | Error e -> Alcotest.fail ("pre-failover PUT: " ^ e));
  let rc = C.connect ~retries:20 ~port:rport () in
  Fun.protect ~finally:(fun () -> C.close rc) @@ fun () ->
  (* the write must reach the replica before we promote it, or the
     promoted store would be missing history *)
  await "replicated before the kill" (fun () -> req rc (P.Get 1) = P.Int 10);
  let f0 = C.failover_total () in
  S.stop primary;
  Alcotest.(check bool) "promote" true (req rc P.Promote = P.Ok_);
  (match C.rt_request rt (P.Put (2, 20)) with
   | Ok P.Ok_ -> ()
   | Ok r -> Alcotest.fail ("post-failover PUT: " ^ P.pp_reply r)
   | Error e -> Alcotest.fail ("post-failover PUT: " ^ e));
  Alcotest.(check bool) "rotation counted" true (C.failover_total () > f0);
  Alcotest.(check bool) "write landed on the promoted side" true
    (req rc (P.Get 2) = P.Int 20)

let test_watch_over_wire () =
  with_pair @@ fun pport _rport ->
  let wc = C.connect ~retries:20 ~port:pport () in
  Fun.protect ~finally:(fun () -> C.close wc) @@ fun () ->
  (* timeout path: nothing touches [500, 600] *)
  (match req wc (P.Watch (500, 600, 100)) with
   | P.Nil -> ()
   | r -> Alcotest.fail ("WATCH timeout: " ^ P.pp_reply r));
  (* event path: a writer fires after a beat *)
  let d =
    Domain.spawn (fun () ->
        let c = C.connect ~retries:20 ~port:pport () in
        Unix.sleepf 0.15;
        let r = C.request c (P.Put (555, 5)) in
        C.close c;
        r)
  in
  let reply = req wc (P.Watch (500, 600, 5000)) in
  (match Domain.join d with
   | Ok P.Ok_ -> ()
   | _ -> Alcotest.fail "writer PUT failed");
  match P.record_of_reply reply with
  | Ok r ->
      Alcotest.(check bool) "record touches the range" true
        (Repl.touches 500 600 r);
      Alcotest.(check bool) "the write is in the record" true
        (List.mem (555, Some 5) r.Repl.r_writes)
  | Error e -> Alcotest.fail ("WATCH reply: " ^ e ^ " " ^ P.pp_reply reply)

(* Speak the stream protocol by hand: SUBSCRIBE from seq 0, collect the
   pushed records (skipping +OK heartbeats), ACK, and QUIT cleanly. *)
let test_subscribe_stream () =
  with_pair @@ fun pport _rport ->
  let pc = C.connect ~retries:20 ~port:pport () in
  let sc = C.connect ~retries:20 ~port:pport () in
  Fun.protect
    ~finally:(fun () ->
      C.close sc;
      C.close pc)
  @@ fun () ->
  for i = 1 to 5 do
    ignore (req pc (P.Put (i, i)))
  done;
  Alcotest.(check bool) "subscribe ok" true
    (req sc (P.Subscribe (1, 1000, 0)) = P.Ok_);
  let got = ref [] in
  let deadline = Unix.gettimeofday () +. 10. in
  while List.length !got < 5 && Unix.gettimeofday () < deadline do
    match C.read_reply sc with
    | Ok P.Ok_ -> () (* heartbeat *)
    | Ok r -> (
        match P.record_of_reply r with
        | Ok rc -> got := rc :: !got
        | Error e -> Alcotest.fail ("stream frame: " ^ e))
    | Error e -> Alcotest.fail ("stream read: " ^ e)
  done;
  let got = List.rev !got in
  Alcotest.(check int) "five records" 5 (List.length got);
  ignore
    (List.fold_left
       (fun prev r ->
         Alcotest.(check bool) "seq order" true (r.Repl.r_seq > prev);
         r.Repl.r_seq)
       0 got);
  (* ack the tail; the primary's lag gauges drain *)
  let last = List.nth got 4 in
  C.send_raw sc (Printf.sprintf "ACK %d %d\r\n" last.Repl.r_seq last.Repl.r_stamp);
  await "acked lag drains" (fun () ->
      match req pc P.Replstats with
      | P.Bulk json -> contains json "\"lag_stamps\":0"
      | _ -> false);
  C.send_raw sc "QUIT\r\n"

(* Sever an idle SUBSCRIBE stream with a [repl.send] partition: the
   server closes it abruptly, orphaning its cursor. *)
let sever_stream sc =
  (match F.plan_of_string "repl.send:partition=300@once" with
   | Ok p -> F.arm p
   | Error e -> Alcotest.fail e);
  let rec until_closed n =
    match C.read_reply sc with
    | Ok P.Ok_ when n > 0 -> until_closed (n - 1)
    | Ok r -> Alcotest.fail ("partitioned stream: " ^ P.pp_reply r)
    | Error _ -> ()
  in
  until_closed 10;
  F.disarm ()

(* The stream's fault and cursor semantics, on a primary alone: an idle
   feed gets +OK heartbeats at most 300 ms apart; a [repl.send]
   partition kills a live stream and orphans its cursor, which REPLSTATS
   still counts; a fresh SUBSCRIBE adopts that cursor; QUIT drops it. *)
let test_stream_cursor_semantics () =
  Verlib.reset ();
  let mount = S.Mount.mount ~n_hint:1024 (module Dstruct.Btree) in
  let srv =
    S.create ~config:{ S.default_config with S.port = 0; domains = 2 } mount
  in
  S.start srv;
  Fun.protect
    ~finally:(fun () ->
      F.disarm ();
      S.stop srv)
  @@ fun () ->
  let port = S.port srv in
  let pc = C.connect ~retries:20 ~port () in
  let sc = C.connect ~retries:20 ~read_timeout:2. ~port () in
  let sc2 = C.connect ~retries:20 ~read_timeout:2. ~port () in
  Fun.protect
    ~finally:(fun () ->
      C.close sc2;
      C.close sc;
      C.close pc)
  @@ fun () ->
  let subscribers () =
    match req pc P.Replstats with
    | P.Bulk json ->
        let key = "\"subscribers\":" in
        let rec find i =
          if String.sub json i (String.length key) = key then
            i + String.length key
          else find (i + 1)
        in
        let i = find 0 in
        Scanf.sscanf (String.sub json i (String.length json - i)) "%d" Fun.id
    | r -> Alcotest.fail ("REPLSTATS: " ^ P.pp_reply r)
  in
  Alcotest.(check bool) "subscribe ok" true
    (req sc (P.Subscribe (0, 1_000_000, 0)) = P.Ok_);
  let last = ref (Unix.gettimeofday ()) in
  for i = 1 to 4 do
    (match C.read_reply sc with
     | Ok P.Ok_ -> ()
     | Ok r -> Alcotest.fail ("idle stream: " ^ P.pp_reply r)
     | Error e -> Alcotest.fail ("idle stream: " ^ e));
    let now = Unix.gettimeofday () in
    if now -. !last > 0.3 then
      Alcotest.failf "heartbeat %d came %.0f ms after the last" i
        ((now -. !last) *. 1000.);
    last := now
  done;
  Alcotest.(check int) "one cursor" 1 (subscribers ());
  sever_stream sc;
  Alcotest.(check int) "orphaned cursor still counted" 1 (subscribers ());
  Alcotest.(check bool) "resubscribe ok" true
    (req sc2 (P.Subscribe (0, 1_000_000, 0)) = P.Ok_);
  Alcotest.(check int) "orphan adopted" 1 (subscribers ());
  C.send_raw sc2 "QUIT\r\n";
  await "QUIT drops the cursor" (fun () -> subscribers () = 0)

(* The replica acknowledges once per read chunk, not once per record: a
   pipelined burst of 1,000 PUTs drains the primary's lag to 0 with
   fewer ACK lines than records, and [repl_acks_total] shows them in
   both REPLSTATS and METRICS. *)
let test_cumulative_acks () =
  with_pair @@ fun pport rport ->
  let pc = C.connect ~retries:20 ~port:pport () in
  let rc = C.connect ~retries:20 ~port:rport () in
  Fun.protect
    ~finally:(fun () ->
      C.close pc;
      C.close rc)
  @@ fun () ->
  await "replica subscribed" (fun () ->
      json_int (replstats pc) "subscribers" = 1);
  let n = 1000 in
  let acks0 = json_int (replstats pc) "acks_total" in
  (match C.pipeline pc (List.init n (fun i -> P.Put (10_000 + i, i))) with
   | Ok rs ->
       Alcotest.(check bool) "every PUT answered +OK" true
         (List.for_all (( = ) P.Ok_) rs)
   | Error e -> Alcotest.fail e);
  await "replica applied the burst" (fun () ->
      req rc (P.Get (10_000 + n - 1)) = P.Int (n - 1));
  await "lag drains to 0" (fun () ->
      let j = replstats pc in
      json_int j "lag_stamps" = 0 && json_int j "lag_bytes" = 0);
  let acks = json_int (replstats pc) "acks_total" - acks0 in
  if acks < 1 || acks >= n then
    Alcotest.failf "%d ACKs for %d records: want 1 <= ACKs < records" acks n;
  match req pc P.Metrics with
  | P.Bulk text ->
      Alcotest.(check bool) "METRICS exports repl_acks_total" true
        (contains text "repl_acks_total")
  | r -> Alcotest.fail ("METRICS: " ^ P.pp_reply r)

(* Bank transfers through MULTI/EXEC on the primary, one writer. *)
let transfer pc rng ~accounts =
  let a = Random.State.int rng accounts in
  let b = (a + 1 + Random.State.int rng (accounts - 1)) mod accounts in
  match C.pipeline pc [ P.Get a; P.Get b ] with
  | Ok [ P.Int va; P.Int vb ] -> (
      match
        C.pipeline pc
          [ P.Multi; P.Del a; P.Put (a, va - 1); P.Del b; P.Put (b, vb + 1);
            P.Exec 0 ]
      with
      | Ok [ P.Ok_; P.Queued; P.Queued; P.Queued; P.Queued; P.Arr _ ] -> ()
      | Ok rs ->
          Alcotest.fail
            ("transfer: " ^ String.concat "," (List.map P.pp_reply rs))
      | Error e -> Alcotest.fail e)
  | Ok rs -> Alcotest.fail ("balances: " ^ String.concat "," (List.map P.pp_reply rs))
  | Error e -> Alcotest.fail e

(* Every account in one snapshot read. *)
let balances conn ~accounts =
  match req conn (P.Mget (Array.init accounts Fun.id)) with
  | P.Arr l ->
      List.map (function P.Int v -> Some v | _ -> None) l
  | r -> Alcotest.fail ("MGET: " ^ P.pp_reply r)

(* A one-loop replica: the stream's apply, the audits' MGETs and the
   resync after a partition all run on the same loop.  Conservation must
   hold on every replica MGET while transfers stream in; then a
   [repl.send] partition severs the stream and refuses SYNC for its
   window, and the replica must dial again, re-SYNC and converge. *)
let test_one_loop_replica () =
  with_pair ~replica_domains:1 @@ fun pport rport ->
  let accounts = 16 and total = 16 * 100 in
  let pc = C.connect ~retries:20 ~port:pport () in
  let rc = C.connect ~retries:20 ~port:rport () in
  Fun.protect
    ~finally:(fun () ->
      F.disarm ();
      C.close pc;
      C.close rc)
  @@ fun () ->
  for k = 0 to accounts - 1 do
    ignore (req pc (P.Put (k, 100)))
  done;
  let conserved () =
    let vs = balances rc ~accounts in
    List.for_all Option.is_some vs
    && List.fold_left (fun s v -> s + Option.get v) 0 vs = total
  in
  await "replica bootstrapped" conserved;
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let c = C.connect ~retries:20 ~port:pport () in
        let rng = Random.State.make [| 5 |] in
        let n = ref 0 in
        while not (Atomic.get stop) do
          transfer c rng ~accounts;
          incr n
        done;
        C.close c;
        !n)
  in
  let audits = ref 0 in
  let t_end = Unix.gettimeofday () +. 0.6 in
  (try
     while Unix.gettimeofday () < t_end do
       let vs = balances rc ~accounts in
       let sum = List.fold_left (fun s v -> s + Option.value ~default:0 v) 0 vs in
       if List.exists Option.is_none vs || sum <> total then
         Alcotest.failf "replica MGET %d: sum %d, want %d" !audits sum total;
       incr audits
     done
   with e ->
     Atomic.set stop true;
     ignore (Domain.join writer);
     raise e);
  let conns0 =
    match req pc P.Stats with
    | P.Bulk j -> json_int j "connections_total"
    | r -> Alcotest.fail ("STATS: " ^ P.pp_reply r)
  in
  (match F.plan_of_string "repl.send:partition=300@once" with
   | Ok p -> F.arm p
   | Error e -> Alcotest.fail e);
  Unix.sleepf 0.5;
  Atomic.set stop true;
  let transfers = Domain.join writer in
  F.disarm ();
  Alcotest.(check bool) "transfers committed" true (transfers > 0);
  Alcotest.(check bool) "replica audited" true (!audits > 0);
  let primary = balances pc ~accounts in
  await "replica converges after the partition" (fun () ->
      balances rc ~accounts = primary);
  Alcotest.(check bool) "conserved on the replica" true (conserved ());
  match req pc P.Stats with
  | P.Bulk j ->
      Alcotest.(check bool) "the replica dialed again" true
        (json_int j "connections_total" > conns0)
  | r -> Alcotest.fail ("STATS: " ^ P.pp_reply r)

(* A stopped server takes its feed out of the process-wide lag gauges:
   a cursor orphaned by a partition would otherwise keep
   [repl_lag_stamps]/[repl_lag_bytes] above 0 for the rest of the
   process. *)
let test_stop_unregisters_feed () =
  Verlib.reset ();
  let mount = S.Mount.mount ~n_hint:1024 (module Dstruct.Btree) in
  let srv =
    S.create ~config:{ S.default_config with S.port = 0; domains = 1 } mount
  in
  S.start srv;
  Fun.protect
    ~finally:(fun () ->
      F.disarm ();
      S.stop srv)
  @@ fun () ->
  let port = S.port srv in
  let pc = C.connect ~retries:20 ~port () in
  let sc = C.connect ~retries:20 ~read_timeout:2. ~port () in
  Alcotest.(check bool) "subscribe ok" true
    (req sc (P.Subscribe (0, 1_000_000, 0)) = P.Ok_);
  sever_stream sc;
  C.close sc;
  for i = 1 to 5 do
    ignore (req pc (P.Put (i, i)))
  done;
  C.close pc;
  Alcotest.(check bool) "the orphaned cursor lags" true
    (Repl.lag_stamps () > 0 && Repl.lag_bytes () > 0);
  S.stop srv;
  Alcotest.(check int) "no stamp lag after stop" 0 (Repl.lag_stamps ());
  Alcotest.(check int) "no byte lag after stop" 0 (Repl.lag_bytes ())

(* A fake primary speaks the follow protocol by hand.  It answers the
   first SYNC with a snapshot at seq 5 and SUBSCRIBE with +OK, then
   ships seq 7: one past the next seq, so the feed lost a record.  It
   keeps heartbeating, so only the gap can end that connection.  The
   replica must close it, dial again, send a second SYNC and converge
   to the second snapshot (seq 9). *)
let test_gap_redials_from_sync () =
  Verlib.reset ();
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 4;
  let fport =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let failed = Atomic.make None and stop = Atomic.make false in
  let syncs = Atomic.make 0 in
  let fake () =
    let accept_within secs =
      match Unix.select [ lsock ] [] [] secs with
      | [], _, _ -> failwith "the replica did not dial again after the gap"
      | _ ->
          let fd, _ = Unix.accept lsock in
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
          (fd, Unix.in_channel_of_descr fd)
    in
    let line ic =
      let l = input_line ic in
      if String.ends_with ~suffix:"\r" l then
        String.sub l 0 (String.length l - 1)
      else l
    in
    let send fd r =
      let b = Buffer.create 64 in
      P.render_reply b r;
      ignore (Unix.write_substring fd (Buffer.contents b) 0 (Buffer.length b))
    in
    (* One SYNC bootstrap: the snapshot, then SUBSCRIBE from its seq. *)
    let bootstrap fd ic ~seq pairs =
      let l = line ic in
      if l <> "SYNC" then failwith ("expected SYNC, got " ^ l);
      Atomic.incr syncs;
      send fd
        (P.Arr
           (P.Int seq :: P.Int (10 * seq)
           :: List.concat_map (fun (k, v) -> [ P.Int k; P.Int v ]) pairs));
      let l = line ic in
      if not (String.ends_with ~suffix:(Printf.sprintf " %d" seq) l) then
        failwith ("expected SUBSCRIBE from seq " ^ string_of_int seq ^ ": " ^ l);
      send fd P.Ok_
    in
    (* Heartbeat [fd] until [stop] or [until] (a deadline), or until a
       connection waits on the listener when [redial]. *)
    let rec beat fd ~redial ~until =
      if Atomic.get stop || Unix.gettimeofday () > until then ()
      else if
        redial
        && (match Unix.select [ lsock ] [] [] 0.1 with
            | [], _, _ -> false
            | _ -> true)
      then ()
      else begin
        if not redial then Unix.sleepf 0.1;
        (try send fd P.Ok_ with Unix.Unix_error _ -> ());
        beat fd ~redial ~until
      end
    in
    let fd1, ic1 = accept_within 5. in
    bootstrap fd1 ic1 ~seq:5 [ (1, 10); (2, 20) ];
    send fd1
      (P.reply_of_record
         { Repl.r_seq = 7; r_stamp = 70; r_writes = [ (3, Some 30) ] });
    (* Heartbeats keep flowing, so only the gap can end this
       connection; a replica that waited for seq 6 would never
       redial: give it 1.5 s. *)
    beat fd1 ~redial:true ~until:(Unix.gettimeofday () +. 1.5);
    let fd2, ic2 = accept_within 0. in
    Unix.close fd1;
    bootstrap fd2 ic2 ~seq:9 [ (1, 11); (4, 40) ];
    beat fd2 ~redial:false ~until:infinity;
    Unix.close fd2
  in
  let d =
    Domain.spawn (fun () ->
        (try fake () with e -> Atomic.set failed (Some (Printexc.to_string e)));
        Unix.close lsock)
  in
  let rmount = S.Mount.mount ~n_hint:1024 (module Dstruct.Btree) in
  let replica =
    S.create
      ~config:
        {
          S.default_config with
          S.port = 0;
          domains = 1;
          replica_of = Some ("127.0.0.1", fport);
        }
      rmount
  in
  S.start replica;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      S.stop replica;
      Domain.join d)
  @@ fun () ->
  let rc = C.connect ~retries:20 ~port:(S.port replica) () in
  Fun.protect ~finally:(fun () -> C.close rc) @@ fun () ->
  await "the replica converges to the second snapshot" (fun () ->
      Option.iter Alcotest.fail (Atomic.get failed);
      req rc (P.Get 1) = P.Int 11 && req rc (P.Get 4) = P.Int 40);
  Alcotest.(check bool) "key 2 left with the first snapshot" true
    (req rc (P.Get 2) = P.Nil);
  Alcotest.(check bool) "the gap record never installed" true
    (req rc (P.Get 3) = P.Nil);
  Alcotest.(check int) "two SYNCs" 2 (Atomic.get syncs);
  Alcotest.(check int) "cursor at the second snapshot" 9
    (json_int (replstats rc) "apply_last_seq")

let () =
  Alcotest.run "repl"
    [
      ( "feed",
        [
          Alcotest.test_case "commit tap captures records" `Quick
            test_feed_capture;
          Alcotest.test_case "laggard below trim resyncs" `Quick
            test_log_resync_when_trimmed;
        ] );
      ( "apply",
        [
          Alcotest.test_case "dedup, and a gap installs nothing" `Quick
            test_apply_dedup_and_gap;
          Alcotest.test_case "commit and apply faults" `Quick
            test_apply_under_faults;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "watermark monotone under dup" `Quick
            test_watermark_monotone_under_chaos;
        ] );
      ( "wire",
        [
          Alcotest.test_case "pair converges, READONLY, PROMOTE" `Quick
            test_pair_converges_readonly_promote;
          Alcotest.test_case "client fails over to a promoted replica" `Quick
            test_client_failover;
          Alcotest.test_case "WATCH one-shot" `Quick test_watch_over_wire;
          Alcotest.test_case "SUBSCRIBE stream + ACK" `Quick
            test_subscribe_stream;
          Alcotest.test_case "stream partition, adoption, QUIT, heartbeats"
            `Quick test_stream_cursor_semantics;
          Alcotest.test_case "one cumulative ACK per read" `Quick
            test_cumulative_acks;
          Alcotest.test_case "one-loop replica: audits, partition, resync"
            `Quick test_one_loop_replica;
          Alcotest.test_case "stop takes the feed out of the lag gauges"
            `Quick test_stop_unregisters_feed;
          Alcotest.test_case "a gap redials from SYNC" `Quick
            test_gap_redials_from_sync;
        ] );
    ]
