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

(* Every record past [seq], oldest first, read back through the copy
   path the server uses; [`Resync] when the ring trimmed past [seq]. *)
let read_after log ~seq =
  let b = Repl.Batch.create () in
  let rec go seq acc =
    match Repl.Log.copy_after log ~seq b with
    | `Resync -> `Resync
    | `Copied when Repl.Batch.length b = 0 -> `Records (List.rev acc)
    | `Copied ->
        let w = Repl.Batch.words b in
        let rec walk o seq acc =
          if o >= Repl.Batch.length b then go seq acc
          else
            walk (o + Repl.Flat.size w o) (Repl.Flat.seq w o)
              (Repl.Flat.to_record w o :: acc)
        in
        walk 0 seq acc
  in
  go seq []

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
  (match read_after log ~seq:0 with
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
  (match read_after log ~seq:0 with
   | `Resync -> ()
   | `Records _ -> Alcotest.fail "laggard below the trim must resync");
  match read_after log ~seq:95 with
  | `Records rs -> Alcotest.(check int) "recent suffix" 5 (List.length rs)
  | `Resync -> Alcotest.fail "recent cursor forced to resync"

(* Records of 1, 2 and 50 writes, deletes included, on a 16-record ring
   that laps a dozen times. *)
let ring_writes i =
  match i mod 3 with
  | 0 -> [ (i, Some (10 * i)) ]
  | 1 -> [ (i, Some i); (-i, None) ]
  | _ -> List.init 50 (fun j -> ((1000 * i) + j, if j mod 7 = 0 then None else Some j))

let ring_record s = { Repl.r_seq = s; r_stamp = 2 * s; r_writes = ring_writes s }

(* The flat ring reads every retained record back whole across the
   wrap, in repeated copies and in one copy alike; a cursor behind
   the trim point resyncs; lag bytes are the [record_bytes] sum past the
   slowest cursor, and an ACK of a trimmed seq counts from the trim
   point. *)
let test_flat_ring_wraps () =
  let log = Repl.Log.create ~capacity:16 () in
  let slow = Repl.Log.subscribe log and fast = Repl.Log.subscribe log in
  let n = 200 in
  for s = 1 to n do
    Repl.Log.append log ~stamp:(2 * s) (ring_writes s)
  done;
  let retained = List.init 16 (fun i -> ring_record (n - 15 + i)) in
  (match read_after log ~seq:(n - 16) with
   | `Records rs ->
       Alcotest.(check int) "sixteen retained" 16 (List.length rs);
       Alcotest.(check bool) "records intact across the wrap" true (rs = retained)
   | `Resync -> Alcotest.fail "cursor at the trim point resynced");
  let b = Repl.Batch.create () in
  (match Repl.Log.copy_after log ~seq:(n - 16) b with
   | `Copied ->
       let w = Repl.Batch.words b in
       let rec walk o acc =
         if o >= Repl.Batch.length b then List.rev acc
         else walk (o + Repl.Flat.size w o) (Repl.Flat.to_record w o :: acc)
       in
       Alcotest.(check bool) "one copy holds the same records" true
         (walk 0 [] = retained)
   | `Resync -> Alcotest.fail "copy at the trim point resynced");
  (match read_after log ~seq:(n - 17) with
   | `Resync -> ()
   | `Records _ -> Alcotest.fail "a cursor behind the trim point must resync");
  (match Repl.Log.copy_after log ~seq:(n - 17) b with
   | `Resync -> ()
   | `Copied -> Alcotest.fail "a copy behind the trim point must resync");
  let bytes lo hi =
    List.fold_left ( + ) 0
      (List.init (hi - lo + 1) (fun i -> Repl.record_bytes (ring_record (lo + i))))
  in
  Alcotest.(check int) "lag: every byte appended" (bytes 1 n)
    (snd (Repl.Log.lag log));
  Repl.Log.ack log ~id:fast ~seq:(n - 5) ~stamp:(2 * (n - 5));
  Repl.Log.ack log ~id:slow ~seq:10 ~stamp:20;
  Alcotest.(check int) "an ACK of a trimmed seq counts from the trim point"
    (bytes (n - 15) n)
    (snd (Repl.Log.lag log));
  Repl.Log.unsubscribe log slow;
  Alcotest.(check int) "lag past the acked seq" (bytes (n - 4) n)
    (snd (Repl.Log.lag log));
  Repl.Log.unsubscribe log fast;
  Repl.Log.unregister log

(* Once the ring has lapped, appends land in recycled chunks: appending
   a prebuilt write list allocates nothing. *)
let test_append_alloc_budget () =
  let log = Repl.Log.create ~capacity:1024 () in
  let ws = Array.init 3 (fun i -> ring_writes (i + 2)) in
  for i = 1 to 6000 do
    Repl.Log.append log ~stamp:i ws.(i mod 3)
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Repl.Log.append log ~stamp:i ws.(i mod 3)
  done;
  let words = Gc.minor_words () -. w0 in
  Repl.Log.unregister log;
  Alcotest.(check (float 0.)) "minor words over 10,000 appends" 0. words

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
    match read_after log ~seq:0 with
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

(* A one-loop replica: the stream's apply, the audits' MGETs and the
   resync after a partition all run on the same loop.  A [Server.Bank]
   writer commits tokened transfers on the primary, each one atomic
   record on the feed, so every replica MGET of the whole ledger must
   sum exactly while they stream in; then a [repl.send] partition
   severs the stream and refuses SYNC for its window, and the replica
   must dial again, re-SYNC and converge. *)
let test_one_loop_replica () =
  with_pair ~replica_domains:1 @@ fun pport rport ->
  let pairs = 8 in
  let pc = C.connect ~retries:20 ~port:pport () in
  let rc = C.connect ~retries:20 ~port:rport () in
  let gate = S.Bank.gate () in
  Fun.protect
    ~finally:(fun () ->
      S.Bank.halt gate;
      F.disarm ();
      C.close pc;
      C.close rc)
  @@ fun () ->
  S.Bank.seed (S.Bank.wire pc) ~pairs;
  let audit conn = S.Bank.audit (S.Bank.wire conn) ~pairs in
  await "replica bootstrapped" (fun () -> Result.is_ok (audit rc));
  let st = S.Bank.new_stats () in
  let writer =
    Domain.spawn (fun () ->
        S.Bank.writer S.Bank.Txn gate ~port:pport ~pairs ~nwriters:1 ~wid:0 st)
  in
  S.Bank.go gate;
  let stop_writer () =
    S.Bank.halt gate;
    Domain.join writer
  in
  let audits = ref 0 in
  let t_end = Unix.gettimeofday () +. 0.6 in
  (try
     while Unix.gettimeofday () < t_end do
       (match audit rc with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "replica MGET %d: %s" !audits e);
       incr audits
     done
   with e ->
     stop_writer ();
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
  stop_writer ();
  F.disarm ();
  Alcotest.(check bool) "transfers committed" true (st.S.Bank.transfers > 0);
  Alcotest.(check (option string)) "writer saw no error" None st.detail;
  Alcotest.(check bool) "replica audited" true (!audits > 0);
  let balances conn = req conn (P.Mget (S.Bank.accounts ~pairs)) in
  let primary = balances pc in
  await "replica converges after the partition" (fun () ->
      balances rc = primary);
  Alcotest.(check bool) "conserved on the replica" true
    (Result.is_ok (audit rc));
  match req pc P.Stats with
  | P.Bulk j ->
      Alcotest.(check bool) "the replica dialed again" true
        (json_int j "connections_total" > conns0)
  | r -> Alcotest.fail ("STATS: " ^ P.pp_reply r)

(* STATS [size] is counted by the writes, not by a walk: after plain
   PUT/DEL, an EXEC that inserts, overwrites and deletes, the replica's
   applies, and a re-SYNC reconcile after a feed partition (which
   deletes the keys the primary dropped and inserts the ones it gained
   meanwhile), both ends' [size] equals the model and the SIZE verb. *)
let test_stats_size_matches_model () =
  with_pair @@ fun pport rport ->
  let pc = C.connect ~retries:20 ~port:pport () in
  let rc = C.connect ~retries:20 ~port:rport () in
  Fun.protect
    ~finally:(fun () ->
      F.disarm ();
      C.close pc;
      C.close rc)
  @@ fun () ->
  let model = Hashtbl.create 64 in
  let put k =
    if req pc (P.Put (k, k)) = P.Ok_ then Hashtbl.replace model k ()
  in
  let del k = if req pc (P.Del k) = P.Int 1 then Hashtbl.remove model k in
  let stat conn key =
    match req conn P.Stats with
    | P.Bulk j -> json_int j key
    | r -> Alcotest.fail ("STATS: " ^ P.pp_reply r)
  in
  let check_sizes what =
    let n = Hashtbl.length model in
    Alcotest.(check int) (what ^ ": primary STATS size") n (stat pc "size");
    Alcotest.(check int) (what ^ ": replica STATS size") n (stat rc "size");
    Alcotest.(check bool) (what ^ ": primary SIZE") true
      (req pc P.Size = P.Int n);
    Alcotest.(check bool) (what ^ ": replica SIZE") true
      (req rc P.Size = P.Int n)
  in
  for k = 1 to 40 do
    put k
  done;
  put 1;
  List.iter del [ 2; 4; 6; 8; 10; 100 ];
  (match
     C.pipeline pc
       [ P.Multi; P.Del 1; P.Put (1, 111); P.Put (200, 2); P.Del 3; P.Exec 0 ]
   with
   | Ok [ P.Ok_; P.Queued; P.Queued; P.Queued; P.Queued; P.Arr (P.Int _ :: _) ]
     ->
       Hashtbl.replace model 200 ();
       Hashtbl.remove model 3
   | Ok rs ->
       Alcotest.fail ("batch: " ^ String.concat "," (List.map P.pp_reply rs))
   | Error e -> Alcotest.fail e);
  await "replica applied the batch" (fun () -> req rc (P.Get 200) = P.Int 2);
  check_sizes "streamed";
  let conns0 = stat pc "connections_total" in
  (match F.plan_of_string "repl.send:partition=300@once" with
   | Ok p -> F.arm p
   | Error e -> Alcotest.fail e);
  for k = 300 to 320 do
    put k
  done;
  List.iter del [ 5; 7; 9; 11 ];
  Unix.sleepf 0.4;
  F.disarm ();
  await "replica re-synced" (fun () -> req rc (P.Scan 0) = req pc (P.Scan 0));
  Alcotest.(check bool) "the replica dialed again" true
    (stat pc "connections_total" > conns0);
  check_sizes "re-synced"

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

(* --- a fake primary ---------------------------------------------------------- *)

(* A listener that speaks the follow protocol by hand, so a test
   scripts exactly what its replica receives. *)
type fake = {
  lsock : Unix.file_descr;
  stop : bool Atomic.t;
  syncs : int Atomic.t;  (** SYNC requests answered *)
}

let fake_accept fk ~within =
  match Unix.select [ fk.lsock ] [] [] within with
  | [], _, _ -> failwith "the replica did not dial"
  | _ ->
      let fd, _ = Unix.accept fk.lsock in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
      (fd, Unix.in_channel_of_descr fd)

let fake_line ic =
  let l = input_line ic in
  if String.ends_with ~suffix:"\r" l then String.sub l 0 (String.length l - 1)
  else l

let fake_send fd r =
  let b = Buffer.create 64 in
  P.render_reply b r;
  ignore (Unix.write_substring fd (Buffer.contents b) 0 (Buffer.length b))

(* One SYNC bootstrap: the snapshot (pairs in the order given), then
   SUBSCRIBE from its seq. *)
let fake_bootstrap fk fd ic ~seq pairs =
  let l = fake_line ic in
  if l <> "SYNC" then failwith ("expected SYNC, got " ^ l);
  Atomic.incr fk.syncs;
  fake_send fd
    (P.Arr
       (P.Int seq :: P.Int (10 * seq)
       :: List.concat_map (fun (k, v) -> [ P.Int k; P.Int v ]) pairs));
  let l = fake_line ic in
  if not (String.ends_with ~suffix:(Printf.sprintf " %d" seq) l) then
    failwith ("expected SUBSCRIBE from seq " ^ string_of_int seq ^ ": " ^ l);
  fake_send fd P.Ok_

(* Heartbeat [fd] until [stop] or [until] (a deadline), or until a
   connection waits on the listener when [redial]. *)
let rec fake_beat fk fd ~redial ~until =
  if Atomic.get fk.stop || Unix.gettimeofday () > until then ()
  else if
    redial
    && (match Unix.select [ fk.lsock ] [] [] 0.1 with
        | [], _, _ -> false
        | _ -> true)
  then ()
  else begin
    if not redial then Unix.sleepf 0.1;
    (try fake_send fd P.Ok_ with Unix.Unix_error _ -> ());
    fake_beat fk fd ~redial ~until
  end

(* Run [script] as a fake primary on its own domain and a one-loop
   replica of [map] following it; [f] gets a connection to the replica
   and a check that fails the test once the script has failed. *)
let with_fake_primary ?(map = (module Dstruct.Btree : Dstruct.Map_intf.MAP))
    script f =
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
  let fk = { lsock; stop = Atomic.make false; syncs = Atomic.make 0 } in
  let failed = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        (try script fk
         with e -> Atomic.set failed (Some (Printexc.to_string e)));
        Unix.close lsock)
  in
  let replica =
    S.create
      ~config:
        {
          S.default_config with
          S.port = 0;
          domains = 1;
          replica_of = Some ("127.0.0.1", fport);
        }
      (S.Mount.mount ~n_hint:1024 map)
  in
  S.start replica;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set fk.stop true;
      S.stop replica;
      Domain.join d)
  @@ fun () ->
  let rc = C.connect ~retries:20 ~port:(S.port replica) () in
  Fun.protect ~finally:(fun () -> C.close rc) @@ fun () ->
  f fk rc (fun () -> Option.iter Alcotest.fail (Atomic.get failed))

(* The fake answers the first SYNC with a snapshot at seq 5 and
   SUBSCRIBE with +OK, then ships seq 7: one past the next seq, so the
   feed lost a record.  It keeps heartbeating, so only the gap can end
   that connection.  The replica must close it, dial again, send a
   second SYNC and converge to the second snapshot (seq 9). *)
let test_gap_redials_from_sync () =
  with_fake_primary
    (fun fk ->
      let fd1, ic1 = fake_accept fk ~within:5. in
      fake_bootstrap fk fd1 ic1 ~seq:5 [ (1, 10); (2, 20) ];
      fake_send fd1
        (P.reply_of_record
           { Repl.r_seq = 7; r_stamp = 70; r_writes = [ (3, Some 30) ] });
      (* Heartbeats keep flowing, so only the gap can end this
         connection; a replica that waited for seq 6 would never
         redial: give it 1.5 s. *)
      fake_beat fk fd1 ~redial:true ~until:(Unix.gettimeofday () +. 1.5);
      let fd2, ic2 = fake_accept fk ~within:0. in
      Unix.close fd1;
      fake_bootstrap fk fd2 ic2 ~seq:9 [ (1, 11); (4, 40) ];
      fake_beat fk fd2 ~redial:false ~until:infinity;
      Unix.close fd2)
  @@ fun fk rc check_script ->
  await "the replica converges to the second snapshot" (fun () ->
      check_script ();
      req rc (P.Get 1) = P.Int 11 && req rc (P.Get 4) = P.Int 40);
  Alcotest.(check bool) "key 2 left with the first snapshot" true
    (req rc (P.Get 2) = P.Nil);
  Alcotest.(check bool) "the gap record never installed" true
    (req rc (P.Get 3) = P.Nil);
  Alcotest.(check int) "two SYNCs" 2 (Atomic.get fk.syncs);
  Alcotest.(check int) "cursor at the second snapshot" 9
    (json_int (replstats rc) "apply_last_seq")

(* A warm re-SYNC: the fake bootstraps the replica from a first
   snapshot, drops the connection once it has subscribed, and answers
   the redial with a second snapshot, in [order].  The replica must
   delete the stale keys, overwrite the changed one, insert the new ones
   and leave the two already right alone: its own feed (one record per
   local write) grows by exactly five records, and STATS [size] and
   SIZE equal the snapshot's. *)
let test_warm_resync map order () =
  let first = [ (1, 10); (2, 20); (3, 30); (4, 40); (5, 50) ] in
  let second = [ (1, 10); (2, 22); (4, 40); (6, 60); (7, 70) ] in
  with_fake_primary ~map
    (fun fk ->
      let fd1, ic1 = fake_accept fk ~within:5. in
      fake_bootstrap fk fd1 ic1 ~seq:5 first;
      Unix.close fd1;
      let fd2, ic2 = fake_accept fk ~within:5. in
      fake_bootstrap fk fd2 ic2 ~seq:9 (order second);
      fake_beat fk fd2 ~redial:false ~until:infinity;
      Unix.close fd2)
  @@ fun fk rc check_script ->
  await "the replica reconciles to the second snapshot" (fun () ->
      check_script ();
      json_int (replstats rc) "apply_last_seq" = 9);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "key %d" k)
        true
        (req rc (P.Get k)
        = match List.assoc_opt k second with Some v -> P.Int v | None -> P.Nil))
    [ 1; 2; 3; 4; 5; 6; 7 ];
  Alcotest.(check int) "two SYNCs" 2 (Atomic.get fk.syncs);
  Alcotest.(check int)
    "local writes: five to bootstrap, five to reconcile" 10
    (json_int (replstats rc) "tail_seq");
  (match req rc P.Stats with
   | P.Bulk j -> Alcotest.(check int) "STATS size" 5 (json_int j "size")
   | r -> Alcotest.fail ("STATS: " ^ P.pp_reply r));
  Alcotest.(check bool) "SIZE" true (req rc P.Size = P.Int 5)

(* --- SYNC and SCAN rendering ------------------------------------------------ *)

let render_sync ?(head = (7, 70)) ?(limit = max_int) m =
  let b = Buffer.create 64 in
  S.Mount.render_scan m b ~head ~limit ();
  Buffer.contents b

let render_scan ~limit m =
  let b = Buffer.create 64 in
  S.Mount.render_scan m b ~limit ();
  Buffer.contents b

let render_reply r =
  let b = Buffer.create 64 in
  P.render_reply b r;
  Buffer.contents b

(* How SYNC was rendered before it came from one fold: the
   bindings as a list, then a reply. *)
let sync_as_reply ~seq ~stamp m =
  let pairs = List.rev (S.Mount.scan m ~init:[] ~f:(fun acc k v -> (k, v) :: acc)) in
  render_reply
    (P.Arr
       (P.Int seq :: P.Int stamp
       :: List.concat_map (fun (k, v) -> [ P.Int k; P.Int v ]) pairs))

let mount_with map pairs =
  let m = S.Mount.mount ~n_hint:64 map in
  List.iter (fun (k, v) -> ignore (Txn.put (S.Mount.store m) k v)) pairs;
  m

let small = [ (3, 30); (1, -10); (2, 20) ]

(* SYNC's bytes are the reply it used to build, on an ordered and an
   unordered mount; SCAN is the headless form, capped at its limit; an
   empty store renders well-formed replies. *)
let test_sync_golden () =
  Verlib.reset ();
  let m = mount_with (module Dstruct.Btree) small in
  Alcotest.(check string) "SYNC bytes"
    "*8\r\n:7\r\n:70\r\n:1\r\n:-10\r\n:2\r\n:20\r\n:3\r\n:30\r\n"
    (render_sync m);
  Alcotest.(check string) "SCAN 2 bytes" "*4\r\n:1\r\n:-10\r\n:2\r\n:20\r\n"
    (render_scan ~limit:2 m);
  let h = mount_with (module Dstruct.Hashtable) (List.init 40 (fun i -> (i * 7919, i))) in
  Alcotest.(check string) "hashtable SYNC as its reply"
    (sync_as_reply ~seq:7 ~stamp:70 h) (render_sync h);
  let e = S.Mount.mount ~n_hint:64 (module Dstruct.Btree) in
  Alcotest.(check string) "empty SYNC" "*2\r\n:0\r\n:0\r\n"
    (render_sync ~head:(0, 0) e);
  Alcotest.(check string) "empty SCAN" "*0\r\n" (render_scan ~limit:10 e);
  Alcotest.(check bool) "empty SYNC reads as a reply" true
    (P.Reader.reply (P.Reader.of_string (render_sync ~head:(0, 0) e))
    = Ok (P.Arr [ P.Int 0; P.Int 0 ]))

(* Under the optimistic stamp scheme a fresh version carries a stamp
   equal to the clock, so the first pass of the SYNC's snapshot aborts
   and re-runs: the re-run drops what the aborted pass staged, and the
   buffer holds exactly one reply after what it held before. *)
let test_sync_optimistic_abort () =
  Verlib.reset ~scheme:Verlib.Stamp.Opt_ts ();
  Fun.protect ~finally:(fun () -> Verlib.reset ()) @@ fun () ->
  let m = mount_with (module Dstruct.Btree) small in
  let aborts0 = Verlib.Stats.total Verlib.Stats.snapshot_aborts in
  let b = Buffer.create 64 in
  Buffer.add_string b "+OK\r\n";
  S.Mount.render_scan m b ~head:(7, 70) ~limit:max_int ();
  Alcotest.(check bool) "the snapshot aborted" true
    (Verlib.Stats.total Verlib.Stats.snapshot_aborts > aborts0);
  Alcotest.(check string) "one reply after the earlier bytes"
    "+OK\r\n*8\r\n:7\r\n:70\r\n:1\r\n:-10\r\n:2\r\n:20\r\n:3\r\n:30\r\n"
    (Buffer.contents b)

(* A coarse map (an immutable map behind a read-write lock, one fold
   under the read lock) that runs [after_fold] once each fold is done:
   a write landing right after the fold SYNC renders from. *)
module Churn = struct
  include Dstruct.Coarse_map

  let after_fold : (t -> unit) ref = ref ignore

  let scan t ~init ~f =
    let r = scan t ~init ~f in
    !after_fold t;
    r
end

(* SYNC on a non-versioned mount is one fold: a write that lands after
   it is not in the reply, no binding that was bound throughout is
   dropped, and the store is folded once per reply.  An insert sorts
   ahead of every key, so a second, render fold would see it and push
   the last key out of a reply counted by the first; a delete would
   leave that render short of the count. *)
let test_sync_one_fold () =
  Verlib.reset ();
  Fun.protect ~finally:(fun () -> Churn.after_fold := ignore) @@ fun () ->
  let golden = "*8\r\n:7\r\n:70\r\n:1\r\n:-10\r\n:2\r\n:20\r\n:3\r\n:30\r\n" in
  let ins = mount_with (module Churn) small in
  let fresh = ref 0 in
  Churn.after_fold :=
    (fun h ->
      decr fresh;
      ignore (Dstruct.Coarse_map.insert h !fresh 0));
  Alcotest.(check string) "an insert after the fold" golden (render_sync ins);
  Alcotest.(check bool) "one fold, one insert" true (S.Mount.exec ins P.Size = P.Int 4);
  let del = mount_with (module Churn) small in
  Churn.after_fold :=
    (fun h ->
      match Dstruct.Coarse_map.to_sorted_list h with
      | (k, _) :: _ -> ignore (Dstruct.Coarse_map.delete h k)
      | [] -> ());
  Alcotest.(check string) "a delete after the fold" golden (render_sync del);
  Alcotest.(check bool) "one fold, one delete" true (S.Mount.exec del P.Size = P.Int 2);
  Alcotest.(check string) "SCAN after the delete" "*4\r\n:2\r\n:20\r\n:3\r\n:30\r\n"
    (render_scan ~limit:max_int del)

(* Over the wire: SYNC's bytes are the golden ones at the feed's tail, a
   TRACE'd SYNC carries its @-frame ahead of the same bytes, and SCAN 0
   follows, all pipelined on one connection. *)
let test_sync_over_wire () =
  Verlib.reset ();
  let srv =
    S.create
      ~config:{ S.default_config with S.port = 0; domains = 1 }
      (S.Mount.mount ~n_hint:64 (module Dstruct.Btree))
  in
  S.start srv;
  Fun.protect ~finally:(fun () -> S.stop srv) @@ fun () ->
  let pc = C.connect ~retries:20 ~port:(S.port srv) () in
  Fun.protect ~finally:(fun () -> C.close pc) @@ fun () ->
  List.iter (fun (k, v) -> ignore (req pc (P.Put (k, v)))) small;
  let stamp = json_int (replstats pc) "tail_stamp" in
  let sync =
    Printf.sprintf "*8\r\n:3\r\n:%d\r\n:1\r\n:-10\r\n:2\r\n:20\r\n:3\r\n:30\r\n" stamp
  in
  let scan = "*6\r\n:1\r\n:-10\r\n:2\r\n:20\r\n:3\r\n:30\r\n" in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, S.port srv));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  let ask = "SYNC\r\nTRACE 9 SYNC\r\nSCAN 0\r\n" in
  ignore (Unix.write_substring fd ask 0 (String.length ask));
  let got = Buffer.create 256 and chunk = Bytes.create 4096 in
  while not (String.ends_with ~suffix:scan (Buffer.contents got)) do
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Alcotest.fail ("EOF after " ^ Buffer.contents got)
    | n -> Buffer.add_subbytes got chunk 0 n
  done;
  let s = Buffer.contents got in
  let frame_end = String.index_from s (String.length sync) '\n' + 1 in
  Alcotest.(check string) "SYNC bytes" sync (String.sub s 0 (String.length sync));
  Alcotest.(check bool) "the @-frame comes first" true
    (String.starts_with ~prefix:"@9 total=" (String.sub s (String.length sync) 9));
  Alcotest.(check string) "then the traced SYNC's bytes, then SCAN's"
    (sync ^ scan)
    (String.sub s frame_end (String.length s - frame_end))

let () =
  Alcotest.run "repl"
    [
      ( "feed",
        [
          Alcotest.test_case "commit tap captures records" `Quick
            test_feed_capture;
          Alcotest.test_case "laggard below trim resyncs" `Quick
            test_log_resync_when_trimmed;
          Alcotest.test_case "flat ring: wrap, trim, resync, lag bytes" `Quick
            test_flat_ring_wraps;
          Alcotest.test_case "a lapped ring appends without allocating"
            `Quick test_append_alloc_budget;
        ] );
      ( "sync",
        [
          Alcotest.test_case "SYNC and SCAN bytes, empty store" `Quick
            test_sync_golden;
          Alcotest.test_case "an optimistic abort renders one reply" `Quick
            test_sync_optimistic_abort;
          Alcotest.test_case "coarse: a write after the fold is not torn in"
            `Quick test_sync_one_fold;
          Alcotest.test_case "SYNC bytes and TRACE frame over the wire" `Quick
            test_sync_over_wire;
          Alcotest.test_case "warm re-SYNC: btree, ascending" `Quick
            (test_warm_resync (module Dstruct.Btree) Fun.id);
          Alcotest.test_case "warm re-SYNC: hashtable, unsorted" `Quick
            (test_warm_resync (module Dstruct.Hashtable) (fun l ->
                 List.map (fun k -> (k, List.assoc k l)) [ 6; 1; 7; 2; 4 ]));
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
          Alcotest.test_case "STATS size matches the model" `Quick
            test_stats_size_matches_model;
        ] );
    ]
