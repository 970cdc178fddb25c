(* The three workloads.  Each is a closed loop: pipelined callers that
   send [depth] requests, wait for every reply, then send the next
   batch.  All mount a btree (IndOnNeed, lock-free locks) with
   [Ops.n] = 100,000 keys prefilled server-side (--prefill).

   Why there is no workload with two busy connections into one server
   loop: [Evloop.drain_wake] clears [wake_pending] before draining the
   self-wake pipe, so a completion landing in that window leaves the
   flag stuck and every later batch waits out the 200 ms poll timeout.
   Two busy connections on one loop hit that window within seconds and
   then measure the poll tick, not the server.  Every server here has
   exactly one client connection in its loop (the replica's SUBSCRIBE
   stream is detached from the loop).  A concurrent-connections
   workload belongs after that fix. *)

type reader = {
  r_depth : int;
  r_every : int;  (** writer batches per reader batch *)
  r_next : Workload.Splitmix.t -> unit -> Ops.req;
}

type t = {
  name : string;
  primary_threads : int;  (** worker domains of the primary, [-t] *)
  depth : int;  (** pipeline depth of the writing connection *)
  writer : Workload.Splitmix.t -> Ops.model -> unit -> Ops.req;
  replica : reader option;
      (** a [--replica-of] server read by a second connection *)
  probe : reader option;
      (** traced runs only: the replica reader used to measure
          replication on a workload that has no replica of its own *)
  warmup : int;  (** writer batches run and checked before the window *)
  ledger_ops : int;  (** requests the in-process ledger replays *)
}

(* kv-point loads the served hot path: Evloop read and reassembly,
   Protocol parse and render, Mount dispatch, the Txn single-key stripe
   brackets, GC.  The map itself is ~2 of the ~9-10 us of server CPU
   per op.  It bypasses multi-key snapshots, transaction commits and
   the change feed's readers (the feed is still tapped per write).
   One connection, depth 16, server -t 1. *)
let kv_point =
  {
    name = "kv-point";
    primary_threads = 1;
    depth = 16;
    writer = Ops.kv_point;
    replica = None;
    probe = Some { r_depth = 16; r_every = 1; r_next = Ops.replica_point };
    warmup = 2_000;
    ledger_ops = 50_000;
  }

(* kv-scan loads VERLIB snapshot reads in Verlib and Dstruct (MGET of
   16, RANGE of 64: ~85-90 us of server CPU per op, ~10x kv-point),
   large reply rendering, and the multi-op install of DEL+PUT
   transactions.  The per-request wire cost becomes a small share.  It
   bypasses the token cache and replica apply.  One connection, depth
   8, server -t 1. *)
let kv_scan =
  {
    name = "kv-scan";
    primary_threads = 1;
    depth = 8;
    writer = Ops.kv_scan;
    replica = None;
    probe = Some { r_depth = 8; r_every = 1; r_next = Ops.replica_scan };
    warmup = 300;
    ledger_ops = 10_000;
  }

(* txn-feed is the only workload that runs the OCC commit path with
   tokens (the exactly-once cache), the commit tap feeding a live
   SUBSCRIBE stream, and replica apply; and the only one where snapshot
   reads (the replica's MGET audits) race concurrent installs.  The
   primary runs -t 2 (one worker for the writer, one parked on the
   replica's stream); the replica runs -t 1.  The writer pipelines 4
   transfers; the auditor pipelines 4 pair reads. *)
let txn_feed =
  {
    name = "txn-feed";
    primary_threads = 2;
    depth = 4;
    writer = Ops.transfer;
    replica = Some { r_depth = 4; r_every = 4; r_next = Ops.audit };
    probe = None;
    warmup = 2_000;
    ledger_ops = 20_000;
  }

let all = [ kv_point; kv_scan; txn_feed ]

let find name = List.find_opt (fun w -> w.name = name) all
