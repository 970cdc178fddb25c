module Protocol = Protocol
module Mount = Mount
module Client = Client
module Evpoll = Evpoll
module Evloop = Evloop

type config = {
  port : int;
  domains : int;
  census_interval : float;
  max_conns : int;
  idle_timeout : float;
  write_timeout : float;
  shed_queue : int;
  retry_after_ms : int;
  metrics_interval : float;
  flight_dir : string;
  flight_min_interval : float;
  slo_p99_us : float;
  profile_hz : int;
  replica_of : (string * int) option;
      (** follow this primary: apply its change feed, refuse writes
          until PROMOTE (docs/REPLICATION.md) *)
  feed_capacity : int;  (** replication log ring size, in records *)
}

let default_config =
  {
    port = 7379;
    domains = 4;
    census_interval = 0.;
    max_conns = 0;
    idle_timeout = 0.;
    write_timeout = 5.;
    shed_queue = 0;
    retry_after_ms = 50;
    metrics_interval = 0.;
    flight_dir = "";
    flight_min_interval = 5.;
    slo_p99_us = 0.;
    profile_hz = 0;
    replica_of = None;
    feed_capacity = 65536;
  }

module Span = Verlib.Obs.Span

(* --- resilience accounting ----------------------------------------------- *)

(* Process-wide totals (all server instances), exported as gauges so they
   land in every [Verlib.Obs] report next to [faults_fired]. *)
let shed_total_a = Atomic.make 0

let deadline_kills_total_a = Atomic.make 0

let (_ : Flock.Telemetry.Gauge.t) =
  Flock.Telemetry.Gauge.make "shed_total" (fun () -> Atomic.get shed_total_a)

let (_ : Flock.Telemetry.Gauge.t) =
  Flock.Telemetry.Gauge.make "deadline_kills_total" (fun () ->
      Atomic.get deadline_kills_total_a)

(* Wire-layer fault points (docs/RESILIENCE.md): interpreted against the
   live file descriptor by the event loop's read/flush paths. *)
let fp_read = Fault.Point.make "server.read"

let fp_write = Fault.Point.make "server.write"

type role = Primary | Replica

(* A command that waits without holding its loop: a WATCH for a
   matching record, or a PROFILE window.  The loop re-checks it every
   iteration ([resume]). *)
type wait =
  | Watch of { lo : int; hi : int; mutable cursor : int }
      (** [cursor]: the feed seq checked so far *)
  | Window of Verlib.Obs.Profile.window

type parked = {
  pk_wait : wait;
  pk_until : float;  (** answer by then: [Nil] for a WATCH *)
  pk_begin : int;  (** the command's span start, in ticks *)
  pk_cmd : string;
  pk_tid : int option;
}

(* A SUBSCRIBE push stream, pumped by its loop every iteration. *)
type stream = {
  st_lo : int;
  st_hi : int;
  st_id : int;  (** the feed cursor ([Repl.Log.subscribe]) *)
  mutable st_seq : int;  (** the last feed seq pumped *)
  mutable st_beat : float;  (** the last record or heartbeat *)
}

(* Per-connection protocol state, owned by the connection's loop. *)
type session = {
  s_admitted : bool;
      (** false for door-shed connections that only exist to carry the
          [-BUSY] refusal out, and for the follow connection; they never
          counted as active *)
  s_follow : bool;  (** the replica's connection to its primary *)
  mutable s_multi : bool;  (** inside MULTI...EXEC *)
  mutable s_queued : Protocol.command list;  (** reversed *)
  mutable s_dirty : bool;  (** transaction poisoned *)
  mutable s_stream : stream option;  (** SUBSCRIBE mode-switch *)
  mutable s_first : bool;  (** next span is the connection's first *)
  mutable s_rest : string list;  (** the batch's unexecuted lines *)
  mutable s_park : parked option;
  mutable s_quit : bool;  (** QUIT/SUBSCRIBE: drop the batch's rest *)
  mutable s_mark : int;  (** the batch's poll-round tick stamp *)
}

let new_session ?(follow = false) ~admitted () =
  {
    s_admitted = admitted;
    s_follow = follow;
    s_multi = false;
    s_queued = [];
    s_dirty = false;
    s_stream = None;
    s_first = true;
    s_rest = [];
    s_park = None;
    s_quit = false;
    s_mark = 0;
  }

(* The replica's side of replication: one connection to the primary,
   owned by loop 0 (see [follow_lines]). *)
type follower = {
  fw_addr : Unix.sockaddr;
  fw_apply : Repl.Apply.t;
  fw_frames : Protocol.Frames.t;  (** the reply being reassembled *)
  mutable fw_conn : session Evloop.conn option;
  mutable fw_phase : [ `Sync | `Subscribe | `Follow ];
      (** what the primary answers next: the SYNC snapshot, SUBSCRIBE's
          +OK, then the stream *)
  mutable fw_redial : float;  (** dial again no sooner than this *)
}

(* One census of the sweep: the whole mount's, and on a sharded mount
   one per shard view. *)
type census_sample = {
  whole : Verlib.Chainscan.census;
  shards : (string * Verlib.Chainscan.census) list;
}

type t = {
  mount : Mount.t;
  cfg : config;
  stop_flag : bool Atomic.t;
  stop_asked : bool Atomic.t;  (** [request_stop] ran its hook *)
  mutable on_stop : unit -> unit;
  mutable deadline : float;  (** [run]'s deadline; [infinity]: none *)
  role : role Atomic.t;
  feed : Repl.Log.t;
      (** change-feed tap over the mount's store — what SUBSCRIBE /
          WATCH / SYNC serve from *)
  follower : follower option;  (** replica servers only *)
  mutable loops : session Evloop.t array;
  mutable probe_ticks : int;
      (** batch age after which each command first probes for a
          departed peer: 1 ms in clock ticks *)
  flight : Harness.Flight.t option;
  hard_shed_on : bool Atomic.t;  (* edge detector for the flight trigger *)
  mutable lsock : Unix.file_descr option;
  mutable bound_port : int;
  mutable loop_ds : unit Domain.t list;  (** one event loop each *)
  mutable sweep_d : unit Domain.t option;  (** the census and SLO sweep *)
  mutable started : bool;
  mutable stopped : bool;
  mutable started_at : float;
  (* counters (read approximately by STATS, exactly after stop) *)
  conns_total : int Atomic.t;
  conns_active : int Atomic.t;
  commands_total : int Atomic.t;
  errors_total : int Atomic.t;
  census_samples : int Atomic.t;
  census_violations : int Atomic.t;
  shed : int Atomic.t;
  deadline_kills : int Atomic.t;
  latest_census : census_sample option Atomic.t;
}

let create ?(config = default_config) mount =
  let feed = Repl.Log.create ~capacity:config.feed_capacity () in
  Repl.Log.tap feed (Mount.store mount);
  {
    mount;
    cfg = config;
    stop_flag = Atomic.make false;
    stop_asked = Atomic.make false;
    on_stop = ignore;
    deadline = infinity;
    role =
      Atomic.make (match config.replica_of with Some _ -> Replica | None -> Primary);
    feed;
    follower =
      Option.map
        (fun (host, port) ->
          {
            fw_addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port);
            fw_apply = Repl.Apply.create (Mount.store mount);
            fw_frames = Protocol.Frames.create ();
            fw_conn = None;
            fw_phase = `Sync;
            fw_redial = 0.;
          })
        config.replica_of;
    loops = [||];
    probe_ticks = 0;
    flight =
      (if config.flight_dir = "" then None
       else
         Some
           (Harness.Flight.create ~min_interval:config.flight_min_interval
              ~dir:config.flight_dir ()));
    hard_shed_on = Atomic.make false;
    lsock = None;
    bound_port = config.port;
    loop_ds = [];
    sweep_d = None;
    started = false;
    stopped = false;
    started_at = 0.;
    conns_total = Atomic.make 0;
    conns_active = Atomic.make 0;
    commands_total = Atomic.make 0;
    errors_total = Atomic.make 0;
    census_samples = Atomic.make 0;
    census_violations = Atomic.make 0;
    shed = Atomic.make 0;
    deadline_kills = Atomic.make 0;
    latest_census = Atomic.make None;
  }

let port t = t.bound_port

let running t = t.started && not t.stopped

(* --- the server's figures ---------------------------------------------- *)

(* The admission signal summed over the loops (each loop sheds on its
   own; this is the gauge). *)
let queue_depth t =
  Array.fold_left (fun n l -> n + l.Evloop.waiting) 0 t.loops

let flight_dump_count t =
  match t.flight with None -> 0 | Some f -> Harness.Flight.dump_count f

let flight_last_path t =
  match t.flight with None -> None | Some f -> Harness.Flight.last_path f

(* This instance's figures: the one list every exporter renders — STATS
   at top level, METRICS as [server_<name>], a flight dump inside its
   embedded STATS object. *)
let figures t =
  [
    ("domains", t.cfg.domains);
    ("connections_total", Atomic.get t.conns_total);
    ("connections_active", Atomic.get t.conns_active);
    ("commands_total", Atomic.get t.commands_total);
    ("protocol_errors", Atomic.get t.errors_total);
    ("shed", Atomic.get t.shed);
    ("deadline_kills", Atomic.get t.deadline_kills);
    ("queue_depth", queue_depth t);
    ("size", Mount.size t.mount);
    ("census_samples", Atomic.get t.census_samples);
    ("census_violations_total", Atomic.get t.census_violations);
    ("flight_dumps", flight_dump_count t);
  ]

(* --- STATS and METRICS ---------------------------------------------------- *)

(* The sweep's latest census; on a sharded mount also one census per
   shard, so a hot or pathological shard is visible instead of averaged
   away in the merged totals.  No census is taken here. *)
let census_fields t =
  match Atomic.get t.latest_census with
  | None -> []
  | Some { whole; shards } ->
      let json = Harness.Obs_report.json_of_census in
      ("census", json whole)
      ::
      (match shards with
       | [] -> []
       | shards ->
           [
             ( "census_shards",
               List.map
                 (fun (name, c) -> Printf.sprintf "\"%s\":%s" name (json c))
                 shards
               |> String.concat "," |> Printf.sprintf "{%s}" );
           ])

let stats_json t =
  let uptime = if t.started then Unix.gettimeofday () -. t.started_at else 0. in
  let extra =
    [
      ("server", "\"verlib-serve\"");
      ("structure", Printf.sprintf "%S" (Mount.name t.mount));
      ( "range_capability",
        Printf.sprintf "%S"
          (Dstruct.Map_intf.range_capability_name (Mount.range_capability t.mount))
      );
      ("uptime_s", Printf.sprintf "%.3f" uptime);
      ( "loop_conns",
        Array.to_list t.loops
        |> List.map (fun l -> string_of_int (Atomic.get l.Evloop.load))
        |> String.concat "," |> Printf.sprintf "[%s]" );
    ]
    @ List.map (fun (name, v) -> (name, string_of_int v)) (figures t)
    @ census_fields t
  in
  Harness.Obs_report.to_json ~extra (Verlib.Obs.capture ())

(* The live metrics plane: everything [Flock.Telemetry] holds plus the
   server's own figures, as Prometheus text exposition.  Like [Ping]
   and [Stats], never shed — an overloaded server stays measurable. *)
let metrics_text t =
  Harness.Obs_report.prometheus
    ~extra:(List.map (fun (name, v) -> ("server_" ^ name, v)) (figures t))
    ()

(* --- flight recorder ------------------------------------------------------ *)

let flight_record t ~trigger =
  match t.flight with
  | None -> ()
  | Some f ->
      ignore (Harness.Flight.record f ~trigger ~stats:(fun () -> stats_json t))

(* --- replication plane ---------------------------------------------------- *)

let is_replica t = Atomic.get t.role = Replica

let replica_readonly_msg =
  "READONLY: replica refuses writes; PROMOTE it or write to the primary"

let replstats_json t =
  let role = if is_replica t then "replica" else "primary" in
  let lag_s, lag_b = Repl.Log.lag t.feed in
  let apply_fields =
    match t.follower with
    | None -> ""
    | Some { fw_apply = a; _ } ->
        Printf.sprintf ",\"apply_last_seq\":%d,\"apply_watermark\":%d"
          (Repl.Apply.last_seq a) (Repl.Apply.watermark a)
  in
  Printf.sprintf
    "{\"role\":%S,\"tail_seq\":%d,\"tail_stamp\":%d,\"subscribers\":%d,\"lag_stamps\":%d,\"lag_bytes\":%d,\"records_total\":%d,\"acks_total\":%d,\"resyncs\":%d,\"applied_total\":%d,\"dup_dropped\":%d,\"watermark\":%d%s}"
    role (Repl.Log.tail_seq t.feed)
    (Repl.Log.tail_stamp t.feed)
    (Repl.Log.subscriber_count t.feed)
    lag_s lag_b (Repl.records_total ()) (Repl.acks_total ())
    (Repl.resyncs_total ())
    (Repl.applied_total ()) (Repl.dup_dropped_total ())
    (Repl.watermark_now ()) apply_fields

(* SYNC: the replica-bootstrap snapshot, positioned at the feed's tail.
   Order is load-bearing: the tail is read BEFORE the fold, so any
   record at or below it was fully installed before the fold began
   (install happens-before append happens-before this read) — snapshot
   plus suffix replay from that seq converges.  Records racing past the
   tail during the fold are delivered again by the stream; re-applying
   them is idempotent (records carry installed state, not deltas).
   Hits [repl.send] so a latched partition severs bootstraps too. *)
let sync_reply t =
  Fault.hit Repl.fp_send;
  let seq = Repl.Log.tail_seq t.feed in
  let stamp = Repl.Log.tail_stamp t.feed in
  let pairs = Mount.dump t.mount in
  Protocol.Arr
    (Protocol.Int seq :: Protocol.Int stamp
    :: List.concat_map (fun (k, v) -> Protocol.[ Int k; Int v ]) pairs)

let max_line = 1 lsl 20

(* Commands one MULTI may queue before EXEC refuses more (bounds the
   per-connection buffered transaction). *)
let multi_queue_cap = 1024

(* --- the push stream (SUBSCRIBE) ------------------------------------------ *)

(* After SUBSCRIBE's +OK the connection inverts: the server pushes one
   record frame per committed change touching [lo, hi] past the cursor,
   plus an +OK heartbeat once [heartbeat] seconds pass without a record
   (keeps the peer's read timeout quiet, and gives a latched partition
   something to sever even when the feed is idle); the peer sends ACK
   lines back on the same socket.  The connection stays on its loop:
   each iteration the loop reads the peer's lines ([stream_lines]),
   then [pump] renders what the feed gained into the outbuf, which the
   loop flushes.  A peer that stops reading stalls the pump at the
   outbuf's high-water mark, so its cursor falls behind (the ring trim
   answers a resync if the peer ever drains) until the write deadline
   kills the connection.

   The [repl.send] fault point interprets here: [partition] latches the
   point down and kills the stream (and [sync_reply]/re-subscription for
   the window), [dup] ships a record twice — the at-least-once
   delivery the replica's apply engine dedups.  Records always go out
   in seq order: [read_after] answers a gapless suffix or [`Resync].

   On abnormal death the cursor is orphaned, not dropped: the lag gauges
   must keep rising through a partition, and the reconnecting replica
   adopts the orphan (see [Repl.Log.subscribe] and [h_close]). *)

let heartbeat = 0.2

(* SUBSCRIBE's cursor; [None] when a latched partition refuses it (the
   +OK still goes out, then the connection closes). *)
let subscribe t ~lo ~hi ~seq =
  match Fault.hit Repl.fp_send with
  | () ->
      Some
        {
          st_lo = lo;
          st_hi = hi;
          st_id = Repl.Log.subscribe t.feed;
          st_seq = seq;
          st_beat = Unix.gettimeofday ();
        }
  | exception Fault.Injected _ -> None

(* Render what the feed holds past the stream's cursor into its
   outbuf. *)
let pump t loop (conn : session Evloop.conn) st ~now : Evloop.action =
  let out = conn.Evloop.out in
  let push r = Protocol.render_reply out (Protocol.reply_of_record r) in
  let emit r =
    if Fault.feed_check Repl.fp_send = Some Fault.Dup then push r;
    push r
  in
  try
    match Repl.Log.read_after t.feed ~seq:st.st_seq with
    | `Resync ->
        (* Laggard shed: the ring trimmed past this cursor.  A clean
           refusal — the peer re-bootstraps via SYNC. *)
        Protocol.render_reply out (Protocol.Err "resync required");
        `Close
    | `Records [] ->
        if now -. st.st_beat >= heartbeat then begin
          Fault.hit Repl.fp_send;
          Protocol.render_reply out Protocol.Ok_;
          st.st_beat <- now
        end;
        `Stream
    | `Records rs ->
        List.iter
          (fun r ->
            st.st_seq <- r.Repl.r_seq;
            if Repl.touches st.st_lo st.st_hi r then emit r)
          rs;
        st.st_beat <- now;
        `Stream
  with Fault.Injected _ ->
    (* A partition severs the stream at once, unflushed: an abrupt
       close, so the cursor is orphaned. *)
    Evloop.close_conn loop conn;
    `Close

(* A stream peer's lines: ACKs and QUIT, nothing else.  They open no
   request span. *)
let stream_lines t st lines =
  List.fold_left
    (fun (a : Evloop.action) line ->
      match Protocol.parse_command line with
      | Ok (Protocol.Ack (seq, stamp)) ->
          (* A dropped ack is invisible to the peer; the lag gauges
             simply stay high until the next one. *)
          (try
             Fault.hit Repl.fp_ack;
             Repl.Log.ack t.feed ~id:st.st_id ~seq ~stamp
           with Fault.Injected _ -> ());
          a
      | Ok Protocol.Quit -> `Close
      | Ok _ | Error _ -> a)
    `Stream lines

let count_shed t =
  Atomic.incr t.shed;
  Atomic.incr shed_total_a

(* Admission control on one signal, per loop: the connections this
   poll round reported readable that the loop has not executed yet.  At
   [shed_queue] waiting connections (soft level) a snapshot-heavy
   command is refused; at twice it (hard level) every data command is.
   Only data commands come here — PING, STATS and the other
   observability verbs are always answered, so an overloaded server
   stays measurable.  Entering the
   hard level files a flight report (rising edge only, so steady-state
   refusals stay cheap).  With shedding off, nothing is read. *)
let shed t loop sp c =
  let thr = t.cfg.shed_queue in
  thr > 0
  &&
  let waiting =
    Span.enter sp Span.Shed;
    let w = loop.Evloop.waiting in
    Span.leave sp;
    w
  in
  let hard = waiting >= 2 * thr in
  if hard then begin
    if not (Atomic.exchange t.hard_shed_on true) then
      flight_record t ~trigger:Harness.Flight.Hard_shed
  end
  else if waiting < thr then Atomic.set t.hard_shed_on false;
  let refuse = hard || (waiting >= thr && Protocol.snapshot_heavy c) in
  if refuse then count_shed t;
  refuse

let busy t = Protocol.Busy t.cfg.retry_after_ms

(* The @-frame for a traced command, built from its finished span. *)
let trace_info_of (sp : Span.t) id outcome : Protocol.trace_info =
  {
    Protocol.t_id = id;
    t_total_us = Verlib.Hwclock.to_us (Span.total_ticks sp);
    t_outcome = outcome;
    t_fanout = sp.Span.sp_fanout;
    t_phase_us =
      List.filter_map
        (fun p ->
          let v = Span.phase_ticks sp p in
          if v > 0 then Some (Span.phase_name p, Verlib.Hwclock.to_us v)
          else None)
        Span.phases;
  }

(* Per-verb activity frames for the sampling profiler, by verb-table
   row.  Interning is mutexed and must stay off hot paths, so every verb
   is interned once at module-load time (single-domain); [exec_line]
   then publishes a pre-computed id — two gated plain stores per
   command. *)
module Activity = Flock.Telemetry.Activity

let verb_activity =
  Array.init Protocol.verb_count (fun i -> Activity.intern (Protocol.verb_name i))

(* --- command execution (on the connection's loop) ------------------------ *)

let multi_reset sess =
  sess.s_multi <- false;
  sess.s_queued <- [];
  sess.s_dirty <- false

(* Park the command: [exec_line] abandons its span, and [resume]
   answers it under a fresh span backdated to the same start. *)
let park sess (sp : Span.t) tid wait ~ms =
  sess.s_park <-
    Some
      {
        pk_wait = wait;
        pk_until = Unix.gettimeofday () +. (float_of_int ms /. 1000.);
        pk_begin = sp.Span.sp_begin;
        pk_cmd = sp.Span.sp_cmd;
        pk_tid = tid;
      };
  (tid, "ok", Protocol.Nil)

(* Render [r] under the [reply] phase, finish the span, then emit: a
   traced command's @-frame goes ahead of its data bytes (the
   incremental reader never peeks past a reply).  The batched socket
   flush is shared across pipelined commands and is not attributed to
   any span. *)
let emit ~out ~scratch sp trace_id outcome r =
  Buffer.clear scratch;
  Span.switch sp Span.Reply;
  Protocol.render_reply scratch r;
  Span.finish sp ~outcome;
  (match trace_id with
   | Some id -> Protocol.render_trace out (trace_info_of sp id outcome)
   | None -> ());
  Buffer.add_buffer out scratch

(* Execute one wire line against the connection's session under span
   [sp], appending the rendered reply (and any @-trace frame) to its
   outbuf, or parking the command ([sess.s_park]).  The span opened in
   [parse]; a command that executes something switches to [op] just
   before it, so [parse] covers the parse and the dispatch. *)
let exec_line t loop (conn : session Evloop.conn) sp line =
  let sess = conn.Evloop.data in
  Atomic.incr t.commands_total;
  let parsed = Protocol.parse_command_traced line in
  let trace_id, outcome, r =
    match parsed with
    | Error msg ->
        Atomic.incr t.errors_total;
        (* A garbage line inside MULTI poisons the transaction: the
           client and server may disagree on what was queued. *)
        if sess.s_multi then sess.s_dirty <- true;
        (None, "error", Protocol.Err msg)
    | Ok (tid, c) -> (
        let verb = Protocol.verb_index c in
        Span.set_cmd sp (Protocol.verb_name verb);
        (match tid with Some id -> Span.set_trace_id sp id | None -> ());
        if Activity.on () then Activity.set Activity.dim_op verb_activity.(verb);
        match c with
        | Protocol.Quit ->
            sess.s_quit <- true;
            (tid, "ok", Protocol.Ok_)
        | Protocol.Multi ->
            if sess.s_multi then begin
              Atomic.incr t.errors_total;
              sess.s_dirty <- true;
              (tid, "error", Protocol.Err "MULTI: nested MULTI")
            end
            else begin
              multi_reset sess;
              sess.s_multi <- true;
              (tid, "ok", Protocol.Ok_)
            end
        | Protocol.Discard ->
            if sess.s_multi then begin
              multi_reset sess;
              (tid, "ok", Protocol.Ok_)
            end
            else begin
              Atomic.incr t.errors_total;
              (tid, "error", Protocol.Err "DISCARD without MULTI")
            end
        | Protocol.Exec token ->
            if not sess.s_multi then begin
              Atomic.incr t.errors_total;
              (tid, "error", Protocol.Err "EXEC without MULTI")
            end
            else if sess.s_dirty then begin
              multi_reset sess;
              Atomic.incr t.errors_total;
              ( tid,
                "error",
                Protocol.Err
                  "EXECABORT: transaction discarded because of previous \
                   errors" )
            end
            else if is_replica t then begin
              (* The queued writes must come through the feed, not the
                 wire — a replica that committed its own transactions
                 would diverge from the primary. *)
              multi_reset sess;
              Atomic.incr t.errors_total;
              (tid, "error", Protocol.Err replica_readonly_msg)
            end
            else if shed t loop sp c then
              (* EXEC is snapshot-heavy, so it sheds at soft level —
                 but WITHOUT dropping the queued transaction: a
                 backed-off retry of just EXEC still commits it. *)
              (tid, "shed", busy t)
            else begin
              let cs = List.rev sess.s_queued in
              multi_reset sess;
              Span.switch sp Span.Op;
              match Mount.exec_txn t.mount ~token cs with
              | Protocol.Err _ as r ->
                  Atomic.incr t.errors_total;
                  (tid, "error", r)
              | Protocol.Aborted _ as r -> (tid, "abort", r)
              | r -> (tid, "ok", r)
            end
        | ( Protocol.Get _ | Protocol.Put _ | Protocol.Del _
          | Protocol.Mget _ | Protocol.Range _ | Protocol.Rangecount _ )
          when sess.s_multi -> (
            let unsupported_range =
              match (c, Mount.range_capability t.mount) with
              | ( (Protocol.Range _ | Protocol.Rangecount _),
                  Dstruct.Map_intf.Unordered ) ->
                  true
              | _ -> false
            in
            match () with
            | _ when unsupported_range ->
                (* Reject at queue time: queuing a command that can
                   never execute would guarantee an EXECABORT later. *)
                Atomic.incr t.errors_total;
                sess.s_dirty <- true;
                ( tid,
                  "error",
                  Protocol.Err
                    (Printf.sprintf
                       "unsupported: RANGE on unordered structure %S; use \
                        MGET"
                       (Mount.name t.mount)) )
            | _ when List.length sess.s_queued >= multi_queue_cap ->
                Atomic.incr t.errors_total;
                sess.s_dirty <- true;
                (tid, "error", Protocol.Err "MULTI: transaction too large")
            | _ ->
                sess.s_queued <- c :: sess.s_queued;
                (tid, "ok", Protocol.Queued))
        | _ when sess.s_multi ->
            (* PING/STATS/SCAN/... make no sense inside a transaction;
               poison it so EXEC cannot silently commit a sequence the
               client mis-stated. *)
            Atomic.incr t.errors_total;
            sess.s_dirty <- true;
            ( tid,
              "error",
              Protocol.Err
                (Printf.sprintf "%s not allowed in MULTI"
                   (Protocol.verb_name verb))
            )
        | Protocol.Stats ->
            Span.switch sp Span.Op;
            (tid, "ok", Protocol.Bulk (stats_json t))
        | Protocol.Metrics ->
            Span.switch sp Span.Op;
            (tid, "ok", Protocol.Bulk (metrics_text t))
        | Protocol.Profile ms ->
            (* Like [Stats]/[Metrics]: answered unconditionally, never
               shed — an overloaded server must stay profileable (the
               whole point of the plane).  A positive window (clamped to
               5 s) parks the connection, not the loop; pipelined
               commands behind it wait for it. *)
            if ms > 0 then
              park sess sp tid
                (Window (Verlib.Obs.Profile.open_window ()))
                ~ms:(min ms 5000)
            else begin
              Span.switch sp Span.Op;
              (tid, "ok", Protocol.Bulk (Verlib.Obs.Profile.json ()))
            end
        | Protocol.Ping -> (tid, "ok", Protocol.Pong)
        | Protocol.Replstats ->
            (* Like STATS: never shed — the replication plane stays
               observable under overload and partitions. *)
            Span.switch sp Span.Op;
            (tid, "ok", Protocol.Bulk (replstats_json t))
        | Protocol.Promote ->
            (* Idempotent failover: accept writes from now on; the
               follow connection (if any) applies nothing more, and
               loop 0's tick closes it for good. *)
            Atomic.set t.role Primary;
            (tid, "ok", Protocol.Ok_)
        | Protocol.Sync -> (
            (* Snapshot-heavy (an uncapped fold) — shed before
               dumping, and a latched partition severs it. *)
            if shed t loop sp c then (tid, "shed", busy t)
            else begin
              Span.switch sp Span.Op;
              match sync_reply t with
              | r -> (tid, "ok", r)
              | exception Fault.Injected _ ->
                  sess.s_quit <- true;
                  (tid, "error", Protocol.Err "partitioned")
            end)
        | Protocol.Ack _ ->
            Atomic.incr t.errors_total;
            (tid, "error", Protocol.Err "ACK outside a SUBSCRIBE stream")
        | Protocol.Watch (lo, hi, ms) ->
            if shed t loop sp c then (tid, "shed", busy t)
            else
              park sess sp tid
                (Watch { lo; hi; cursor = Repl.Log.tail_seq t.feed })
                ~ms:(if ms <= 0 then 5000 else min ms 30000)
        | Protocol.Subscribe (lo, hi, seq) ->
            sess.s_stream <- subscribe t ~lo ~hi ~seq;
            sess.s_quit <- true;
            (tid, "ok", Protocol.Ok_)
        | (Protocol.Put _ | Protocol.Del _) when is_replica t ->
            Atomic.incr t.errors_total;
            (tid, "error", Protocol.Err replica_readonly_msg)
        | c ->
            if shed t loop sp c then (tid, "shed", busy t)
            else begin
              Span.switch sp Span.Op;
              let r = Mount.exec t.mount c in
              match r with
              | Protocol.Err _ ->
                  Atomic.incr t.errors_total;
                  (tid, "error", r)
              | _ -> (tid, "ok", r)
            end)
  in
  if Activity.on () then Activity.set Activity.dim_op 0;
  if sess.s_park <> None then Span.abandon sp
  else
    emit ~out:conn.Evloop.out ~scratch:loop.Evloop.scratch sp trace_id
      outcome r

(* One command of a batch: open its span (a batch's first is backdated
   to the poll round that reported the chunk, and the wait until now is
   its [queue] phase; a connection's first also books [accept]), cut
   the batch off if the peer left, else execute.

   A peer that left forfeits its batch's unexecuted commands: its
   client may have replayed them elsewhere, so a command stalled by a
   chaos plan must not resume with stale mutations (the soak's
   conservation audit sees destroyed money), nor a batch read after the
   client gave up run alongside the replay on another loop.  The peer
   is probed before a batch's first command, and before each later one
   once the batch is older than [probe_ticks]; the age reads the tick
   the span start takes anyway.  Lines the peer sent before an EOF the
   loop has read are answered politely. *)
let step t loop (conn : session Evloop.conn) ~first line =
  let sess = conn.Evloop.data in
  let sp =
    Span.start ~begin_ticks:(if first then sess.s_mark else 0) ~cmd:"?"
  in
  if
    (first || sp.Span.sp_last - sess.s_mark > t.probe_ticks)
    && (not conn.Evloop.closing)
    && Evpoll.departed conn.Evloop.fd
  then begin
    Span.abandon sp;
    sess.s_quit <- true
  end
  else begin
    if first then begin
      Span.add_to sp Span.Queue (sp.Span.sp_last - sp.Span.sp_begin);
      if sess.s_first then begin
        sess.s_first <- false;
        if conn.Evloop.accept_ticks > 0 then
          Span.add_to sp Span.Accept conn.Evloop.accept_ticks
      end
    end;
    exec_line t loop conn sp line
  end

let verdict sess : Evloop.action =
  match sess.s_stream with
  | Some _ -> `Stream
  | None -> if sess.s_quit then `Close else `Continue

(* Run the batch's unexecuted lines in order until they run out, one
   parks, or a QUIT/SUBSCRIBE (or a departed peer) drops the rest. *)
let rec run_rest t loop conn ~first =
  let sess = conn.Evloop.data in
  match sess.s_rest with
  | line :: rest when not sess.s_quit ->
      sess.s_rest <- rest;
      step t loop conn ~first line;
      if sess.s_park <> None then `Park else run_rest t loop conn ~first:false
  | _ ->
      sess.s_rest <- [];
      verdict sess

(* Execute one read chunk's lines inline on the loop; [mark] is the
   tick stamp of the poll round that reported the chunk.  A stream's
   lines are its peer's ACKs. *)
let exec_batch t loop conn lines ~mark =
  let sess = conn.Evloop.data in
  match sess.s_stream with
  | Some st -> stream_lines t st lines
  | None ->
      sess.s_rest <- lines;
      sess.s_mark <- mark;
      let v = run_rest t loop conn ~first:true in
      (* A large reply (SYNC, SCAN, PROFILE) must not pin the loop's
         render buffer at its size for good. *)
      if Buffer.length loop.Evloop.scratch > 65536 then
        Buffer.reset loop.Evloop.scratch;
      v

(* The parked command's answer, once it has one. *)
let parked_reply t pk ~now =
  let expired = now >= pk.pk_until || Atomic.get t.stop_flag in
  match pk.pk_wait with
  | Window w ->
      if expired then
        Some (Protocol.Bulk (Verlib.Obs.Profile.json ~window:w ()))
      else None
  | Watch w -> (
      match Repl.Log.read_after t.feed ~seq:w.cursor with
      | `Resync ->
          Some (Protocol.Err "resync required: WATCH outpaced by the log")
      | `Records l -> (
          match List.find_opt (Repl.touches w.lo w.hi) l with
          | Some r -> Some (Protocol.reply_of_record r)
          | None ->
              List.iter (fun r -> w.cursor <- r.Repl.r_seq) l;
              if expired then Some Protocol.Nil else None))

(* Re-check a parked connection; once its command has an answer, emit
   it and run the rest of its batch.  Pump a streaming one. *)
let resume t loop conn ~now =
  let sess = conn.Evloop.data in
  match sess.s_park with
  | None -> (
      match sess.s_stream with
      | Some st -> pump t loop conn st ~now
      | None -> verdict sess)
  | Some pk -> (
      match parked_reply t pk ~now with
      | None -> `Park
      | Some r ->
          sess.s_park <- None;
          let sp = Span.start ~begin_ticks:pk.pk_begin ~cmd:pk.pk_cmd in
          Option.iter (Span.set_trace_id sp) pk.pk_tid;
          emit ~out:conn.Evloop.out ~scratch:loop.Evloop.scratch sp
            pk.pk_tid "ok" r;
          run_rest t loop conn ~first:false)


(* --- the follow connection (replica side) --------------------------------- *)

(* Make the local store equal to the SYNC snapshot.  Writes go through
   [Txn] like everything else, so local readers serialize against the
   reconciliation; bindings already correct cost one read, wrong ones
   one upsert, missing ones one [Txn.put] (4-10% cheaper per key than
   the same insert through [Txn.apply]'s install step). *)
let replica_reconcile t pairs =
  let store = Mount.store t.mount in
  let snap = Hashtbl.create (max 16 (List.length pairs)) in
  List.iter (fun (k, v) -> Hashtbl.replace snap k v) pairs;
  List.iter
    (fun (k, _) -> if not (Hashtbl.mem snap k) then ignore (Txn.del store k))
    (Mount.dump t.mount);
  List.iter
    (fun (k, v) ->
      match Txn.get store k with
      | Some v0 when v0 = v -> ()
      | Some _ -> Txn.apply store [ (k, Some v) ]
      | None -> ignore (Txn.put store k v))
    pairs

let parse_sync_pairs rest =
  let rec go acc = function
    | [] -> List.rev acc
    | Protocol.Int k :: Protocol.Int v :: tl -> go ((k, v) :: acc) tl
    | _ -> failwith "bad SYNC frame"
  in
  go [] rest

(* A replica follows its primary over one connection that loop 0 dials
   and reads on readiness like any other, sharing the loop with the
   replica's readers: SYNC, reconcile, SUBSCRIBE, then each streamed
   record through [Repl.Apply.offer] (in seq order, each one commit
   with no read phase, so readers' snapshots never see half a record).  One
   cumulative ACK per read chunk reports the cursor reached.  Any
   failure — a close, a [-ERR] (resync demand, partition), a record
   past the next seq (a gap: the feed lost records), [follow_silence]
   without a byte (the primary heartbeats every [heartbeat] seconds) —
   drops the connection, and loop 0's tick dials again [redial_delay]
   later, from SYNC; records already applied dedup as [`Dup].  PROMOTE
   ends it for good. *)
let follow_silence = 2.0

let redial_delay = 0.05

(* A poll-timeout cap, in ms, that wakes the loop by [deadline]. *)
let ms_until deadline ~now = 1 + int_of_float ((deadline -. now) *. 1000.)

(* One reassembled reply; true when it installed records. *)
let follow_reply t fw (conn : session Evloop.conn) (r : Protocol.reply) =
  match (fw.fw_phase, r) with
  | `Sync, Protocol.Arr (Protocol.Int seq :: Protocol.Int stamp :: rest) ->
      replica_reconcile t (parse_sync_pairs rest);
      (* The silence clock restarts after the reconcile, which holds
         the loop for as long as the store is large. *)
      conn.Evloop.last_act <- Unix.gettimeofday ();
      Repl.Apply.reset fw.fw_apply ~seq ~stamp;
      Protocol.render_command conn.Evloop.out
        (Protocol.Subscribe (min_int, max_int, Repl.Apply.last_seq fw.fw_apply));
      fw.fw_phase <- `Subscribe;
      false
  | `Subscribe, Protocol.Ok_ ->
      fw.fw_phase <- `Follow;
      false
  | `Follow, Protocol.Ok_ -> false (* heartbeat *)
  | `Follow, Protocol.Arr _ -> (
      match Protocol.record_of_reply r with
      | Error _ -> false (* not a record frame; ignore *)
      | Ok rc -> (
          match Repl.Apply.offer fw.fw_apply rc with
          | `Applied -> true
          | `Dup -> false
          | `Gap -> failwith "feed gap"))
  | _, Protocol.Err e -> failwith e
  | _ -> failwith ("unexpected reply " ^ Protocol.pp_reply r)

(* One read chunk of the follow connection. *)
let follow_lines t loop (conn : session Evloop.conn) fw lines : Evloop.action
    =
  let step applied line =
    if not (is_replica t) then failwith "promoted";
    match Protocol.Frames.push fw.fw_frames line with
    | Ok None -> applied
    | Ok (Some r) -> follow_reply t fw conn r || applied
    | Error e -> failwith e
  in
  match List.fold_left step false lines with
  | applied ->
      if applied then
        Protocol.render_command conn.Evloop.out
          (Protocol.Ack
             (Repl.Apply.last_seq fw.fw_apply, Repl.Apply.last_stamp fw.fw_apply));
      `Continue
  | exception (Failure _ | Fault.Injected _) ->
      Evloop.close_conn loop conn;
      `Close

(* Loop 0's share of following: end the connection once promoted or
   silent, dial when due.  Returns the poll-timeout cap in ms. *)
let follow_tick t loop fw ~now =
  match fw.fw_conn with
  | Some c ->
      if (not (is_replica t)) || now -. c.Evloop.last_act > follow_silence then
        Evloop.close_conn loop c;
      max_int
  | None when (not (is_replica t)) || Atomic.get t.stop_flag -> max_int
  | None when now < fw.fw_redial -> ms_until fw.fw_redial ~now
  | None -> (
      let sess = new_session ~follow:true ~admitted:false () in
      match Evloop.dial loop fw.fw_addr sess ~preload:"SYNC\r\n" with
      | c ->
          fw.fw_conn <- Some c;
          fw.fw_phase <- `Sync;
          max_int
      | exception Unix.Unix_error _ ->
          fw.fw_redial <- now +. redial_delay;
          ms_until fw.fw_redial ~now)

let follow_closed fw =
  fw.fw_conn <- None;
  Protocol.Frames.reset fw.fw_frames;
  fw.fw_redial <- Unix.gettimeofday () +. redial_delay

(* --- domains ------------------------------------------------------------- *)

(* One census of the whole mount and, on a sharded mount, of each
   shard; STATS and flight dumps report the latest. *)
let take_census t =
  let c = Verlib.Chainscan.census_of_iter (Mount.iter_vptrs t.mount) in
  let shards =
    match Mount.shard_views t.mount with
    | [] | [ _ ] -> []
    | views ->
        List.map
          (fun (name, iter) -> (name, Verlib.Chainscan.census_of_iter iter))
          views
  in
  Atomic.set t.latest_census (Some { whole = c; shards });
  Atomic.incr t.census_samples;
  if c.Verlib.Chainscan.c_violation_count > 0 then begin
    ignore
      (Atomic.fetch_and_add t.census_violations c.Verlib.Chainscan.c_violation_count);
    (* A chain-invariant violation is exactly the incident the flight
       recorder exists for: the dump's STATS carries the offending
       census. *)
    flight_record t ~trigger:Harness.Flight.Census_violation
  end

(* SLO check: any request phase whose p99 (µs) exceeds the configured
   budget files a flight report naming the offending phase.  The
   recorder's cooldown keeps a persistently slow phase from spamming. *)
let slo_check t =
  if t.cfg.slo_p99_us > 0. then
    List.iter
      (fun p ->
        let s = Flock.Telemetry.Hist.summary (Span.phase_hist p) in
        if
          s.Flock.Telemetry.Hist.s_count > 0
          && Verlib.Hwclock.to_us s.Flock.Telemetry.Hist.s_p99
             > t.cfg.slo_p99_us
        then
          flight_record t
            ~trigger:(Harness.Flight.Slo_breach (Span.phase_name p)))
      Span.phases

let sweep_on cfg = cfg.census_interval > 0. || cfg.metrics_interval > 0.

(* The one background sweep, the census's only owner: a census every
   [census_interval] seconds (every [metrics_interval] when only that is
   set) and the SLO check every [metrics_interval]. *)
let sweep_loop t () =
  let census_every =
    if t.cfg.census_interval > 0. then t.cfg.census_interval
    else t.cfg.metrics_interval
  in
  let slo_every =
    if t.cfg.metrics_interval > 0. then t.cfg.metrics_interval else infinity
  in
  let next_census = ref (Unix.gettimeofday () +. census_every) in
  let next_slo = ref (Unix.gettimeofday () +. slo_every) in
  while not (Atomic.get t.stop_flag) do
    Unix.sleepf 0.01;
    if not (Atomic.get t.stop_flag) then begin
      if Unix.gettimeofday () >= !next_census then begin
        take_census t;
        next_census := Unix.gettimeofday () +. census_every
      end;
      if Unix.gettimeofday () >= !next_slo then begin
        slo_check t;
        next_slo := Unix.gettimeofday () +. slo_every
      end
    end
  done

(* --- event-loop handlers -------------------------------------------------- *)

(* Ask every loop to drain: [on_stop] first (once), then the flag the
   loops poll.  Only atomics and the hook, so a signal handler may call
   it. *)
let request_stop t =
  if not (Atomic.exchange t.stop_asked true) then begin
    t.on_stop ();
    Atomic.set t.stop_flag true
  end

(* Every loop's end of iteration: the [run] deadline (any loop that is
   not stalled notices it), and on loop 0 the follow connection. *)
let tick t loop ~now =
  let cap =
    if t.deadline = infinity then max_int
    else if now >= t.deadline then begin
      request_stop t;
      max_int
    end
    else ms_until t.deadline ~now
  in
  match t.follower with
  | Some fw when loop == t.loops.(0) -> min cap (follow_tick t loop fw ~now)
  | Some _ | None -> cap

let busy_bytes t =
  let b = Buffer.create 32 in
  Protocol.render_reply b (busy t);
  Buffer.contents b

let handlers t : session Evloop.handlers =
  {
    Evloop.h_accept =
      (fun _fd ->
        Atomic.incr t.conns_total;
        if t.cfg.max_conns > 0 && Atomic.get t.conns_active >= t.cfg.max_conns
        then begin
          (* Connection cap: answer [-BUSY] at the door and close.  The
             refusal rides the normal nonblocking flush machinery — the
             loop never blocks on a slow victim. *)
          count_shed t;
          `Reject (new_session ~admitted:false (), busy_bytes t)
        end
        else begin
          Atomic.incr t.conns_active;
          `Admit (new_session ~admitted:true ())
        end);
    h_exec =
      (fun loop conn lines ~mark ->
        match t.follower with
        | Some fw when conn.Evloop.data.s_follow ->
            follow_lines t loop conn fw lines
        | Some _ | None -> exec_batch t loop conn lines ~mark);
    h_resume = resume t;
    h_tick = tick t;
    h_overflow =
      (fun _sess ->
        Atomic.incr t.errors_total;
        let b = Buffer.create 32 in
        Protocol.render_reply b (Protocol.Err "line too long");
        Buffer.contents b);
    h_kill =
      (fun _reason ->
        Atomic.incr t.deadline_kills;
        Atomic.incr deadline_kills_total_a;
        flight_record t ~trigger:Harness.Flight.Deadline_kill);
    h_close =
      (fun sess ~graceful ->
        if sess.s_admitted then Atomic.decr t.conns_active;
        if sess.s_follow then Option.iter follow_closed t.follower;
        (* A stream that ended by QUIT, EOF, resync or the drain drops
           its cursor; one cut by an error, a deadline or a partition
           orphans it. *)
        Option.iter
          (fun st ->
            if graceful then Repl.Log.unsubscribe t.feed st.st_id
            else Repl.Log.orphan t.feed st.st_id)
          sess.s_stream);
  }

let listen_backlog = 64

let listen t =
  if t.lsock = None then begin
    (* A peer that resets mid-reply must cost an EPIPE exception on the
       writing domain, never a process-killing SIGPIPE. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
    let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt lsock Unix.SO_REUSEADDR true;
    Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, t.cfg.port));
    Unix.listen lsock listen_backlog;
    (match Unix.getsockname lsock with
     | Unix.ADDR_INET (_, p) -> t.bound_port <- p
     | _ -> ());
    t.lsock <- Some lsock
  end

(* Everything but running the loops: listen, build them, spawn the
   background domains. *)
let launch t =
  if t.started then invalid_arg "Server.start: already started";
  listen t;
  let lsock = Option.get t.lsock in
  t.started <- true;
  t.started_at <- Unix.gettimeofday ();
  t.probe_ticks <- int_of_float (1000. *. Verlib.Hwclock.cycles_per_us ());
  t.loops <-
    Evloop.create ~n:t.cfg.domains ~lsock ~handlers:(handlers t)
      ~stop_flag:t.stop_flag ~idle_timeout:t.cfg.idle_timeout
      ~write_timeout:t.cfg.write_timeout ~max_line ~fp_read ~fp_write ();
  if sweep_on t.cfg then t.sweep_d <- Some (Domain.spawn (sweep_loop t));
  if t.cfg.profile_hz > 0 then
    Verlib.Obs.Profile.start ~hz:t.cfg.profile_hz ()

let spawn_loops t ~from =
  t.loop_ds <-
    Array.to_list
      (Array.sub t.loops from (Array.length t.loops - from)
      |> Array.map (fun l -> Domain.spawn (fun () -> Evloop.run l)))

let start t =
  launch t;
  spawn_loops t ~from:0

let stop t =
  if t.started && not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stop_flag true;
    (* Each loop drains on its way out: every complete line already read
       is answered, parked commands answer early, outbufs flush, fds
       close. *)
    Array.iter Evloop.wake t.loops;
    List.iter Domain.join t.loop_ds;
    t.loop_ds <- [];
    (match t.lsock with
     | Some fd ->
         (try Unix.close fd with _ -> ());
         t.lsock <- None
     | None -> ());
    Option.iter Domain.join t.sweep_d;
    t.sweep_d <- None;
    (* Stop the sampler after the loops are joined so the final ticks
       still see their activity; stacks stay accumulated for export. *)
    if t.cfg.profile_hz > 0 then Verlib.Obs.Profile.stop ();
    (* Quiescent final census: the loops are joined, so the audit is
       exact. *)
    if sweep_on t.cfg then take_census t
  end;
  (* A stopped server's feed, and any cursor it orphaned, must not hold
     the process-wide lag gauges up. *)
  Repl.Log.unregister t.feed

let run ?(deadline = infinity) ?(on_stop = ignore) t =
  t.deadline <- deadline;
  t.on_stop <- on_stop;
  launch t;
  spawn_loops t ~from:1;
  Fun.protect ~finally:(fun () -> stop t) (fun () -> Evloop.run t.loops.(0))

let final_census t =
  if t.stopped then Option.map (fun s -> s.whole) (Atomic.get t.latest_census)
  else None

let census_violations_total t = Atomic.get t.census_violations

let shed_count t = Atomic.get t.shed

let deadline_kill_count t = Atomic.get t.deadline_kills
