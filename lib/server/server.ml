module Protocol = Protocol
module Mount = Mount
module Client = Client
module Evpoll = Evpoll
module Evloop = Evloop

type config = {
  port : int;
  domains : int;
  backlog : int;
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
    backlog = 64;
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

let deadline_kills_a = Atomic.make 0

let (_ : Flock.Telemetry.Gauge.t) =
  Flock.Telemetry.Gauge.make "shed_total" (fun () -> Atomic.get shed_total_a)

let (_ : Flock.Telemetry.Gauge.t) =
  Flock.Telemetry.Gauge.make "deadline_kills" (fun () ->
      Atomic.get deadline_kills_a)

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
  mutable st_held : Repl.record option;  (** held back by [reorder] *)
  mutable st_beat : float;  (** the last record or heartbeat *)
}

(* Per-connection protocol state, owned by the connection's loop. *)
type session = {
  s_admitted : bool;
      (** false for door-shed connections that only exist to carry the
          [-BUSY] refusal out; they never counted as active *)
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

let new_session ~admitted () =
  {
    s_admitted = admitted;
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

type t = {
  mount : Mount.t;
  cfg : config;
  stop_flag : bool Atomic.t;
  role : role Atomic.t;
  feed : Repl.Log.t;
      (** change-feed tap over the mount's store — what SUBSCRIBE /
          WATCH / SYNC serve from *)
  apply : Repl.Apply.t option;  (** replica servers only *)
  mutable replica_d : unit Domain.t option;
  mutable loops : session Evloop.t array;
  mutable probe_ticks : int;
      (** batch age after which each command first probes for a
          departed peer: 1 ms in clock ticks *)
  flight : Harness.Flight.t option;
  hard_shed_on : bool Atomic.t;  (* edge detector for the flight trigger *)
  mutable lsock : Unix.file_descr option;
  mutable bound_port : int;
  mutable loop_ds : unit Domain.t list;  (** one event loop each *)
  mutable census_d : unit Domain.t option;
  mutable metrics_d : unit Domain.t option;
  mutable census_reg : Verlib.Chainscan.registration option;
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
  latest_census : Verlib.Chainscan.census option Atomic.t;
  final_census : Verlib.Chainscan.census option Atomic.t;
}

let create ?(config = default_config) mount =
  let feed = Repl.Log.create ~capacity:config.feed_capacity () in
  Repl.Log.tap feed (Mount.store mount);
  {
    mount;
    cfg = config;
    stop_flag = Atomic.make false;
    role =
      Atomic.make (match config.replica_of with Some _ -> Replica | None -> Primary);
    feed;
    apply =
      (match config.replica_of with
       | Some _ -> Some (Repl.Apply.create (Mount.store mount))
       | None -> None);
    replica_d = None;
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
    census_d = None;
    metrics_d = None;
    census_reg = None;
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
    final_census = Atomic.make None;
  }

let port t = t.bound_port

let running t = t.started && not t.stopped

(* --- flight recorder ------------------------------------------------------ *)

(* The admission signal summed over the loops (each loop sheds on its
   own; this is the gauge). *)
let queue_depth t =
  Array.fold_left (fun n l -> n + l.Evloop.waiting) 0 t.loops

let flight_extra t =
  [
    ("queue_depth", string_of_int (queue_depth t));
    ("connections_active", string_of_int (Atomic.get t.conns_active));
    ("shed", string_of_int (Atomic.get t.shed));
    ("deadline_kills", string_of_int (Atomic.get t.deadline_kills));
  ]

let flight_record t ~trigger ?census () =
  match t.flight with
  | None -> ()
  | Some f ->
      ignore
        (Harness.Flight.record f ~trigger ?census ~extra:(flight_extra t) ())

let flight_dump_count t =
  match t.flight with None -> 0 | Some f -> Harness.Flight.dump_count f

let flight_last_path t =
  match t.flight with None -> None | Some f -> Harness.Flight.last_path f

(* --- STATS --------------------------------------------------------------- *)

let stats_json t =
  let uptime = if t.started then Unix.gettimeofday () -. t.started_at else 0. in
  let census_extra =
    match
      (match Atomic.get t.final_census with
       | Some c -> Some c
       | None -> Atomic.get t.latest_census)
    with
    | None -> []
    | Some c ->
        [
          ("census", Harness.Obs_report.json_of_census c);
          ("census_samples", string_of_int (Atomic.get t.census_samples));
          ( "census_violations_total",
            string_of_int (Atomic.get t.census_violations) );
        ]
  in
  (* Per-shard census breakdown for sharded mounts: one fresh (passive,
     approximate-under-mutators) census per shard view, so a hot or
     pathological shard is visible instead of averaged away in the
     merged totals. *)
  let shard_extra =
    match Mount.shard_views t.mount with
    | [] | [ _ ] -> []
    | views ->
        let b = Buffer.create 1024 in
        Buffer.add_char b '{';
        List.iteri
          (fun i (name, iter) ->
            if i > 0 then Buffer.add_char b ',';
            let c = Verlib.Chainscan.census_of_iter iter in
            Buffer.add_string b
              (Printf.sprintf "\"%s\":%s" name
                 (Harness.Obs_report.json_of_census c)))
          views;
        Buffer.add_char b '}';
        [ ("census_shards", Buffer.contents b) ]
  in
  let census_extra = census_extra @ shard_extra in
  let extra =
    [
      ("server", "\"verlib-serve\"");
      ("structure", Printf.sprintf "%S" (Mount.name t.mount));
      ( "range_capability",
        Printf.sprintf "%S"
          (Dstruct.Map_intf.range_capability_name (Mount.range_capability t.mount))
      );
      ("uptime_s", Printf.sprintf "%.3f" uptime);
      ("domains", string_of_int t.cfg.domains);
      ("connections_total", string_of_int (Atomic.get t.conns_total));
      ("connections_active", string_of_int (Atomic.get t.conns_active));
      ("commands_total", string_of_int (Atomic.get t.commands_total));
      ("protocol_errors", string_of_int (Atomic.get t.errors_total));
      ("shed", string_of_int (Atomic.get t.shed));
      ("deadline_kills", string_of_int (Atomic.get t.deadline_kills));
      ("queue_depth", string_of_int (queue_depth t));
      ( "loop_conns",
        Array.to_list t.loops
        |> List.map (fun l -> string_of_int (Atomic.get l.Evloop.load))
        |> String.concat "," |> Printf.sprintf "[%s]" );
      ("size", string_of_int (Mount.size t.mount));
    ]
    @ census_extra
  in
  Harness.Obs_report.to_json ~extra (Verlib.Obs.capture ())

(* --- METRICS -------------------------------------------------------------- *)

(* The live metrics plane: everything [Flock.Telemetry] holds plus the
   server's own counters, as Prometheus text exposition.  Like [Ping]
   and [Stats], never shed — an overloaded server stays measurable. *)
let metrics_text t =
  let uptime = if t.started then Unix.gettimeofday () -. t.started_at else 0. in
  Harness.Obs_report.prometheus
    ~extra:
      [
        ("server_uptime_s", int_of_float uptime);
        ("server_connections_total", Atomic.get t.conns_total);
        ("server_connections_active", Atomic.get t.conns_active);
        ("server_commands_total", Atomic.get t.commands_total);
        ("server_protocol_errors", Atomic.get t.errors_total);
        ("server_shed", Atomic.get t.shed);
        ("server_deadline_kills", Atomic.get t.deadline_kills);
        ("server_queue_depth", queue_depth t);
        ("server_flight_dumps", flight_dump_count t);
      ]
    ()

(* --- replication plane ---------------------------------------------------- *)

let is_replica t = Atomic.get t.role = Replica

let replica_readonly_msg =
  "READONLY: replica refuses writes; PROMOTE it or write to the primary"

let replstats_json t =
  let role = if is_replica t then "replica" else "primary" in
  let lag_s, lag_b = Repl.Log.lag t.feed in
  let apply_fields =
    match t.apply with
    | None -> ""
    | Some a ->
        Printf.sprintf
          ",\"apply_last_seq\":%d,\"apply_watermark\":%d,\"apply_pending\":%d"
          (Repl.Apply.last_seq a) (Repl.Apply.watermark a)
          (Repl.Apply.pending_count a)
  in
  Printf.sprintf
    "{\"role\":%S,\"tail_seq\":%d,\"tail_stamp\":%d,\"subscribers\":%d,\"lag_stamps\":%d,\"lag_bytes\":%d,\"records_total\":%d,\"resyncs\":%d,\"applied_total\":%d,\"dup_dropped\":%d,\"watermark\":%d%s}"
    role (Repl.Log.tail_seq t.feed)
    (Repl.Log.tail_stamp t.feed)
    (Repl.Log.subscriber_count t.feed)
    lag_s lag_b (Repl.records_total ()) (Repl.resyncs_total ())
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
   the window), [dup] ships a record twice, [reorder] holds a record
   back one round — the at-least-once, possibly-reordered delivery the
   replica's apply engine must absorb.

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
          st_held = None;
          st_beat = Unix.gettimeofday ();
        }
  | exception Fault.Injected _ -> None

(* Render what the feed holds past the stream's cursor into its
   outbuf. *)
let pump t loop (conn : session Evloop.conn) st ~now : Evloop.action =
  let out = conn.Evloop.out in
  let push r = Protocol.render_reply out (Protocol.reply_of_record r) in
  let release_held () =
    match st.st_held with
    | Some r ->
        st.st_held <- None;
        push r
    | None -> ()
  in
  let emit r =
    match Fault.feed_check Repl.fp_send with
    | Some Fault.Dup ->
        push r;
        push r;
        release_held ()
    | Some Fault.Reorder when st.st_held = None -> st.st_held <- Some r
    | Some _ | None ->
        push r;
        release_held ()
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
          (* Nothing follows a held record soon: stop reordering it. *)
          release_held ();
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
      flight_record t ~trigger:Harness.Flight.Hard_shed ()
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

let command_verb : Protocol.command -> string = function
  | Protocol.Ping -> "PING"
  | Protocol.Get _ -> "GET"
  | Protocol.Put _ -> "PUT"
  | Protocol.Del _ -> "DEL"
  | Protocol.Mget _ -> "MGET"
  | Protocol.Range _ -> "RANGE"
  | Protocol.Rangecount _ -> "RANGECOUNT"
  | Protocol.Scan _ -> "SCAN"
  | Protocol.Size -> "SIZE"
  | Protocol.Stats -> "STATS"
  | Protocol.Metrics -> "METRICS"
  | Protocol.Profile _ -> "PROFILE"
  | Protocol.Multi -> "MULTI"
  | Protocol.Exec _ -> "EXEC"
  | Protocol.Discard -> "DISCARD"
  | Protocol.Subscribe _ -> "SUBSCRIBE"
  | Protocol.Watch _ -> "WATCH"
  | Protocol.Sync -> "SYNC"
  | Protocol.Replstats -> "REPLSTATS"
  | Protocol.Promote -> "PROMOTE"
  | Protocol.Ack _ -> "ACK"
  | Protocol.Quit -> "QUIT"

(* Per-verb activity frames for the sampling profiler.  Interning is
   mutexed and must stay off hot paths, so every verb is interned once
   at module-load time (single-domain); [exec_line] then publishes a
   pre-computed id — two gated plain stores per command. *)
module Activity = Flock.Telemetry.Activity

let verb_activity : Protocol.command -> int =
  let ping = Activity.intern "PING"
  and get = Activity.intern "GET"
  and put = Activity.intern "PUT"
  and del = Activity.intern "DEL"
  and mget = Activity.intern "MGET"
  and range = Activity.intern "RANGE"
  and rangecount = Activity.intern "RANGECOUNT"
  and scan = Activity.intern "SCAN"
  and size = Activity.intern "SIZE"
  and stats = Activity.intern "STATS"
  and metrics = Activity.intern "METRICS"
  and profile = Activity.intern "PROFILE"
  and multi = Activity.intern "MULTI"
  and exec = Activity.intern "EXEC"
  and discard = Activity.intern "DISCARD"
  and subscribe = Activity.intern "SUBSCRIBE"
  and watch = Activity.intern "WATCH"
  and sync = Activity.intern "SYNC"
  and replstats = Activity.intern "REPLSTATS"
  and promote = Activity.intern "PROMOTE"
  and ack = Activity.intern "ACK"
  and quit = Activity.intern "QUIT" in
  function
  | Protocol.Ping -> ping
  | Protocol.Get _ -> get
  | Protocol.Put _ -> put
  | Protocol.Del _ -> del
  | Protocol.Mget _ -> mget
  | Protocol.Range _ -> range
  | Protocol.Rangecount _ -> rangecount
  | Protocol.Scan _ -> scan
  | Protocol.Size -> size
  | Protocol.Stats -> stats
  | Protocol.Metrics -> metrics
  | Protocol.Profile _ -> profile
  | Protocol.Multi -> multi
  | Protocol.Exec _ -> exec
  | Protocol.Discard -> discard
  | Protocol.Subscribe _ -> subscribe
  | Protocol.Watch _ -> watch
  | Protocol.Sync -> sync
  | Protocol.Replstats -> replstats
  | Protocol.Promote -> promote
  | Protocol.Ack _ -> ack
  | Protocol.Quit -> quit

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
        Span.set_cmd sp (command_verb c);
        (match tid with Some id -> Span.set_trace_id sp id | None -> ());
        if Activity.on () then Activity.set Activity.dim_op (verb_activity c);
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
        | c when sess.s_multi ->
            (* PING/STATS/SCAN/... make no sense inside a transaction;
               poison it so EXEC cannot silently commit a sequence the
               client mis-stated. *)
            Atomic.incr t.errors_total;
            sess.s_dirty <- true;
            ( tid,
              "error",
              Protocol.Err
                (Printf.sprintf "%s not allowed in MULTI" (command_verb c))
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
               apply loop (if any) notices the role flip and exits. *)
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


(* --- the replica (follower) loop ------------------------------------------ *)

(* Make the local store equal to the SYNC snapshot.  Writes go through
   [Txn] like everything else, so local readers serialize against the
   reconciliation; bindings already correct cost one read. *)
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
      | Some _ ->
          ignore (Txn.del store k);
          ignore (Txn.put store k v)
      | None -> ignore (Txn.put store k v))
    pairs

let parse_sync_pairs rest =
  let rec go acc = function
    | [] -> List.rev acc
    | Protocol.Int k :: Protocol.Int v :: tl -> go ((k, v) :: acc) tl
    | _ -> failwith "bad SYNC frame"
  in
  go [] rest

(* Follow the primary: bootstrap from SYNC, stream the suffix, apply in
   seq order, ack the cursor.  Any failure — partition, resync demand,
   reorder-buffer overflow, dead primary — tears the connection down and
   starts over from SYNC; records already applied dedup as [`Dup].  The
   loop exits when the server stops or the replica is PROMOTEd. *)
let replica_loop t host port () =
  let apply = match t.apply with Some a -> a | None -> assert false in
  let running () = (not (Atomic.get t.stop_flag)) && is_replica t in
  while running () do
    (try
       let c = Client.connect ~host ~read_timeout:2.0 ~port () in
       Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
       (match Client.request c Protocol.Sync with
        | Ok (Protocol.Arr (Protocol.Int seq :: Protocol.Int stamp :: rest)) ->
            replica_reconcile t (parse_sync_pairs rest);
            Repl.Apply.reset apply ~seq ~stamp
        | Ok (Protocol.Err e) -> failwith e
        | Ok _ -> failwith "bad SYNC reply"
        | Error e -> failwith e);
       (match
          Client.request c
            (Protocol.Subscribe (min_int, max_int, Repl.Apply.last_seq apply))
        with
        | Ok Protocol.Ok_ -> ()
        | Ok (Protocol.Err e) -> failwith e
        | Ok _ | Error _ -> failwith "SUBSCRIBE refused");
       let ack () =
         (* Best-effort: a lost ack only delays the primary's lag
            gauges until the next one. *)
         try
           Client.send_raw c
             (Printf.sprintf "ACK %d %d\r\n" (Repl.Apply.last_seq apply)
                (Repl.Apply.last_stamp apply))
         with _ -> ()
       in
       let rec pump () =
         if running () then
           match Client.read_reply c with
           | Ok Protocol.Ok_ -> pump () (* heartbeat *)
           | Ok (Protocol.Err _) -> failwith "stream demands resync"
           | Ok r -> (
               match Protocol.record_of_reply r with
               | Error _ -> pump () (* not a record frame; ignore *)
               | Ok rc -> (
                   match Repl.Apply.offer apply rc with
                   | `Applied _ ->
                       ack ();
                       pump ()
                   | `Dup | `Buffered -> pump ()
                   | `Overflow -> failwith "reorder buffer overflow"))
           | Error e -> failwith e
       in
       pump ()
     with _ -> if running () then Unix.sleepf 0.05)
  done

(* --- domains ------------------------------------------------------------- *)

let take_census t =
  let c = Verlib.Chainscan.census_of_iter (Mount.iter_vptrs t.mount) in
  Atomic.set t.latest_census (Some c);
  Atomic.incr t.census_samples;
  if c.Verlib.Chainscan.c_violation_count > 0 then begin
    ignore
      (Atomic.fetch_and_add t.census_violations c.Verlib.Chainscan.c_violation_count);
    (* A chain-invariant violation is exactly the incident the flight
       recorder exists for: dump with the offending census attached. *)
    flight_record t ~trigger:Harness.Flight.Census_violation ~census:c ()
  end;
  c

let census_loop t () =
  while not (Atomic.get t.stop_flag) do
    let deadline = Unix.gettimeofday () +. t.cfg.census_interval in
    while (not (Atomic.get t.stop_flag)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    if not (Atomic.get t.stop_flag) then ignore (take_census t)
  done

(* SLO sweep: any request phase whose p99 (µs) exceeds the configured
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
            ~trigger:(Harness.Flight.Slo_breach (Span.phase_name p))
            ())
      Span.phases

(* The metrics plane's background cadence: a fresh census (so STATS and
   shedding see current chain health even with the dedicated census
   domain off) plus the SLO sweep, every [metrics_interval] seconds. *)
let metrics_loop t () =
  while not (Atomic.get t.stop_flag) do
    let deadline = Unix.gettimeofday () +. t.cfg.metrics_interval in
    while (not (Atomic.get t.stop_flag)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    if not (Atomic.get t.stop_flag) then begin
      ignore (take_census t);
      slo_check t
    end
  done

(* --- event-loop handlers -------------------------------------------------- *)

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
    h_exec = exec_batch t;
    h_resume = resume t;
    h_overflow =
      (fun _sess ->
        Atomic.incr t.errors_total;
        let b = Buffer.create 32 in
        Protocol.render_reply b (Protocol.Err "line too long");
        Buffer.contents b);
    h_kill =
      (fun _reason ->
        Atomic.incr t.deadline_kills;
        Atomic.incr deadline_kills_a;
        flight_record t ~trigger:Harness.Flight.Deadline_kill ());
    h_close =
      (fun sess ~graceful ->
        if sess.s_admitted then Atomic.decr t.conns_active;
        (* A stream that ended by QUIT, EOF, resync or the drain drops
           its cursor; one cut by an error, a deadline or a partition
           orphans it. *)
        Option.iter
          (fun st ->
            if graceful then Repl.Log.unsubscribe t.feed st.st_id
            else Repl.Log.orphan t.feed st.st_id)
          sess.s_stream);
  }

let start t =
  if t.started then invalid_arg "Server.start: already started";
  (* A peer that resets mid-reply must cost an EPIPE exception on the
     writing domain, never a process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, t.cfg.port));
  Unix.listen lsock t.cfg.backlog;
  (match Unix.getsockname lsock with
   | Unix.ADDR_INET (_, p) -> t.bound_port <- p
   | _ -> ());
  t.lsock <- Some lsock;
  t.started <- true;
  t.started_at <- Unix.gettimeofday ();
  t.probe_ticks <- int_of_float (1000. *. Verlib.Hwclock.cycles_per_us ());
  t.loops <-
    Evloop.create ~n:t.cfg.domains ~lsock ~handlers:(handlers t)
      ~stop_flag:t.stop_flag ~idle_timeout:t.cfg.idle_timeout
      ~write_timeout:t.cfg.write_timeout ~max_line ~fp_read ~fp_write ();
  if t.cfg.census_interval > 0. then begin
    t.census_reg <-
      Some
        (Verlib.Chainscan.register
           ~name:("serve:" ^ Mount.name t.mount)
           (Mount.iter_vptrs t.mount));
    t.census_d <- Some (Domain.spawn (census_loop t))
  end;
  if t.cfg.metrics_interval > 0. then
    t.metrics_d <- Some (Domain.spawn (metrics_loop t));
  if t.cfg.profile_hz > 0 then
    Verlib.Obs.Profile.start ~hz:t.cfg.profile_hz ();
  (match t.cfg.replica_of with
   | Some (host, port) ->
       t.replica_d <- Some (Domain.spawn (replica_loop t host port))
   | None -> ());
  t.loop_ds <-
    Array.to_list
      (Array.map (fun l -> Domain.spawn (fun () -> Evloop.run l)) t.loops)

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
    Option.iter Domain.join t.replica_d;
    t.replica_d <- None;
    Option.iter Domain.join t.census_d;
    t.census_d <- None;
    Option.iter Domain.join t.metrics_d;
    t.metrics_d <- None;
    (* Stop the sampler after the loops are joined so the final ticks
       still see their activity; stacks stay accumulated for export. *)
    if t.cfg.profile_hz > 0 then Verlib.Obs.Profile.stop ();
    (* Quiescent final census: the loops are joined, so the audit is
       exact. *)
    if t.cfg.census_interval > 0. || t.cfg.metrics_interval > 0. then begin
      let c = take_census t in
      Atomic.set t.final_census (Some c)
    end;
    Option.iter Verlib.Chainscan.unregister t.census_reg;
    t.census_reg <- None
  end

let final_census t = Atomic.get t.final_census

let census_violations_total t = Atomic.get t.census_violations

let shed_count t = Atomic.get t.shed

let deadline_kill_count t = Atomic.get t.deadline_kills
