module Protocol = Protocol
module Mount = Mount
module Client = Client
module Bank = Bank
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
  | Watch of { lo : int; hi : int; cursor : int ref }
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
  fw_sync : sync_rx;  (** the SYNC reply being read *)
  mutable fw_conn : session Evloop.conn option;
  mutable fw_phase : [ `Sync | `Subscribe | `Follow ];
      (** what the primary answers next: the SYNC snapshot, SUBSCRIBE's
          +OK, then the stream *)
  mutable fw_redial : float;  (** dial again no sooner than this *)
}

(* A SYNC reply read line by line into flat arrays: element 0 is the
   seq, 1 the stamp, then key/value pairs. *)
and sync_rx = {
  mutable rx_left : int;  (** elements still to come; 0: no reply open *)
  mutable rx_elem : int;  (** elements read *)
  mutable rx_seq : int;
  mutable rx_stamp : int;
  mutable rx_keys : int array;
  mutable rx_vals : int array;
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
  mutable sweep_d : unit Domain.t option;
      (** the sweep: census, SLO check and profiler tick *)
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
            fw_sync =
              {
                rx_left = 0;
                rx_elem = 0;
                rx_seq = 0;
                rx_stamp = 0;
                rx_keys = [||];
                rx_vals = [||];
              };
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
    ("size", Txn.size (Mount.store t.mount));
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
   point down and kills the stream (and SYNC/re-subscription for the
   window), [dup] ships a record twice — the at-least-once delivery the
   replica's apply engine dedups.  Records always go out in seq order:
   [copy_after] answers a gapless suffix or [`Resync].

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

(* The domain's copy of feed records for a pump or a WATCH to render:
   the log's mutex is held for the copy, never for a render (appends
   run under the commit's stripe latches). *)
let batch_key = Domain.DLS.new_key Repl.Batch.create

(* Render the copied records the stream's range selects, moving its
   cursor past each.  [dup] ships a record twice. *)
let rec pump_batch st out w o len =
  if o < len then begin
    st.st_seq <- Repl.Flat.seq w o;
    if Repl.Flat.touches st.st_lo st.st_hi w o then begin
      if Fault.feed_check Repl.fp_send = Some Fault.Dup then
        Protocol.render_record out w o;
      Protocol.render_record out w o
    end;
    pump_batch st out w (o + Repl.Flat.size w o) len
  end

(* Copy and render a batch at a time until the feed's tail or the
   outbuf's high-water mark; [sent] says whether any record passed. *)
let rec pump_records t (conn : session Evloop.conn) st b sent =
  match Repl.Log.copy_after t.feed ~seq:st.st_seq b with
  | `Resync -> `Resync
  | `Copied when Repl.Batch.length b = 0 -> sent
  | `Copied ->
      pump_batch st conn.Evloop.out (Repl.Batch.words b) 0 (Repl.Batch.length b);
      if Evloop.out_pending conn >= Evloop.out_hwm then `Sent
      else pump_records t conn st b `Sent

(* Render what the feed holds past the stream's cursor into its
   outbuf. *)
let pump t loop (conn : session Evloop.conn) st ~now : Evloop.action =
  let out = conn.Evloop.out in
  try
    match pump_records t conn st (Domain.DLS.get batch_key) `Idle with
    | `Resync ->
        (* Laggard shed: the ring trimmed past this cursor.  A clean
           refusal — the peer re-bootstraps via SYNC. *)
        Protocol.render_reply out (Protocol.Err "resync required");
        `Close
    | `Idle ->
        if now -. st.st_beat >= heartbeat then begin
          Fault.hit Repl.fp_send;
          Protocol.render_reply out Protocol.Ok_;
          st.st_beat <- now
        end;
        `Stream
    | `Sent ->
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

(* --- command execution (on the connection's loop) ------------------------ *)

let multi_reset sess =
  sess.s_multi <- false;
  sess.s_queued <- [];
  sess.s_dirty <- false

(* What a command answers: a reply, or bytes rendered straight into the
   outbuf with no reply built (SYNC, SCAN, a WATCH's record). *)
type answer = Reply of Protocol.reply | Render of (Buffer.t -> unit)

(* Render [a] into [buf]; [false] when a [Render] raised, and a
   [-ERR internal: ...] went out in place of its bytes. *)
let render_answer buf = function
  | Reply r ->
      Protocol.render_reply buf r;
      true
  | Render f -> (
      let start = Buffer.length buf in
      try
        f buf;
        true
      with e ->
        Buffer.truncate buf start;
        Protocol.render_reply buf
          (Protocol.Err ("internal: " ^ Printexc.to_string e));
        false)

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
  (tid, "ok", Reply Protocol.Nil)

(* Render [a] under the [reply] phase and finish the span.  An untraced
   answer goes straight into the outbuf.  A traced one is rendered into
   the loop's scratch buffer first: its @-frame, built from the finished
   span, goes ahead of the data bytes (the incremental reader never
   peeks past a reply).  A render that raised answers [-ERR] and counts
   as an error, like a [Reply (Err _)].  The batched socket flush is
   shared across pipelined commands and is not attributed to any
   span. *)
let emit t ~out ~scratch sp trace_id outcome a =
  Span.switch sp Span.Reply;
  let rendered buf =
    if render_answer buf a then outcome
    else begin
      Atomic.incr t.errors_total;
      "error"
    end
  in
  match trace_id with
  | None -> Span.finish sp ~outcome:(rendered out)
  | Some id ->
      Buffer.clear scratch;
      let outcome = rendered scratch in
      Span.finish sp ~outcome;
      Protocol.render_trace out (trace_info_of sp id outcome);
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
        (None, "error", Reply (Protocol.Err msg))
    | Ok (tid, c) -> (
        let verb = Protocol.verb_index c in
        Span.set_cmd sp (Protocol.verb_name verb);
        (match tid with Some id -> Span.set_trace_id sp id | None -> ());
        match c with
        | Protocol.Quit ->
            sess.s_quit <- true;
            (tid, "ok", Reply Protocol.Ok_)
        | Protocol.Multi ->
            if sess.s_multi then begin
              Atomic.incr t.errors_total;
              sess.s_dirty <- true;
              (tid, "error", Reply (Protocol.Err "MULTI: nested MULTI"))
            end
            else begin
              multi_reset sess;
              sess.s_multi <- true;
              (tid, "ok", Reply Protocol.Ok_)
            end
        | Protocol.Discard ->
            if sess.s_multi then begin
              multi_reset sess;
              (tid, "ok", Reply Protocol.Ok_)
            end
            else begin
              Atomic.incr t.errors_total;
              (tid, "error", Reply (Protocol.Err "DISCARD without MULTI"))
            end
        | Protocol.Exec token ->
            if not sess.s_multi then begin
              Atomic.incr t.errors_total;
              (tid, "error", Reply (Protocol.Err "EXEC without MULTI"))
            end
            else if sess.s_dirty then begin
              multi_reset sess;
              Atomic.incr t.errors_total;
              ( tid,
                "error",
                Reply
                  (Protocol.Err
                     "EXECABORT: transaction discarded because of previous \
                      errors") )
            end
            else if is_replica t then begin
              (* The queued writes must come through the feed, not the
                 wire — a replica that committed its own transactions
                 would diverge from the primary. *)
              multi_reset sess;
              Atomic.incr t.errors_total;
              (tid, "error", Reply (Protocol.Err replica_readonly_msg))
            end
            else if shed t loop sp c then
              (* EXEC is snapshot-heavy, so it sheds at soft level —
                 but WITHOUT dropping the queued transaction: a
                 backed-off retry of just EXEC still commits it. *)
              (tid, "shed", Reply (busy t))
            else begin
              let cs = List.rev sess.s_queued in
              multi_reset sess;
              Span.switch sp Span.Op;
              match Mount.exec_txn t.mount ~token cs with
              | Protocol.Err _ as r ->
                  Atomic.incr t.errors_total;
                  (tid, "error", Reply r)
              | Protocol.Aborted _ as r -> (tid, "abort", Reply r)
              | r -> (tid, "ok", Reply r)
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
                  Reply
                    (Protocol.Err
                       (Printf.sprintf
                          "unsupported: RANGE on unordered structure %S; use \
                           MGET"
                          (Mount.name t.mount))) )
            | _ when List.length sess.s_queued >= multi_queue_cap ->
                Atomic.incr t.errors_total;
                sess.s_dirty <- true;
                (tid, "error", Reply (Protocol.Err "MULTI: transaction too large"))
            | _ ->
                sess.s_queued <- c :: sess.s_queued;
                (tid, "ok", Reply Protocol.Queued))
        | _ when sess.s_multi ->
            (* PING/STATS/SCAN/... make no sense inside a transaction;
               poison it so EXEC cannot silently commit a sequence the
               client mis-stated. *)
            Atomic.incr t.errors_total;
            sess.s_dirty <- true;
            ( tid,
              "error",
              Reply
                (Protocol.Err
                   (Printf.sprintf "%s not allowed in MULTI"
                      (Protocol.verb_name verb))) )
        | Protocol.Stats ->
            Span.switch sp Span.Op;
            (tid, "ok", Reply (Protocol.Bulk (stats_json t)))
        | Protocol.Metrics ->
            Span.switch sp Span.Op;
            (tid, "ok", Reply (Protocol.Bulk (metrics_text t)))
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
              (tid, "ok", Reply (Protocol.Bulk (Verlib.Obs.Profile.json ())))
            end
        | Protocol.Ping -> (tid, "ok", Reply Protocol.Pong)
        | Protocol.Replstats ->
            (* Like STATS: never shed — the replication plane stays
               observable under overload and partitions. *)
            Span.switch sp Span.Op;
            (tid, "ok", Reply (Protocol.Bulk (replstats_json t)))
        | Protocol.Promote ->
            (* Idempotent failover: accept writes from now on; the
               follow connection (if any) applies nothing more, and
               loop 0's tick closes it for good. *)
            Atomic.set t.role Primary;
            (tid, "ok", Reply Protocol.Ok_)
        | Protocol.Sync -> (
            (* Snapshot-heavy (an uncapped fold) — shed before folding,
               and a latched partition severs it before a byte is
               written.  The tail is read BEFORE the fold, so any record
               at or below it was fully installed before the fold's
               snapshot (install happens-before append happens-before
               this read): snapshot plus suffix replay from that seq
               converges.  Records racing past the tail during the fold
               are delivered again by the stream; re-applying them is
               idempotent (records carry installed state, not
               deltas). *)
            if shed t loop sp c then (tid, "shed", Reply (busy t))
            else begin
              Span.switch sp Span.Op;
              match Fault.hit Repl.fp_send with
              | () ->
                  let seq = Repl.Log.tail_seq t.feed in
                  let head = (seq, Repl.Log.tail_stamp t.feed) in
                  ( tid,
                    "ok",
                    Render
                      (fun buf ->
                        Mount.render_scan t.mount buf ~head ~limit:max_int ())
                  )
              | exception Fault.Injected _ ->
                  sess.s_quit <- true;
                  (tid, "error", Reply (Protocol.Err "partitioned"))
            end)
        | Protocol.Ack _ ->
            Atomic.incr t.errors_total;
            (tid, "error", Reply (Protocol.Err "ACK outside a SUBSCRIBE stream"))
        | Protocol.Watch (lo, hi, ms) ->
            if shed t loop sp c then (tid, "shed", Reply (busy t))
            else
              park sess sp tid
                (Watch { lo; hi; cursor = ref (Repl.Log.tail_seq t.feed) })
                ~ms:(if ms <= 0 then 5000 else min ms 30000)
        | Protocol.Subscribe (lo, hi, seq) ->
            sess.s_stream <- subscribe t ~lo ~hi ~seq;
            sess.s_quit <- true;
            (tid, "ok", Reply Protocol.Ok_)
        | Protocol.Scan limit ->
            if shed t loop sp c then (tid, "shed", Reply (busy t))
            else
              ( tid,
                "ok",
                Render
                  (fun buf ->
                    Mount.render_scan t.mount buf ~limit:(Mount.scan_limit limit)
                      ()) )
        | (Protocol.Put _ | Protocol.Del _) when is_replica t ->
            Atomic.incr t.errors_total;
            (tid, "error", Reply (Protocol.Err replica_readonly_msg))
        | c ->
            if shed t loop sp c then (tid, "shed", Reply (busy t))
            else begin
              Span.switch sp Span.Op;
              let r = Mount.exec t.mount c in
              match r with
              | Protocol.Err _ ->
                  Atomic.incr t.errors_total;
                  (tid, "error", Reply r)
              | _ -> (tid, "ok", Reply r)
            end)
  in
  if sess.s_park <> None then Span.abandon sp
  else
    emit t ~out:conn.Evloop.out ~scratch:loop.Evloop.scratch sp trace_id
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

(* The offset of the first copied record touching [lo, hi], or [len];
   the cursor moves past the records before it. *)
let rec first_touching ~lo ~hi ~cursor w o len =
  if o >= len || Repl.Flat.touches lo hi w o then o
  else begin
    cursor := Repl.Flat.seq w o;
    first_touching ~lo ~hi ~cursor w (o + Repl.Flat.size w o) len
  end

(* A WATCH's answer: the first record past its cursor touching its
   range, rendered from the domain's copy (nothing copies between here
   and the render); [None] until one lands or the WATCH expires. *)
let rec watch_answer t ~lo ~hi ~cursor ~expired b =
  match Repl.Log.copy_after t.feed ~seq:!cursor b with
  | `Resync ->
      Some (Reply (Protocol.Err "resync required: WATCH outpaced by the log"))
  | `Copied ->
      let w = Repl.Batch.words b and len = Repl.Batch.length b in
      if len = 0 then if expired then Some (Reply Protocol.Nil) else None
      else
        let o = first_touching ~lo ~hi ~cursor w 0 len in
        if o < len then Some (Render (fun buf -> Protocol.render_record buf w o))
        else watch_answer t ~lo ~hi ~cursor ~expired b

(* The parked command's answer, once it has one. *)
let parked_reply t pk ~now =
  let expired = now >= pk.pk_until || Atomic.get t.stop_flag in
  match pk.pk_wait with
  | Window w ->
      if expired then
        Some (Reply (Protocol.Bulk (Verlib.Obs.Profile.json ~window:w ())))
      else None
  | Watch { lo; hi; cursor } ->
      watch_answer t ~lo ~hi ~cursor ~expired (Domain.DLS.get batch_key)

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
          emit t ~out:conn.Evloop.out ~scratch:loop.Evloop.scratch sp
            pk.pk_tid "ok" r;
          run_rest t loop conn ~first:false)


(* --- the follow connection (replica side) --------------------------------- *)

(* Whether [keys] ascend from [i] on. *)
let rec ascending keys i =
  i + 1 >= Array.length keys || (keys.(i) <= keys.(i + 1) && ascending keys (i + 1))

(* Binary search for [k] in the ascending [keys.(lo) .. keys.(hi - 1)]. *)
let rec mem_sorted keys k lo hi =
  lo < hi
  &&
  let mid = (lo + hi) / 2 in
  let m = keys.(mid) in
  m = k || if m < k then mem_sorted keys k (mid + 1) hi else mem_sorted keys k lo mid

(* Make the local store equal to the SYNC snapshot held in [keys] and
   [vals].  Writes go through [Txn] like everything else,
   so local readers serialize against the reconciliation.  The upsert
   pass costs a binding already correct one read, a wrong one one
   upsert, a missing one one [Txn.put] (4-10% cheaper per key than the
   same insert through [Txn.apply]'s install step).  The delete pass,
   which an empty store skips, sorts the SYNC keys unless they already
   ascend (a btree or sharded-btree primary folds in key order), folds
   the local store once collecting the keys it cannot find among them
   by binary search, then deletes those: one algorithm for ordered and
   unordered mounts. *)
let replica_reconcile t keys vals =
  let store = Mount.store t.mount in
  let warm = Txn.size store > 0 in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) and v = vals.(i) in
    match Txn.get store k with
    | Some v0 when v0 = v -> ()
    | Some _ -> Txn.apply store [ (k, Some v) ]
    | None -> ignore (Txn.put store k v)
  done;
  if warm then begin
    if not (ascending keys 0) then Array.sort Int.compare keys;
    Mount.scan t.mount ~init:[] ~f:(fun stale k _ ->
        if mem_sorted keys k 0 (Array.length keys) then stale else k :: stale)
    |> List.iter (fun k -> ignore (Txn.del store k))
  end

(* A SYNC reply's arrays start at most this many pairs long and grow
   by doubling, capped at the pair count its header announced (so a
   completed reply fills them exactly, and a bogus header costs no more
   than this). *)
let rx_initial = 1 lsl 16

let rx_clear rx =
  rx.rx_left <- 0;
  rx.rx_elem <- 0;
  rx.rx_keys <- [||];
  rx.rx_vals <- [||]

(* Take in one element of the SYNC reply: the seq, the stamp, or half
   of a pair. *)
let rx_element rx v =
  (match rx.rx_elem with
   | 0 -> rx.rx_seq <- v
   | 1 -> rx.rx_stamp <- v
   | e ->
       let i = (e - 2) / 2 in
       if i = Array.length rx.rx_keys then begin
         let pairs = (e + rx.rx_left - 2) / 2 in
         let cap = min pairs (max 16 (2 * i)) in
         let more = Array.make (cap - i) 0 in
         rx.rx_keys <- Array.append rx.rx_keys more;
         rx.rx_vals <- Array.append rx.rx_vals more
       end;
       if e land 1 = 0 then rx.rx_keys.(i) <- v else rx.rx_vals.(i) <- v);
  rx.rx_elem <- rx.rx_elem + 1;
  rx.rx_left <- rx.rx_left - 1

(* One line of the SYNC reply: the [*N] header, or an element.  The last
   element reconciles the store in the same call, on loop 0, so no
   local read in between sees a half-reconciled store; then the apply
   cursor adopts the snapshot's position and SUBSCRIBE goes out from
   it. *)
let sync_line t fw (conn : session Evloop.conn) line =
  let rx = fw.fw_sync in
  if rx.rx_left = 0 then begin
    let n = Protocol.frame_len line in
    if n < 2 || n land 1 = 1 || n > 16_777_216 then
      failwith (Printf.sprintf "bad SYNC frame length %d" n);
    rx.rx_left <- n;
    rx.rx_elem <- 0;
    let cap = min ((n - 2) / 2) rx_initial in
    rx.rx_keys <- Array.make cap 0;
    rx.rx_vals <- Array.make cap 0
  end
  else begin
    rx_element rx (Protocol.frame_int line);
    if rx.rx_left = 0 then begin
      replica_reconcile t rx.rx_keys rx.rx_vals;
      (* The silence clock restarts after the reconcile, which holds
         the loop for as long as the store is large. *)
      conn.Evloop.last_act <- Unix.gettimeofday ();
      Repl.Apply.reset fw.fw_apply ~seq:rx.rx_seq ~stamp:rx.rx_stamp;
      rx_clear rx;
      Protocol.render_command conn.Evloop.out
        (Protocol.Subscribe (min_int, max_int, Repl.Apply.last_seq fw.fw_apply));
      fw.fw_phase <- `Subscribe
    end
  end

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

(* One reassembled reply after the SYNC; true when it installed
   records. *)
let follow_reply fw (r : Protocol.reply) =
  match (fw.fw_phase, r) with
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

(* One read chunk of the follow connection.  The SYNC reply is read
   line by line into flat arrays ([sync_line]); a single-line answer
   to SYNC ([-ERR], [-BUSY]) and everything after it goes through the
   frame reassembler. *)
let follow_lines t loop (conn : session Evloop.conn) fw lines : Evloop.action
    =
  let step applied line =
    if not (is_replica t) then failwith "promoted";
    match fw.fw_phase with
    | `Sync when fw.fw_sync.rx_left > 0 || String.starts_with ~prefix:"*" line
      ->
        sync_line t fw conn line;
        applied
    | `Sync | `Subscribe | `Follow -> (
        match Protocol.Frames.push fw.fw_frames line with
        | Ok None -> applied
        | Ok (Some r) -> follow_reply fw r || applied
        | Error e -> failwith e)
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
  rx_clear fw.fw_sync;
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

(* A census every [census_interval] seconds, or every [metrics_interval]
   when only that is set; 0: no census. *)
let census_every cfg =
  if cfg.census_interval > 0. then cfg.census_interval else cfg.metrics_interval

(* The process's one background domain runs these, whenever any is
   configured: the census, the SLO check every [metrics_interval], and
   a profiler tick every [1/profile_hz]. *)
let sweep_jobs t =
  [
    (census_every t.cfg, fun () -> take_census t);
    (t.cfg.metrics_interval, fun () -> slo_check t);
    ( (if t.cfg.profile_hz > 0 then 1. /. float_of_int t.cfg.profile_hz else 0.),
      Verlib.Obs.Profile.tick );
  ]

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
  if t.cfg.profile_hz > 0 then Verlib.Obs.Profile.start ~hz:t.cfg.profile_hz ();
  t.sweep_d <- Harness.Sweep.spawn ~stop:t.stop_flag (sweep_jobs t)

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
    (* Stop the profiler after the loops are joined so the final ticks
       still see their activity; stacks stay accumulated for export. *)
    if t.cfg.profile_hz > 0 then Verlib.Obs.Profile.stop ();
    (* Quiescent final census: the loops are joined, so the audit is
       exact. *)
    if census_every t.cfg > 0. then take_census t
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
