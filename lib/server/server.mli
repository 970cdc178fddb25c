(** verlib-serve — an event-loop multi-domain TCP front end over the
    versioned maps (docs/ASYNC.md).

    Architecture: each of the [domains] domains runs its own
    poll(2)-backed readiness loop ({!Evloop} over {!Evpoll} — no
    [select], no FD_SETSIZE ceiling) over the connections assigned to
    it.  The first loop accepts from the nonblocking listener and hands
    each admitted connection to the least-loaded loop, so connections
    spread evenly by construction.  A loop reads ready sockets,
    reassembles complete command lines, and executes each read chunk's
    lines inline as one batch: parse, execute, render into the
    connection's outbuf, flush nonblockingly in the same iteration.  No
    other domain is involved in a request, so pipelined clients get
    batched responses with no handoff, and concurrent connections are
    bounded by [ulimit -n], not by the domain count.  A WATCH or a
    windowed PROFILE parks its connection, not the loop; a SUBSCRIBE
    stream stays on its loop, which pumps the change feed into the
    connection's outbuf every iteration.  A replica follows its primary
    from loop 0: the follow connection is dialed, read and written by
    that loop like any other connection, so a replica runs no domain
    beyond its loops.  An optional
    sweep domain ([Harness.Sweep]) is the server's only other domain.
    It is the census's only owner: it walks the mounted structure's
    versioned pointers ([Verlib.Chainscan]) — the whole mount and, on a
    sharded mount, each shard — keeping the latest census for [STATS]
    and accumulating the invariant-violation count.  It also runs the
    SLO check and ticks the profiler.  The serving loops take no census,
    and no exporter walks the store: the [size] figure is the count
    [Txn.Store] keeps as writes land ({!Txn.size}).

    {!stop} is a graceful drain: the listener stops accepting, every
    complete line already read is answered, streams end, outbufs flush,
    all fds close (a connection still unflushed after 5 s is
    force-closed), every domain is joined, and a final {e quiescent}
    census (exact audit) is taken. *)

module Protocol = Protocol
module Mount = Mount
module Client = Client

module Bank = Bank
(** The served bank workload the loadgen, the soak and the wire tests
    share. *)

module Evpoll = Evpoll
module Evloop = Evloop

type config = {
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  domains : int;
      (** event-loop domains, each serving its share of the connections
          — {e not} a connection cap *)
  census_interval : float;
      (** seconds between the sweep's censuses; 0 = census at
          [metrics_interval] when that is set, else none *)
  max_conns : int;
      (** connection cap: beyond [max_conns] simultaneously registered
          connections, new arrivals are answered [-BUSY] at accept and
          closed; 0 = unlimited *)
  idle_timeout : float;
      (** seconds a connection may sit with no bytes arriving before the
          loop closes it (a [deadline_kill]); 0 = never *)
  write_timeout : float;
      (** seconds reply bytes may sit unflushed against a peer that
          stopped reading before the connection is killed; 0 = forever *)
  shed_queue : int;
      (** admission control, the server's one shedding signal: answer
          snapshot-heavy commands ({!Protocol.snapshot_heavy}) with
          [-BUSY] while at least this many other connections the same
          poll round reported readable still wait on the loop, and
          {e all} data commands at twice it; PING, STATS and the other
          observability verbs are never shed; 0 = off *)
  retry_after_ms : int;  (** the hint carried in [-BUSY] replies *)
  metrics_interval : float;
      (** seconds between the sweep's SLO checks on the request-phase
          histograms (and its censuses when [census_interval] is 0);
          0 = off *)
  flight_dir : string;
      (** directory for anomaly flight-recorder dumps
          ([flight-<ms>-<trigger>.json]); "" disables the recorder *)
  flight_min_interval : float;  (** recorder cooldown between dumps *)
  slo_p99_us : float;
      (** flight trigger: any request phase whose p99 exceeds this many
          µs files a dump (checked every [metrics_interval]); 0 = off *)
  profile_hz : int;
      (** sampling rate of the continuous profiler
          ([Verlib.Obs.Profile]): {!start} opens the activity-publication
          gate and the sweep ticks the profiler at this rate, {!stop}
          closes the gate after the loops are joined; 0 = profiler off
          (PROFILE still answers, with whatever was accumulated) *)
  replica_of : (string * int) option;
      (** follow that primary (a numeric IPv4 address): loop 0 dials
          it, bootstraps via [SYNC], streams the change feed via a
          full-range [SUBSCRIBE], installs records in seq order and
          acknowledges once per read chunk; a record past the next seq
          (a gap) closes the connection and loop 0 redials from
          [SYNC]; the server answers reads at
          the replica's watermark and refuses writes
          ([-ERR READONLY ...]) until [PROMOTE].  [None] = this server
          is a primary (docs/REPLICATION.md). *)
  feed_capacity : int;
      (** records the replication log ring retains; a subscriber that
          falls further behind is told to resync (the bounded-feed /
          laggard-shedding contract) *)
}

val default_config : config
(** port 7379, 4 domains, no sweep; no
    connection cap, no idle timeout, 5 s write timeout, shedding off,
    retry hint 50 ms; metrics plane, flight recorder and profiler off;
    primary role, 65536-record feed. *)

type t

val create : ?config:config -> Mount.t -> t

val listen : t -> unit
(** Bind and listen, so {!port} is known before the loops run;
    {!start} and {!run} call it when it has not been.  Raises
    [Unix.Unix_error] if the port cannot be bound. *)

val start : t -> unit
(** Listen and spawn one domain per loop (plus the sweep when any of
    the census, the SLO check or the profiler is configured), returning
    at once: the form for
    embedding a server in a process that does other work, and for the
    tests. *)

val run : ?deadline:float -> ?on_stop:(unit -> unit) -> t -> unit
(** Like {!start}, but loop 0 runs on the calling domain, so a server
    with [domains = n] runs [n] loop domains in all.  Serves until
    {!request_stop} is called or the [deadline] (a [Unix.gettimeofday]
    time, checked by every loop at the end of each round) passes, then
    drains as {!stop} does and returns.  [on_stop] runs once, before
    the loops are told to drain, on the domain that asked (a signal
    handler, or a loop that noticed the deadline).  End a [run] with
    {!request_stop}, not {!stop}. *)

val request_stop : t -> unit
(** Ask the loops to drain and {!run} to return; runs [on_stop] the
    first time.  Touches only atomics, so a signal handler may call
    it. *)

val port : t -> int
(** The bound port (resolves port 0); only valid after {!listen}. *)

val running : t -> bool

val stop : t -> unit
(** Graceful drain as described above; idempotent; blocks until all
    domains are joined.  Also takes the server's change feed out of
    the process-wide [repl_lag_*] gauges ({!Repl.Log.unregister}). *)

val final_census : t -> Verlib.Chainscan.census option
(** The quiescent census {!stop} took (when the sweep was on); [None]
    before {!stop}. *)

val census_violations_total : t -> int
(** Cumulative invariant violations over every census taken (background
    samples + final); 0 is the healthy reading. *)

val shed_count : t -> int
(** Commands/connections this instance refused with [-BUSY] (admission
    control + the [max_conns] door).  The process-wide total is the
    [shed_total] gauge in every [Verlib.Obs] report. *)

val deadline_kill_count : t -> int
(** Connections this instance killed for blowing the idle or write
    deadline (process-wide: the [deadline_kills_total] gauge). *)

val flight_dump_count : t -> int
(** Flight-recorder dumps filed so far (0 when the recorder is off);
    {!flight_last_path} names the latest once it is written. *)

val flight_last_path : t -> string option
(** Path of the most recent flight dump. *)

val figures : t -> (string * int) list
(** This instance's figures, the one list every exporter renders:
    [domains], [connections_total], [connections_active],
    [commands_total], [protocol_errors], [shed], [deadline_kills],
    [queue_depth], [size], [census_samples], [census_violations_total],
    [flight_dumps]. *)

val stats_json : t -> string
(** The [STATS] payload: one jsonlite object — [server], [structure],
    [range_capability], [uptime_s], [loop_conns], the {!figures}, the
    [Verlib.Obs] report (counters / histograms / gauges) and, once the
    sweep has taken one, its latest census
    ([Harness.Obs_report.json_of_census]); for [sharded-*] mounts the
    census comes with a ["census_shards"] object holding one census per
    shard.  Takes no census itself.  A flight dump embeds this object as
    its [stats] member. *)

val metrics_text : t -> string
(** The [METRICS] payload: Prometheus text exposition of every
    counter / histogram / gauge plus the {!figures} as
    [verlib_server_<name>] ([Harness.Obs_report.prometheus]). *)
