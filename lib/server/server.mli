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
    connection's outbuf every iteration.  An optional
    census domain walks the mounted structure's versioned pointers
    every [census_interval] seconds ([Verlib.Chainscan]), keeping the
    latest census for [STATS] and accumulating the invariant-violation
    count.

    {!stop} is a graceful drain: the listener stops accepting, every
    complete line already read is answered, streams end, outbufs flush,
    all fds close (a connection still unflushed after 5 s is
    force-closed), every domain is joined, and a final {e quiescent}
    census (exact audit) is taken. *)

module Protocol = Protocol
module Mount = Mount
module Client = Client
module Evpoll = Evpoll
module Evloop = Evloop

type config = {
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  domains : int;
      (** event-loop domains, each serving its share of the connections
          — {e not} a connection cap *)
  backlog : int;  (** listen(2) backlog *)
  census_interval : float;  (** seconds; 0 disables the census domain *)
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
      (** seconds between metrics-plane sweeps (background census + SLO
          check on the request-phase histograms); 0 = off *)
  flight_dir : string;
      (** directory for anomaly flight-recorder dumps
          ([flight-<ms>-<trigger>.json]); "" disables the recorder *)
  flight_min_interval : float;  (** recorder cooldown between dumps *)
  slo_p99_us : float;
      (** flight trigger: any request phase whose p99 exceeds this many
          µs files a dump (checked every [metrics_interval]); 0 = off *)
  profile_hz : int;
      (** sampling rate of the continuous profiler
          ([Verlib.Obs.Profile]): {!start} spawns the sampler domain and
          opens the activity-publication gate, {!stop} joins it after
          the loops; 0 = profiler off (PROFILE still answers, with
          whatever was accumulated by an externally started sampler) *)
  replica_of : (string * int) option;
      (** follow that primary: {!start} spawns an apply domain that
          bootstraps via [SYNC], streams the change feed via a
          full-range [SUBSCRIBE], and installs records in seq order;
          the server answers reads at the replica's watermark and
          refuses writes ([-ERR READONLY ...]) until [PROMOTE].
          [None] = this server is a primary (docs/REPLICATION.md). *)
  feed_capacity : int;
      (** records the replication log ring retains; a subscriber that
          falls further behind is told to resync (the bounded-feed /
          laggard-shedding contract) *)
}

val default_config : config
(** port 7379, 4 domains, backlog 64, no census; no
    connection cap, no idle timeout, 5 s write timeout, shedding off,
    retry hint 50 ms; metrics plane, flight recorder and profiler off;
    primary role, 65536-record feed. *)

type t

val create : ?config:config -> Mount.t -> t

val start : t -> unit
(** Bind, listen and spawn the domains.  Raises [Unix.Unix_error] if
    the port cannot be bound. *)

val port : t -> int
(** The bound port (resolves port 0); only valid after {!start}. *)

val running : t -> bool

val stop : t -> unit
(** Graceful drain as described above; idempotent; blocks until all
    domains are joined. *)

val final_census : t -> Verlib.Chainscan.census option
(** The quiescent census {!stop} took (when the census domain was
    enabled); [None] before {!stop}. *)

val census_violations_total : t -> int
(** Cumulative invariant violations over every census taken (background
    samples + final); 0 is the healthy reading. *)

val shed_count : t -> int
(** Commands/connections this instance refused with [-BUSY] (admission
    control + the [max_conns] door).  The process-wide total is the
    [shed_total] gauge in every [Verlib.Obs] report. *)

val deadline_kill_count : t -> int
(** Connections this instance killed for blowing the idle or write
    deadline (process-wide: the [deadline_kills] gauge). *)



val flight_dump_count : t -> int
(** Flight-recorder dumps written so far (0 when the recorder is off). *)

val flight_last_path : t -> string option
(** Path of the most recent flight dump. *)

val stats_json : t -> string
(** The [STATS] payload: one jsonlite object — server counters
    (connections, commands, errors, uptime), the [Verlib.Obs] report
    (counters / histograms / gauges), when the census domain is on the
    latest census headline ([Harness.Obs_report.json_of_census]), and
    for [sharded-*] mounts a ["census_shards"] object with one census
    per shard. *)

val metrics_text : t -> string
(** The [METRICS] payload: Prometheus text exposition of every
    counter / histogram / gauge plus the server's own live figures
    ([Harness.Obs_report.prometheus]). *)
