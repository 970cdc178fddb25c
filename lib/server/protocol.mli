(** The verlib-serve wire protocol: a small RESP-like pipelined text
    protocol over TCP.

    Commands are single CRLF- (or LF-) terminated lines of
    space-separated tokens; replies use the RESP framing conventions
    ([+simple], [-ERR msg], [:int], [$len bulk / $-1 nil], [*n array]).
    Clients may pipeline: send any number of command lines before
    reading; the server answers strictly in order.

    The parser is {e total}: any byte sequence yields [Ok] or [Error],
    never an exception, so a garbage line costs one [-ERR] reply and the
    connection stays usable.  See docs/PROTOCOL.md for the normative
    description. *)

type command =
  | Ping
  | Get of int
  | Put of int * int
  | Del of int
  | Mget of int array  (** snapshot-consistent batch of finds *)
  | Range of int * int  (** inclusive bounds; ordered structures only *)
  | Rangecount of int * int
  | Scan of int
      (** snapshot fold over all bindings, unspecified order; the
          argument caps returned bindings (0 = unbounded) *)
  | Size
  | Stats  (** jsonlite observability report as a bulk reply *)
  | Metrics
      (** Prometheus text exposition of every counter / histogram /
          gauge as a bulk reply — the live metrics plane.  Never shed,
          like [Ping] and [Stats], so it stays observable under
          overload. *)
  | Profile of int
      (** [PROFILE \[ms\]]: a JSON profiler snapshot as a bulk reply
          ([Verlib.Obs.Profile.json]) — sampled activity stacks,
          per-site lock contention, GC telemetry.  The argument is a
          window in milliseconds: 0 (bare [PROFILE]) reports cumulative
          stacks, positive values report only the stacks accumulated
          inside the window (the connection parks for it, clamped
          server-side to 5 s).  Never shed, like [Stats]. *)
  | Multi
      (** Open a transaction: subsequent data commands are queued (each
          answered [+QUEUED]) until [EXEC] commits or [DISCARD] drops
          them.  See docs/TRANSACTIONS.md. *)
  | Exec of int
      (** [EXEC \[token\]]: atomically execute the queued commands as
          one optimistic transaction.  Success is an array reply whose
          head is the {e versionstamp} (the commit's globally-ordered
          stamp) followed by one element per queued command; validation
          exhaustion is [-ABORT n].  A positive [token] makes the
          commit exactly-once: re-sending [EXEC token] after an
          ambiguous failure replays the cached result instead of
          committing twice (0 = no token). *)
  | Discard  (** Drop the queued transaction; answers [+OK]. *)
  | Subscribe of int * int * int
      (** [SUBSCRIBE lo hi \[seq\]]: turn this connection into a push
          stream of committed change records touching [\[lo, hi\]],
          resuming after log sequence [seq] (0 = from now).  The server
          answers [+OK] and then streams one record frame per change
          (see {!reply_of_record}); the client sends [ACK] lines on the
          same connection.  [-ERR resync required] means the log
          trimmed past [seq] — bootstrap again via [SYNC].
          docs/REPLICATION.md is normative. *)
  | Watch of int * int * int
      (** [WATCH lo hi \[timeout-ms\]]: one-shot — block until the next
          committed change touching [\[lo, hi\]] and answer its record
          frame, or [$-1] on timeout (0 = server default, 5 s). *)
  | Sync
      (** Replica bootstrap: answers one array [seq; stamp; k1; v1;
          ...] — a snapshot of every binding positioned at log seq
          [seq] / watermark [stamp].  Follow with a full-range
          [SUBSCRIBE] carrying that [seq] to stream the suffix. *)
  | Replstats
      (** Replication plane introspection: one JSON bulk — role,
          tail seq/stamp, watermark, subscriber lag. *)
  | Promote
      (** Replica only: stop applying the feed, accept writes; answers
          [+OK] (idempotent — promoting a primary is a no-op).  The
          failover path (docs/REPLICATION.md). *)
  | Ack of int * int
      (** [ACK seq stamp]: subscriber cursor advance, sent on a
          streaming connection; feeds the primary's lag gauges. *)
  | Quit

type reply =
  | Ok_  (** [+OK] *)
  | Pong  (** [+PONG] *)
  | Exists  (** [+EXISTS] — PUT of an already-present key (no update) *)
  | Err of string  (** [-ERR msg] *)
  | Busy of int
      (** [-BUSY retry-after-ms] — load shed; the command was {e not}
          executed, so retrying (after the hinted delay) is always safe *)
  | Int of int  (** [:n] *)
  | Nil  (** [$-1] — absent key *)
  | Bulk of string  (** [$len] payload *)
  | Arr of reply list  (** [*n] then n elements *)
  | Queued  (** [+QUEUED] — command buffered inside MULTI *)
  | Aborted of int
      (** [-ABORT n] — EXEC gave up after [n] validation attempts; the
          transaction had {e no} effect and may be retried wholesale *)

val idempotent : command -> bool
(** Safe to re-issue after an ambiguous wire failure (the retry layer's
    criterion).  True for everything except [Quit] and token-less
    [Exec]; [Put]/[Del] qualify by effect idempotence, [Exec t] with
    [t > 0] by the server-side exactly-once token cache
    (docs/TRANSACTIONS.md). *)

val snapshot_heavy : command -> bool
(** Takes a snapshot and walks many versioned pointers ([Mget], [Range],
    [Rangecount], [Scan]) or validates a whole read set ([Exec]) — the
    class an overloaded server sheds first. *)

(** {1 The verb table} *)

val verb_count : int
(** Rows in the verb table: one per command verb. *)

val verb_index : command -> int
(** The command's row in the verb table, in [\[0, verb_count)]: constant
    time, allocation-free. *)

val verb_name : int -> string
(** A row's wire name ([GET], [PUT], ...): what {!render_command} writes
    and the parser accepts, in any ASCII case. *)

val parse_command : string -> (command, string) result
(** Parse one line (without the trailing newline; a trailing ['\r'] is
    tolerated).  Total: never raises. *)

val parse_command_traced : string -> (int option * command, string) result
(** Like {!parse_command} but also accepts the [TRACE <id>] prefix
    (docs/PROTOCOL.md): [TRACE 42 GET 7] parses as [(Some 42, Get 7)],
    a bare command as [(None, c)].  Trace ids are opaque positive
    integers chosen by the client; tracing never changes a command's
    idempotence or shedding class. *)

val render_command : ?trace_id:int -> Buffer.t -> command -> unit
(** Append the canonical wire form of a command, CRLF-terminated;
    [trace_id] (when positive) prepends the [TRACE <id>] prefix. *)

val command_line : ?trace_id:int -> command -> string
(** [render_command] into a fresh string. *)

val render_reply : Buffer.t -> reply -> unit
(** Append the wire form of a reply (error messages are sanitised so
    they cannot break framing). *)

val reply_equal : reply -> reply -> bool

val pp_reply : reply -> string
(** Debug rendering (not the wire form). *)

(** {1 Change-record frames}

    A streamed change record is an ordinary array reply
    [*2+2m] of [:seq :stamp (:k (:v | $-1))*] — riding the existing
    framing means the incremental {!Reader} already handles split
    delivery of streamed records. *)

val reply_of_record : Repl.record -> reply

val record_of_reply : reply -> (Repl.record, string) result
(** Total; rejects frames that are not well-formed records. *)

(** {1 Trace-info frames}

    The server's answer to a traced command: one [@]-framed line,
    written {e ahead of} the data reply it describes —
    [@<id> total=<us> outcome=<word> \[fanout=<n>\] \[<phase>=<us>\]*]
    with phases in pipeline order, non-zero only, three decimals.
    Untraced clients never receive these frames. *)

type trace_info = {
  t_id : int;  (** echo of the client's trace id *)
  t_total_us : float;  (** whole-span duration *)
  t_outcome : string;  (** [ok] / [shed] / [error] *)
  t_fanout : int;  (** per-shard sub-calls (0 for monolithic mounts) *)
  t_phase_us : (string * float) list;  (** exclusive per-phase µs *)
}

val render_trace : Buffer.t -> trace_info -> unit

val trace_line : trace_info -> string

val parse_trace : string -> (trace_info, string) result
(** Parse a frame line {e without} the leading ['@'].  Total.
    Round-trips {!render_trace} output. *)

(** Stateful '\n'-framed line reassembly, shared by every path that
    reads the wire in kernel-sized pieces (the event loop's
    per-connection inbox, SUBSCRIBE ACKs included, and the client's
    reply {!Reader}): bytes are fed in
    arbitrary chunks, complete lines pop out, and a trailing partial
    line is re-buffered until its terminator arrives — a split delivery
    never drops or mangles a frame. *)
module Linebuf : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> int -> unit
  (** [feed t b off len] appends a received chunk. *)

  val feed_string : t -> string -> unit

  val next : t -> string option
  (** Pop the next complete line — terminator consumed, an optional
      ['\r'] before the ['\n'] stripped — or [None] when only a partial
      tail (possibly empty) remains buffered. *)

  val take : t -> int -> string option
  (** Pop exactly [n] bytes with no framing (a ['\n'] among them is
      payload), or [None] while fewer are buffered. *)

  val pending : t -> int
  (** Bytes buffered and not yet popped; once {!next} answers [None],
      the partial tail the caller's line-length cap is checked
      against. *)
end

(** Incremental reply reader over any byte source — the client half of
    the protocol, also used to fuzz reply framing round-trips. *)
module Reader : sig
  type t

  val create : (bytes -> int -> int -> int) -> t
  (** [create read] where [read buf pos len] returns the number of bytes
      filled, 0 on EOF (the [Unix.read] contract). *)

  val of_string : string -> t

  val reply : t -> (reply, string) result
  (** Read exactly one reply; [Error] on EOF mid-reply or framing
      violations.  Never raises on malformed input.  A leading trace
      frame is consumed and attached (see {!last_trace}). *)

  val last_trace : t -> trace_info option
  (** The trace frame that preceded the most recently parsed reply, or
      [None] if that reply was untraced.  Cleared at each {!reply}. *)
end

(** Line-fed reassembly of the replication frames, for a reader that
    gets whole lines from an event loop ({!Linebuf}) instead of pulling
    bytes like {!Reader}.  A [SYNC] reply and a change record are both
    flat arrays: [*N] then N scalar lines ([:int] or [$-1]); anything
    else arrives as one single-line reply ([+OK], [-ERR ...],
    [-BUSY n]). *)
module Frames : sig
  type t

  val create : unit -> t

  val reset : t -> unit
  (** Drop a partly assembled frame (the connection it came from is
      gone). *)

  val push : t -> string -> (reply option, string) result
  (** Feed one line (terminator stripped).  [Ok (Some r)] completes a
      reply — a whole flat array or a single-line reply; [Ok None]
      means a frame is still open.  [Error] on anything else (a bulk or
      nested array, a malformed line); the caller drops the
      connection. *)
end
