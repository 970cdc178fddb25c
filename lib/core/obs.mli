(** verlib-obs — latency histograms, version-chain telemetry and
    Chrome-trace event export.

    Layered on [Flock.Telemetry] (per-domain sharded histograms and
    per-domain event rings); this module owns the instrument and event
    catalogues, the sampling policy of the always-on instruments, the
    structured {!report} the harness embeds in driver results, and the
    Chrome trace-event JSON exporter.

    All aggregate reads follow the [Stats] quiescence contract: exact
    only when worker domains are quiesced. *)

module Hist = Flock.Telemetry.Hist

(** {1 Event catalogue} *)

val ev_snap_begin : int

val ev_snap_end : int

val ev_snap_abort : int

val ev_indirect_create : int

val ev_shortcut : int

val ev_truncate : int

val ev_stamp_incr : int

val ev_census : int
(** One census completed; arg = number of versions counted. *)

val ev_census_violation : int
(** A chain-invariant audit failure ({!Chainscan}); arg = violation
    code. *)

type phase = Instant | Span_begin | Span_end

val describe : int -> string * phase
(** Name and Chrome phase of an event code (Verlib and Flock codes). *)

val emit : int -> int -> unit
(** [emit code arg]: re-export of [Flock.Telemetry.emit] — appends to
    the calling domain's ring when tracing is on; a single
    branch-predictable atomic load otherwise. *)

val set_tracing : bool -> unit

val tracing_on : unit -> bool

(** {1 Instruments}

    Latencies and dwell times are in hardware ticks ({!Hwclock});
    convert with {!Hwclock.to_us} for reports. *)

val lat_find : Hist.t

val lat_insert : Hist.t

val lat_delete : Hist.t

val lat_range : Hist.t

val lat_multifind : Hist.t

val chain_len : Hist.t
(** Version-chain length observed at truncation/shortcut time (sampled
    1-in-16 per domain). *)

val snap_dwell : Hist.t
(** Ticks spent inside [with_snapshot] (sampled 1-in-16 per domain). *)

val chain_sample : unit -> bool
(** Cheap per-domain 1-in-16 tick, used by the chain-length instrument. *)

val dwell_sample : unit -> bool

(** {1 Request spans}

    One span per served request, decomposed into named phases with
    {e exclusive} stack-based accounting: entering a nested phase pauses
    its parent, so the per-phase ticks of a finished span sum to at most
    [end - begin] with no double counting — the property that lets
    [verlib_loadgen] reconcile server-side phase decompositions against
    client-measured RTTs.

    Each registry slot owns one span record, reset by every {!start}:
    opening, switching and finishing a span allocate nothing, and each
    phase boundary reads the clock once.  {!finish} copies the span into
    the slot's ring of recent spans, which other domains read without
    ever seeing an entry half-written.

    The current span is registry-slot-private; instrumented call sites
    elsewhere in the tree ([Snapshot.with_snapshot], [Dstruct.Sharded]
    fan-out, the [Fault] blocking observer installed by this module)
    attribute into whatever span their domain currently carries and cost
    one atomic load when no span has ever been started. *)

module Span : sig
  type phase =
    | Accept  (** the connection's accept handler, booked to its first command *)
    | Queue
        (** from the poll round that read the chunk until its first
            command started *)
    | Parse  (** wire line to command, and dispatch up to its execution *)
    | Shed
    | Route
    | Snapshot
    | Op  (** command execution, net of nested phases *)
    | Reply
    | Stall
    | Validate
    | Install

  val nphases : int

  val phases : phase list
  (** All phases, index order. *)

  val phase_index : phase -> int

  val phase_name : phase -> string
  (** Lower-case wire/report name ([accept], [queue], ...). *)

  type t = {
    mutable sp_trace_id : int;  (** 0 = untraced *)
    mutable sp_cmd : string;
    mutable sp_begin : int;  (** ticks *)
    mutable sp_end : int;  (** 0 until finished *)
    sp_phase : int array;  (** accumulated ticks, indexed by {!phase_index} *)
    mutable sp_fanout : int;  (** per-shard sub-calls performed *)
    mutable sp_outcome : string;  (** [ok] / [shed] / [error] / [killed] *)
    mutable sp_stack : int;
        (** open phases, packed 4 bits per level, top in the low bits *)
    mutable sp_last : int;
    sp_slot : int;
  }

  val start : begin_ticks:int -> cmd:string -> t
  (** Reset the calling domain's span record, open its [parse] phase and
      make it the domain's current span.  The record stays valid until
      the domain's next [start].  A positive [begin_ticks] backdates the
      start (e.g. to the read-chunk mark; [0] starts it now); elapsed
      ticks before the start are unattributed unless credited with
      {!add_to}. *)

  val set_cmd : t -> string -> unit

  val set_trace_id : t -> int -> unit

  val switch : t -> phase -> unit
  (** Close the phase on top of the stack and open [phase] in its place,
      with one clock read. *)

  val enter : t -> phase -> unit
  (** Push [phase] on the span's stack. *)

  val leave : t -> unit
  (** Pop the top phase. *)

  val in_phase : phase -> (unit -> 'a) -> 'a
  (** [enter]/[leave] bracket on the calling domain's current span,
      exception-safe; just runs the thunk when the domain has none. *)

  val add : phase -> int -> unit
  (** Credit externally measured ticks to the current span without
      opening the phase (no-op without one). *)

  val add_to : t -> phase -> int -> unit

  val note_fanout : unit -> unit
  (** Count one per-shard sub-call on the current span. *)

  val finish : t -> outcome:string -> unit
  (** Close all open phases, stamp [sp_end], feed the phase and total
      histograms, copy the span into its slot's recent-span ring and
      clear the current-span slot. *)

  val abandon : t -> unit
  (** Clear the current-span slot without recording anything. *)

  val total_ticks : t -> int

  val phase_ticks : t -> phase -> int

  val phase_hist : phase -> Hist.t
  (** The [phase_<name>_cycles] histogram. *)

  val span_total : Hist.t

  val ring_capacity : int

  val recent : unit -> t list
  (** Copies of the finished spans currently retained across all slot
      rings, oldest first per slot.  Each is exactly as it was finished;
      an entry its domain is overwriting during the read is skipped. *)

  val reset : unit -> unit
end

(** {1 Continuous sampling profiler}

    The read side of [Flock.Telemetry.Activity]: a sampler domain ticks
    at [hz], folding one weighted stack
    [domain-<slot>;<op>;<phase>;<lock frame>] per active slot into an
    accumulation table.  Publishing domains pay plain stores behind one
    atomic gate; all sampling cost lives on the sampler.  Lock frames
    come from [Flock.Lock] site labels, phases from the current request
    span, op names from whatever the serving layer published. *)

module Profile : sig
  val default_hz : int
  (** 97 — deliberately off any round scheduler frequency. *)

  val start : ?hz:int -> unit -> unit
  (** Spawn the sampler domain and open the activity-publication gate;
      idempotent while running. *)

  val stop : unit -> unit
  (** Join the sampler and close the gate; accumulated stacks are
      retained for export.  Idempotent. *)

  val running : unit -> bool

  val hz : unit -> int

  val samples_total : unit -> int
  (** Slot-samples folded in so far (one per active slot per tick). *)

  val stacks : unit -> (string * int) list
  (** Accumulated collapsed stacks with sample counts, heaviest
      first. *)

  val activity : unit -> (int * string) list
  (** Last sampled stack per registry slot (active slots only) — the
      dashboard's per-domain activity column. *)

  val collapsed : unit -> string
  (** flamegraph.pl / speedscope-compatible collapsed-stack text, one
      ["frame;frame;frame count"] line per stack. *)

  val write_collapsed : string -> unit

  type window

  val open_window : unit -> window
  (** Start a profiling window: remember the stacks accumulated so far. *)

  val json : ?window:window -> unit -> string
  (** The [PROFILE] wire payload: one JSON object with [clock_source],
      sampler state, stacks, per-slot activity, per-site lock contention
      (including sampled waits-on edges) and GC telemetry.  With
      [window], only the stacks accumulated since {!open_window}, and
      [window_ms] is the window's elapsed length. *)

  val reset : unit -> unit
  (** Drop accumulated stacks and sample counts (not the sampler). *)
end

(** {1 Structured report} *)

type report = {
  counters : (string * int) list;  (** every [Stats] counter, by name *)
  hists : Hist.summary list;  (** every registered histogram *)
  gauges : (string * int) list;
      (** every [Flock.Telemetry.Gauge] (epoch lag, deferred-queue depth,
          stamp lag, ...), read at capture time *)
}

val capture : unit -> report
(** Snapshot all counters and histogram summaries (quiesced contract). *)

(** {1 Chrome trace export} *)

val export_trace : string -> int
(** [export_trace path] writes the per-domain event rings {e and} every
    retained finished request span ({!Span.recent}) as a Chrome
    trace-event JSON file (Perfetto / chrome://tracing compatible) and
    returns the number of tracks written.  Snapshot begin/end become
    "B"/"E" duration events, other instrument events instants, and
    request spans "X" complete events on [requests-domain-N] tracks with
    the per-phase µs breakdown in [args].  Streams broken by ring
    wrap-around are repaired so the file always balances. *)
