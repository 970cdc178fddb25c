(** Anomaly flight recorder.

    Dumps the observability state that explains an incident — the
    caller's STATS object (its figures, the full counter, histogram and
    gauge capture, the latest chain census), every retained finished
    request span ([Verlib.Obs.Span.recent]) with per-phase µs and
    dominant-phase attribution, and the sampling profiler's cumulative
    snapshot ([Verlib.Obs.Profile.json]) — to one JSON file per trigger
    firing, rate-limited by a cooldown and a dump cap so a persistent
    pathology cannot fill the disk.

    A dump is one object: [time], [trigger], [slo_phase] (SLO breaches
    only), [dominant_phase] (when any span was retained), [stats],
    [spans], [profile].

    The server wires four triggers: a connection killed at its
    write/idle deadline, hard shedding engaging, a chain-census
    invariant violation, and a phase-latency p99 exceeding its SLO.
    Thread-safe: triggers may fire from any server thread. *)

type trigger =
  | Deadline_kill
  | Hard_shed
  | Census_violation
  | Slo_breach of string  (** offending phase name *)

val trigger_name : trigger -> string
(** [deadline-kill] / [hard-shed] / [census-violation] / [slo-breach] —
    also the filename component. *)

type t

val create : ?min_interval:float -> ?max_dumps:int -> dir:string -> unit -> t
(** [min_interval] (default 5s) is the cooldown between dumps;
    [max_dumps] (default 16) caps files per recorder lifetime; [dir] is
    created on first dump. *)

val record : t -> trigger:trigger -> stats:(unit -> string) -> string option
(** Fire a trigger.  Returns the path of the written dump
    ([flight-<epoch-ms>-<seq>-<trigger>.json] under [dir], where [seq]
    is this recorder's monotonic dump number starting at 1), or [None]
    when the cooldown or cap suppressed it.  [stats] renders the JSON
    object embedded as the dump's [stats] member; it runs only when the
    dump is filed, after {!dump_count} counts it.  Span aggregation is
    approximate under concurrent writers (the ring contract). *)

val dump_count : t -> int
(** Dumps filed so far, each counted from the moment its trigger fired,
    so a dump's own [stats] counts it; {!last_path} names the latest
    once it is written. *)

val suppressed_count : t -> int
(** Trigger firings swallowed by the cooldown or the cap. *)

val last_path : t -> string option

(** {1 Dump analysis (shared with tests and [make trace-smoke])} *)

val dominant_phase : Verlib.Obs.Span.t -> string option
(** Argmax of one span's exclusive per-phase ticks. *)

val aggregate_dominant : Verlib.Obs.Span.t list -> string option
(** Argmax of summed exclusive ticks across spans — the dump's top-level
    ["dominant_phase"]. *)
