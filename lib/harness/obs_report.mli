(** Rendering of [Verlib.Obs] reports: aligned tables, JSON and a
    compact one-liner for benchmark trails.  Histograms whose name ends
    in [_cycles] additionally get microsecond conversions (via
    [Verlib.Hwclock.cycles_per_us]). *)

val pretty_print : ?out:out_channel -> Verlib.Obs.report -> unit
(** Counter and histogram tables in the benchmark-table style. *)

val to_json : ?extra:(string * string) list -> Verlib.Obs.report -> string
(** One JSON object:
    [{"clock_source":"rdtsc"|"monotonic", ... extra ...,
    "counters":{..}, "histograms":{..}, "gauges":{..}}] — the leading
    [clock_source] ([Verlib.Hwclock.source]) says which clock stamped
    every tick figure.  [extra] values must already be rendered JSON
    (numbers, quoted strings); keys are escaped. *)

val pretty_census : ?out:out_channel -> Verlib.Chainscan.census -> unit
(** Chain-census table plus one line per retained violation detail. *)

val json_of_census : Verlib.Chainscan.census -> string
(** The census as one flat JSON object (counts, derived percentiles,
    shortcut ratio, violation count) — suitable as a [to_json] [extra]
    value or a standalone block. *)

val one_line : Verlib.Obs.report -> string
(** Non-zero counters plus chain-length / snapshot-dwell / lock-retry
    distributions (and the bounded-walk saturation gauge when non-zero)
    on a single line. *)

(** {1 Prometheus text exposition}

    The live metrics plane: the [METRICS] wire command speaks the
    Prometheus text format (0.0.4) rendered by {!prometheus}
    ([--metrics-interval] only sets [verlib_serve]'s SLO-check period,
    and renders nothing); {!parse_prometheus} is the validating
    line-format parser the test suite and [verlib_loadgen] share. *)

val prometheus : ?extra:(string * int) list -> unit -> string
(** Render every [Verlib.Stats] counter, every registered
    [Flock.Telemetry] histogram (cumulative [le] buckets, [_sum],
    [_count]) and every gauge as one exposition.  Metric names are
    sanitized and prefixed [verlib_]; tick-valued histograms ([_cycles])
    are converted to µs and renamed [..._us].  [extra] values are
    appended as gauges (the server adds its connection/shed/queue
    figures this way).  Quiescence contract as [Verlib.Obs.capture]. *)

type prom_sample = {
  m_name : string;
  m_labels : (string * string) list;
  m_value : float;
}

val parse_prometheus : string -> (prom_sample list, string) result
(** Strict line-format parse of a text exposition: comments and blank
    lines skipped, every sample line must be
    [name\{label="v",...\} value] (label values understand the
    backslash escapes for backslash, double-quote and newline);
    histogram series must have non-decreasing
    cumulative buckets that agree with their [_count]; NaN sample
    values are rejected, as is any negative sample whose name a
    [# TYPE ... counter] comment declared to be a counter.  Returns the
    samples in file order, or the first offending line. *)

val prom_find : prom_sample list -> string -> float option
(** Value of the first label-free sample with this exact name. *)
