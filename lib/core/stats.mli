(** Low-overhead event counters for experiments and tests.

    Counters are per-domain slots summed on read, so increments are plain
    stores (racy only against the reader, which tolerates it).

    {b Quiescence contract:} [total], [reset] and [reset_all] are exact
    only when every incrementing domain is quiesced (e.g. joined).
    Concurrent reads are safe but may miss in-flight increments, and a
    [reset] racing a writer can silently lose that writer's increment —
    harness code must reset between runs, not during them. *)

type counter

val make : string -> counter

val name : counter -> string

val incr : counter -> unit

val add : counter -> int -> unit

val total : counter -> int

val reset : counter -> unit

val all : unit -> counter list
(** All registered counters, in creation order. *)

(** Events instrumented throughout the library. *)

val indirect_created : counter
(** Indirect version links allocated (cas/store fell back to a link). *)

val direct_installed : counter
(** Versions installed without indirection. *)

val shortcuts : counter
(** Indirect links spliced out by [shortcut]. *)

val snapshot_aborts : counter
(** Optimistic snapshot executions that had to re-run (Algorithm 7). *)

val truncations : counter
(** Version chains severed behind a no-longer-needed version (the GC
    analogue of EBR reclaiming old versions). *)

val snapshots : counter

val reset_all : unit -> unit
(** Reset every counter {e and} the telemetry layer (histograms, trace
    rings — see [Flock.Telemetry]).  Subject to the quiescence contract
    above. *)
