(** Timed multi-domain throughput driver.

    Reproduces the paper's measurement methodology at container scale:
    initialise the structure to ~n keys from a universe of 2n, run every
    thread on its operation mix for a fixed duration, report operations
    per second (averaged over [repeats] runs).

    One hardware core means domains beyond the first time-share; the
    driver still measures aggregate throughput, which is the quantity the
    oversubscription experiments (Figure 11) need. *)

type group = {
  g_count : int;  (** number of threads in this group *)
  g_update_percent : int;
  g_query : Workload.Opgen.query_kind;
}

type spec = {
  map : (module Dstruct.Map_intf.MAP);
  mode : Verlib.Vptr.mode;
  lock_mode : Flock.Lock.mode;
  scheme : Verlib.Stamp.scheme;
  direct_stores : bool;
  n : int;  (** target structure size *)
  theta : float;  (** Zipfian parameter, 0 = uniform *)
  groups : group list;
  duration : float;  (** seconds per run *)
  repeats : int;
  seed : int;
  lat_sample : int;
      (** 0 disables per-op latency sampling (the default); a power of
          two [n] samples 1-in-[n] operations into the [Verlib.Obs]
          per-op-kind latency histograms. *)
  census : bool;
      (** take a quiescent final census ([Verlib.Chainscan], exact
          audit) after the workers join. *)
  census_interval : float;
      (** when [census] is set and this is > 0, a background domain
          additionally walks the structure every [census_interval] seconds
          while the workers run, recording a time series of censuses
          (chain growth / reclamation lag over time). *)
}

val default_spec : (module Dstruct.Map_intf.MAP) -> spec
(** 4 threads, 20% updates + multifinds of 16, n = 10_000, uniform keys,
    0.3 s, 1 repeat — a scaled-down rendition of the paper's default. *)

type result = {
  total_mops : float;  (** million operations per second, all groups *)
  group_mops : float list;  (** per [groups] entry *)
  aborts : int;  (** optimistic snapshot re-runs *)
  increments : int;  (** global-clock increments *)
  final_size : int;
  obs : Verlib.Obs.report;
      (** per-run counter deltas and histogram summaries (counters are
          reset at the top of each run; captured after workers join, so
          exact).  Of the last repeat when [repeats > 1]. *)
  space_bytes_per_entry : float;
      (** quiescent [Space.bytes_per_entry] over the whole structure,
          including any version-chain tails still retained. *)
  census : Verlib.Chainscan.census option;
      (** quiescent final census when [spec.census]; its audit is exact
          (any reported violation is a real invariant break). *)
  census_series : (float * Verlib.Chainscan.census) list;
      (** (elapsed-seconds, census) samples from the background sampler,
          oldest first; empty unless [spec.census] and
          [spec.census_interval > 0]. *)
  alloc_bytes_per_op : float;
      (** GC-allocated bytes per completed operation: sum of per-worker
          [Gc.allocated_bytes] deltas over the measured loop, divided by
          total ops.  Averaged over repeats. *)
  gc_minor : int;
      (** minor collections during the last run, seen from the spawning
          domain (domain-local in OCaml 5, so an under-count —
          informational) *)
  gc_major : int;
      (** major collections during the last run (global counter) *)
}

val run : spec -> result
(** Builds, fills, runs and validates ([check]) the structure. *)

val request_stop : unit -> unit
(** Cooperative external stop, for signal handlers: the current run's
    measurement window ends at the next 50 ms slice, remaining repeats
    are skipped, and [run] still returns a complete result (workers and
    the census sampler joined, final census and report intact) instead
    of the process dying mid-write.  Sticky for the process lifetime. *)

val interrupted : unit -> bool
(** Whether {!request_stop} has been called. *)
