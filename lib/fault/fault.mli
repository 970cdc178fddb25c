(** Fault injection for the versioning core and the wire layer.

    VERLIB's central theorems are adversarial-schedule claims: a
    lock-free lock finishes even when its acquirer stalls forever
    (helping, Theorem 6.1); set-stamp and shortcutting converge under
    arbitrary interleavings of non-idempotent helpers (Theorem 6.2);
    version chains stay bounded only while reclamation keeps pace.  The
    scheduler will not produce those schedules on demand — this module
    does.

    Design, mirroring [Flock.Telemetry]'s discipline:

    - {b Named points.}  Instrumented sites create a {!Point.t} once at
      module init ([Fault.Point.make "lock.acquire"]) and call
      {!hit} / {!io_check} inline.  The catalogue of shipped points is
      documented in docs/RESILIENCE.md.
    - {b Zero cost when disabled.}  [hit] starts with a single
      [Atomic.get] of the global gate and a not-taken branch — the same
      cost class as [Telemetry.emit] with tracing off, already paid on
      these paths.
    - {b Deterministic seeded plans.}  A {!plan} is a list of
      [point-pattern / trigger / action] rules plus a seed.  Triggers
      are evaluated against per-domain hit counters and a per-domain
      splitmix RNG derived from [(seed, domain ordinal)], so replaying
      the same plan against the same per-domain hit sequence reproduces
      the same fire/no-fire decisions ([test/test_fault.ml] checks
      this).
    - {b Crash-stop, not crash-dead.}  {!action.Stall_forever} parks the
      hitting domain until the plan is disarmed (or replaced), modelling
      a crash-stopped thread for the duration of the experiment while
      still allowing a quiescent join at shutdown. *)

exception Injected of string
(** What [Fail] rules raise at the injection site. *)

(** {1 Actions} *)

type action =
  | Pause of float  (** sleep this many seconds at the site *)
  | Stall_forever
      (** park until {!disarm} (crash-stop for the armed window) *)
  | Yield_storm of int  (** [Thread.yield] this many times *)
  | Fail of exn  (** raise at the site (wire points; see docs) *)
  | Short_write of int
      (** I/O: cap one [write] at this many bytes (caller-interpreted) *)
  | Econnreset  (** I/O: raise [Unix_error (ECONNRESET, _, _)] *)
  | Eagain_burst of int
      (** I/O: answer the next call with [EAGAIN] (caller-interpreted;
          the argument is a burst hint carried to the site) *)
  | Partition of float
      (** network partition: raise [Injected "partition"] at the site
          {e and} latch the point down for this many seconds — every
          subsequent {!hit}/{!io_check}/{!feed_check} at the point
          raises until the window elapses (or {!disarm} heals it), so
          reconnect attempts fail for the whole window *)
  | Dup
      (** feed: deliver the next record twice (caller-interpreted via
          {!feed_check}; receivers must dedup).  A feed is never
          reordered: records go out in seq order over one connection. *)

(** {1 Triggers} *)

type trigger =
  | Always
  | Once  (** fire exactly once process-wide (first domain to arrive) *)
  | Nth of int  (** fire on the n-th hit of each domain (1-based) *)
  | Every of int  (** fire on every n-th hit of each domain *)
  | Prob of float  (** fire with this probability (per-domain seeded RNG) *)

(** {1 Plans} *)

type rule = {
  r_point : string;
      (** exact point name, or a prefix pattern ending in ['*']
          (["server.*"], ["*"]) *)
  r_trigger : trigger;
  r_action : action;
}

type plan = { p_name : string; p_seed : int; p_rules : rule list }

val plan : ?name:string -> ?seed:int -> rule list -> plan
(** Default seed 1. *)

val plan_of_string : string -> (plan, string) result
(** Parse the plan grammar (docs/RESILIENCE.md):
    [\[seed=N;\] RULE (";" RULE)*] where
    [RULE := POINT ":" ACTION \["@" TRIGGER\]],
    [ACTION := pause=MS | stall | yield=N | fail\[=MSG\] | shortwrite=N
    | econnreset | eagain=N | partition=MS | dup] and
    [TRIGGER := always | once | nth=N | every=N | p=F] (default
    [always]).  Example:
    ["seed=7;lock.acquire:stall@once;client.write:econnreset@p=0.02"].

    A rule carries exactly {e one} action; to layer several actions on
    one point, repeat the point in separate rules
    (["repl.send:partition=600@once;repl.send:dup@p=0.05"]).  A comma'd
    action spec is rejected with an error naming the offending point. *)

val plan_to_string : plan -> string
(** Canonical spec; [plan_of_string] round-trips it. *)

val presets : (string * string) list
(** Named plans shipped with the repo: [crash-stop-locker],
    [blocking-convoy], [stalled-reclaimer], [tbd-window], [yield-storm],
    [flaky-wire], [abort-storm], [split-brain-window]. *)

val find_plan : string -> (plan, string) result
(** A preset name, or a raw spec via {!plan_of_string}. *)

(** {1 Arming} *)

val arm : plan -> unit
(** Install [plan] as the process-wide armed plan (replacing any other)
    and open the gate.  Per-domain trigger state (hit counters, RNG)
    restarts from the plan seed. *)

val disarm : unit -> unit
(** Close the gate and release every domain parked in
    [Stall_forever].  Idempotent. *)

val armed : unit -> plan option

(** {1 Points} *)

module Point : sig
  type t

  val make : string -> t
  (** Create-or-intern: points are process-global and live forever;
      calling [make] twice with one name returns the same point. *)

  val name : t -> string
end

val hit : Point.t -> unit
(** Evaluate the armed plan at this site.  Scheduling actions (pause /
    stall / yield) are performed in place; [Fail e] raises [e]; I/O
    actions are {e ignored} here (they need caller interpretation — use
    {!io_check} at wire sites). *)

val io_check : Point.t -> action option
(** Like {!hit}, but returns [Short_write]/[Econnreset]/[Eagain_burst]
    to the caller for interpretation against the actual file
    descriptor.  Scheduling actions are still performed in place (and
    return [None]); [Fail e] still raises. *)

val feed_check : Point.t -> action option
(** Like {!io_check} for record-stream sites ([repl.send] and friends):
    returns [Dup] for the caller to interpret against the
    record it is about to ship; everything else behaves as in {!hit}.
    [Partition] (from any of the three entry points) raises and latches
    the point's down window. *)

(** {1 Attribution} *)

val set_blocking_observer : ((unit -> unit) -> unit) -> unit
(** Install a wrapper around the blocking actions ([Pause],
    [Stall_forever], [Yield_storm]): [perform] runs the blocked interval
    as [wrapper sleep] instead of [sleep].  [Verlib.Obs] installs a
    wrapper that books the interval into the current request span's
    [stall] phase, so injected chaos is attributed by name in request
    traces rather than inflating whichever phase happened to be open.
    The wrapper must call its argument exactly once; the default is
    [fun f -> f ()]. *)

(** {1 Accounting} *)

val fired_total : unit -> int
(** Faults fired since process start (all points, all plans) — exported
    as the [faults_fired] gauge by [Verlib.Obs]. *)

val fired_at : string -> int
(** Fired count of one named point (0 for unknown points). *)

val stalled_now : unit -> int
(** Domains currently parked in [Stall_forever]. *)
