(** Generic observability machinery: per-domain sharded histograms and a
    per-domain lock-free event ring.

    Lives in Flock (the bottom of the stack) so that lock and epoch hot
    paths can record into it; Verlib's [Obs] module layers the instrument
    catalogue, sampling policy and Chrome-trace export on top.

    Writes are plain stores into registry-slot-private shards (the
    [Stats] discipline); aggregate reads ({!Hist.summary},
    {!events_of_slot}) are exact only when writing domains are quiesced,
    e.g. after [Domain.join]. *)

module Hist : sig
  type t

  val nbuckets : int
  (** 64: bucket [i] holds values with [i] significant bits, i.e.
      bucket 0 is [v <= 0] and bucket [i >= 1] is [2^(i-1) <= v < 2^i]. *)

  val make : string -> t
  (** Create and register a histogram (named shards appear in
      [Verlib.Obs] reports automatically). *)

  val name : t -> string

  val observe : t -> int -> unit
  (** Record one value into the calling domain's shard.  Plain stores;
      never racy because each domain owns its shard. *)

  val observe_slot : t -> int -> int -> unit
  (** [observe_slot h slot v]: {!observe} into shard [slot], which must
      be the calling domain's {!Registry.my_id} — for callers that
      already hold it, to skip the domain-local lookup. *)

  val reset : t -> unit

  val all : unit -> t list
  (** Registered histograms, oldest first. *)

  val bucket_of : int -> int

  val bucket_bound : int -> int
  (** Inclusive upper bound of a bucket; percentile reports quote these,
      so they overshoot the true quantile by at most 2x. *)

  type summary = {
    s_name : string;
    s_count : int;
    s_sum : int;
    s_max : int;  (** exact maximum observed value *)
    s_p50 : int;  (** bucket upper bound (within 2x of the true quantile) *)
    s_p90 : int;
    s_p99 : int;
  }

  val mean : summary -> float

  val summary : t -> summary

  val buckets : t -> int array
  (** Bucket counts aggregated across all domain shards. *)
end

(** {1 Gauges}

    Named instantaneous readings, evaluated (not stored) at capture
    time.  [Epoch] registers reclamation-health gauges here; the verlib
    layer adds its own.  Closures must be cheap and side-effect free;
    a raising closure reads as 0. *)

module Gauge : sig
  type t

  val make : string -> (unit -> int) -> t
  (** Create and register a gauge; it appears in every subsequent
      {!capture} (and hence in [Verlib.Obs] reports). *)

  val name : t -> string

  val read : t -> int

  val all : unit -> t list

  val capture : unit -> (string * int) list
  (** All registered gauges, read now, oldest first. *)
end

(** {1 Activity publication}

    The write side of the sampling profiler ([Verlib.Obs.Profile]
    drives the read side).  Each domain publishes its current activity
    — held lock site, waited-on lock site, injected stall — as interned
    integer ids in slot-private cells; disabled (the default) every
    {!Activity.set} is one atomic load and a not-taken branch. *)

module Activity : sig
  val dim_lock_hold : int
  (** Cell dimension: the lock site this domain currently holds. *)

  val dim_lock_wait : int
  (** Cell dimension: the lock site this domain currently waits on. *)

  val dim_stall : int
  (** Cell dimension: non-zero while an injected blocking fault parks
      this domain ([Fault] stall attribution). *)

  val set_enabled : bool -> unit
  (** Open/close the publication gate; closing clears every cell. *)

  val on : unit -> bool

  val intern : string -> int
  (** Intern a frame name (mutexed; call at registration time, never on
      hot paths).  Id 0 is reserved for [""] = no activity. *)

  val name_of : int -> string
  (** Resolve an interned id; [""] for unknown ids. *)

  val set : int -> int -> unit
  (** [set dim id] publishes [id] into the calling domain's cell for
      [dim]; no-op when the gate is closed. *)

  val get : int -> int -> int
  (** [get slot dim]: the sampler's read side (racy by design). *)

  val clear_my_slot : unit -> unit
end

(** {1 Event tracing}

    Fixed-size per-domain rings of [(timestamp, code, arg)] triples.
    Disabled (the default) the {!emit} fast path is a single
    branch-predictable atomic load. *)

val ev_lock_acquire : int
(** Flock-reserved event codes (32..); Verlib defines 1..31. *)

val ev_lock_help : int

val ev_epoch_advance : int

val ring_capacity : int

val set_tracing : bool -> unit

val tracing_on : unit -> bool

val set_clock : (unit -> int) -> unit
(** Install the timestamp source ([Verlib.Obs] installs [Hwclock.now]). *)

val now : unit -> int
(** Read the installed timestamp source (0 before installation).  Lets
    Flock hot paths time contended sections without depending on the
    clock above them. *)

val emit : int -> int -> unit
(** [emit code arg] appends an event to the calling domain's ring when
    tracing is enabled; no-op (one atomic load) otherwise. *)

val events_of_slot : int -> (int * int * int) list
(** [(ts, code, arg)] events of a registry slot, oldest first; at most
    {!ring_capacity} survive a wrap. *)

val dropped_of_slot : int -> int
(** Events lost to ring wrap-around for a slot. *)

val reset_traces : unit -> unit

val reset_all : unit -> unit
(** Reset all histograms and trace rings.  Only safe when writers are
    quiesced (same contract as [Verlib.Stats.reset_all]). *)
