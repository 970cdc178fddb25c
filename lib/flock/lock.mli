(** Locks in two flavours: standard blocking (test-and-set with backoff)
    and lock-free (FLOCK-style helping locks).

    A lock-free lock stores, while held, a descriptor containing the
    critical section as a thunk plus an idempotence log ({!Idem}).  Any
    thread that finds the lock taken helps run the thunk to completion and
    helps release the lock, so the system makes progress even if the owner
    is preempted or stalls — the property the paper exploits when the
    machine is oversubscribed.

    Critical-section thunks must follow the FLOCK contract: all shared
    mutable state they touch is accessed through {!Fatomic} cells or Verlib
    versioned pointers (both idempotence-aware), and allocation inside the
    section goes through {!new_obj}. *)

type mode = Blocking | Lock_free

val set_default_mode : mode -> unit
(** Mode given to subsequently created locks (default [Lock_free]).
    Benchmarks flip this to compare the two regimes, as the paper does with
    compile flags. *)

val default_mode : unit -> mode

type t

val create : ?mode:mode -> ?site:string -> unit -> t
(** [site] labels the call site for the lock-contention profiler: every
    lock created with the same [site] shares one accounting record
    (acquires, contended attempts, wait cycles, helps, sampled waits-on
    edges — see {!site_summaries}).  Unlabelled locks skip per-site
    accounting entirely. *)

val mode_of : t -> mode

(** {1 Lock-contention profiler}

    Per-site counters are slot-sharded plain stores (exact at
    quiescence); the waits-on edge map is sampled (1-in-8) and racy by
    design — its shape, one {e holder} slot accumulating waits from
    many waiters at one site, is the convoy signature the chaos
    [blocking-convoy] preset exercises. *)

type site_summary = {
  sm_site : string;
  sm_acquires : int;  (** successful [try_lock] acquisitions *)
  sm_contended : int;  (** failed [try_lock] attempts *)
  sm_wait_cycles : int;
      (** clock ticks spent inside [with_lock] retry loops *)
  sm_helps : int;  (** helping-path executions against this site *)
  sm_edges : (int * int) list;
      (** (holder registry slot, sampled waits), busiest first *)
}

val site_summaries : unit -> site_summary list
(** Every registered site, registration order. *)

val reset_sites : unit -> unit
(** Zero all per-site counters and edge maps (quiescence contract). *)

val try_lock : t -> (unit -> 'a) -> 'a option
(** [try_lock t f] attempts to acquire [t]; on success runs [f] as the
    critical section and returns [Some (f ())], otherwise returns [None].
    In lock-free mode a [None] answer may be spurious (the lock was held, or
    a helping race resolved against this attempt); callers retry their
    whole operation, re-validating state, exactly as in the paper's data
    structures.  Contending callers help the current holder first.  In
    lock-free mode the attempt runs inside an {!Epoch} (entering one if
    the caller is not already in one), so a helper stays announced from
    reading the lock word until the thunk it helps has finished. *)

val try_lock_bool : t -> (unit -> bool) -> bool
(** Paper-style convenience: [false] means "not acquired or the critical
    section asked to retry". *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Retry [try_lock] with backoff until acquired. *)

val new_obj : (unit -> 'a) -> 'a
(** Idempotent allocation ([flck::New]): inside a critical section all
    helpers receive the same object; outside it simply runs the
    allocator. *)

val retire : 'a -> unit
(** [flck::Retire].  Reclamation itself is the GC's job in OCaml; this
    counts the retirement (the [retires] figure in stats reports).  The
    count is a plain increment: call sites inside critical sections gate
    it through {!Idem.claim} so one retirement counts once per critical
    section, never once per helper (as {!Vptr} does). *)

val holding_lock : unit -> bool
(** Whether the calling domain is currently inside a lock-free critical
    section (its own or one it is helping). *)

val help_count : unit -> int
(** Number of critical sections executed via the helping path since start
    (monotone, racy read; for experiments and tests). *)

val retire_count : unit -> int
