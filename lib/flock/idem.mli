(** Idempotence support for lock-free locks.

    A critical section run under a lock-free lock may be executed
    concurrently by its owner and by any number of helpers, yet must appear
    to run exactly once.  Following Ben-David, Blelloch and Wei (FLOCK,
    PPoPP 2022), each critical-section descriptor carries a {e log}: a
    sequence of write-once slots.  Helpers replay the thunk deterministically
    and agree on the outcome of every shared-memory step by racing to fill
    the next slot with CAS; the first value installed wins and every replica
    uses it.

    Determinism contract: inside a critical section, every read of shared
    mutable state must go through {!once} (directly or via {!Fatomic}), so
    that all helpers follow the same control path and consume log slots in
    the same order.  Reads the algorithm has proven benign (e.g. Verlib's
    timestamp reads, Theorem 6.2 of the VERLIB paper) are exempt.

    Sharing contract: logged operations may only target {e shared} state —
    locations that are identical for every helper of the section.  A fresh
    object allocated inside the section is replica-private until it is
    published through a logged write, so it must be {e fully initialised at
    construction} (e.g. [Vptr.make], [Fatomic.make], plain record fields),
    never populated with logged stores: a helper replaying such a store
    would pair the log's agreed old/new values, which belong to another
    replica's object, with its own object, silently dropping the write. *)

type log
(** A write-once log shared by all helpers of one critical section. *)

val create_log : unit -> log

val in_frame : unit -> bool
(** Whether the calling domain is currently replaying a critical section. *)

val enter : log -> unit
(** Begin (re-)executing a critical section whose agreed results live in
    [log].  Frames nest: helping an inner lock pushes a new frame. *)

val exit : unit -> unit
(** Leave the innermost frame.  Must pair with {!enter}. *)

val once : (unit -> 'a) -> 'a
(** [once f] runs [f] and returns the value agreed on by all helpers: the
    first helper to complete [f] installs its result in the next log slot;
    everyone returns the installed value.  Outside a frame this is just
    [f ()].  [f] itself may run several times (once per helper), so it must
    be safe to repeat; only its {e result} is deduplicated.  Allocation is
    the canonical use: losers' objects are dropped and reclaimed by the
    GC. *)

val get : 'a Atomic.t -> 'a
(** [get a] is [once (fun () -> Atomic.get a)] — the same slot, fault
    point and replay — without allocating a closure.  The logged read of
    shared state. *)

val claim : unit -> bool
(** A claim point: among all helpers replaying this position of a
    critical section, exactly one receives [true]; the rest (and every
    later replay) receive [false].  Outside a frame it is always [true].
    The winner performs the section's once-per-critical-section side
    effects — statistics increments, retire notices, trace events — so
    helped executions do not inflate them.  Like {!once} it consumes one
    log slot, so it must sit on the same control path for every
    helper. *)

(** {2 One lookup per operation}

    Every entry point above first fetches the calling domain's frame
    stack from domain-local storage.  An operation that takes several
    logged steps fetches it once with {!frames} and passes it to the
    [_in] variants, which behave exactly like their counterparts. *)

type frames
(** The calling domain's frame stack.  Valid for the domain that fetched
    it; frames entered or left later are seen through it. *)

val frames : unit -> frames

val active : frames -> bool
(** {!in_frame} through a fetched stack. *)

val get_in : frames -> 'a Atomic.t -> 'a

val claim_in : frames -> bool

val agree_in : frames -> 'a -> 'a
(** [agree_in fs x] is [once (fun () -> x)] without the closure: inside a
    frame, all helpers return the first candidate published at this log
    position; outside, [x]. *)

val frame_depth : unit -> int
(** Nesting depth of the calling domain (0 when outside any frame). *)
