(** Epoch-based reclamation (EBR).

    In the C++ original, epochs delimit when retired memory may be freed.
    Under OCaml's GC, freeing is automatic, but the epoch structure is still
    the substrate the paper's algorithms observe: operations run inside
    {!with_epoch}, helpers run in the same epoch as the thread they help,
    and deferred actions (the OCaml analogue of deallocation: clearing
    caches, running finalizers, statistics) execute only once every domain
    has left the epoch in which they were deferred. *)

val with_epoch : (unit -> 'a) -> 'a
(** Announce the calling domain as active, run the operation, withdraw the
    announcement.  Nests (inner calls are no-ops apart from depth
    tracking).  Inside a lock-free critical section the announcement of the
    original owner is already in place, matching the paper's observation
    that helpers run in the same epoch as the original. *)

val in_epoch : unit -> bool

val current_epoch : unit -> int
(** The global epoch counter (monotone). *)

val passed : int -> bool
(** [passed e], for an [e] read from {!current_epoch}: every domain that
    was inside an epoch when [e] was read has left it since.  The
    condition {!defer} waits for, as a test that can be polled without
    queueing a callback. *)

val defer : (unit -> unit) -> unit
(** Schedule a callback to run once every domain currently inside an epoch
    has left it.  Callbacks run on whichever domain notices the epoch has
    safely advanced (during a later [with_epoch]).  Must be called from
    inside {!with_epoch}. *)

val flush : unit -> unit
(** Run all callbacks that have become safe.  Called opportunistically by
    [with_epoch]; exposed for tests and for quiescent points. *)

val pending_count : unit -> int
(** Number of deferred callbacks not yet executed (racy, for tests). *)

val epoch_lag : unit -> int
(** How far the slowest active domain trails the global epoch; 0 when all
    domains are quiescent or caught up.  Also registered as the
    [epoch_lag] gauge ({!Telemetry.Gauge}), alongside [epoch_pending]
    (the deferred-callback queue depth): the reclamation-health pair the
    multiversion-GC literature watches. *)
