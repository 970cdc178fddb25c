(** Epoch-based reclamation (EBR), reduced to what OCaml needs.

    In the C++ original, epochs delimit when retired memory may be freed.
    Under OCaml's GC, freeing is automatic, so there is nothing to defer;
    what remains is the epoch structure the paper's algorithms observe:
    operations run inside {!with_epoch}, helpers run in the same epoch as
    the thread they help, and {!passed} tells a writer when every domain
    that could still hold a reference from some epoch has left it (the
    condition a versioned-pointer link shortcut waits for). *)

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
    condition EBR frees a retired node under, as a test that can be
    polled. *)

val epoch_lag : unit -> int
(** How far the slowest active domain trails the global epoch; 0 when all
    domains are quiescent or caught up.  Also registered as the
    [epoch_lag] gauge ({!Telemetry.Gauge}). *)
