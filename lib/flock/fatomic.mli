(** Idempotent atomic cells ([flck::atomic<T>] in the paper).

    Mutable shared locations that are safe to access from inside lock-free
    critical sections: loads are logged so every helper of a critical
    section observes the same value, and stores/CAMs take effect exactly
    once even when replayed by many helpers.

    Implementation: the cell holds an immutable one-field box.  Each logical
    write allocates a fresh box (idempotently, via {!Idem.once}), so boxes
    are physically unique and a machine CAS from the logged old box to the
    shared new box succeeds for exactly one helper — giving exactly-once
    stores without version tags, because the GC rules out ABA on box
    addresses.  Outside critical sections the operations reduce to plain
    atomic accesses. *)

type 'a t

val make : 'a -> 'a t

val load : 'a t -> 'a
(** Atomic read; inside a critical section the result is logged so all
    helpers agree. *)

val store : 'a t -> 'a -> unit
(** Atomic write, exactly-once under helping.  Inside critical sections the
    caller must hold a lock that prevents write-write races on this cell
    (the FLOCK contract); concurrent stores from distinct critical sections
    to the same cell are not linearized. *)

val cam : 'a t -> old_v:'a -> new_v:'a -> unit
(** Compare-and-modify: atomically set the cell to [new_v] if its current
    value is physically equal to [old_v].  Does not report success — that
    restriction is what makes it implementable idempotently (FLOCK). *)
