(** The event loop's handoff queue to the worker domains.

    It has no capacity bound of its own: the loop admits at most one
    batch per connection (read interest is off while a batch is in
    flight), so the queue never holds more batches than there are
    connections — registered ones, plus any the loop killed while
    their batch still waited.  Pushing therefore never blocks, and the
    loop thread never parks on it.

    [close] makes the queue drain-only: {!try_push} answers [`Closed],
    {!pop} keeps returning queued items and then [None] — the
    graceful-shutdown path. *)

type 'a t

val create : unit -> 'a t

val try_push : 'a t -> 'a -> [ `Ok | `Closed ]
(** Enqueue and wake one waiting consumer; [`Closed] iff the queue was
    closed (the item is not enqueued).  Never blocks. *)

val pop : 'a t -> 'a option
(** Blocks while empty and open.  [None] iff closed and drained. *)

val close : 'a t -> unit
(** Idempotent; wakes all blocked consumers. *)

val length : 'a t -> int
