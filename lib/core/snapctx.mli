(** Per-domain snapshot context.

    While a domain runs inside [with_snapshot], its chosen stamp is held
    here (the paper's thread-local [local_stamp]) together with the
    optimistic-execution flags of Algorithm 7.  {!Vptr.load} consults this
    on every read; {!Snapshot} sets and clears it. *)

val none : int
(** Sentinel meaning "not inside a snapshot" (the paper uses -1; we use
    [min_int] so it can never collide with [Stamp.tbd]). *)

val local_stamp : unit -> int
(** The calling domain's snapshot stamp, or {!none}. *)

val set_local_stamp : int -> unit

val clear_local_stamp : unit -> unit

val optimistic : unit -> bool

val set_optimistic : bool -> unit

val aborted : unit -> bool

val clear_aborted : unit -> unit


(** {2 One lookup per read}

    The functions above each fetch the domain's context from
    domain-local storage; {!Vptr.load} fetches it once and uses these. *)

type ctx

val current : unit -> ctx

val stamp_of : ctx -> int
(** {!local_stamp} of a fetched context. *)

val note_equal_in : ctx -> unit
(** Called by the snapshot read path when it accepts a version whose stamp
    equals the reader's stamp; aborts the run if it is optimistic
    (Algorithm 7, line 5). *)
