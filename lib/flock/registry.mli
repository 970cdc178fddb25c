(** Per-domain slot registry.

    Assigns each domain a small dense integer id on first use and releases
    it when the domain exits.  The id indexes fixed-size announcement arrays
    used by the epoch collector ({!Epoch}) and by Verlib's done-stamp
    computation.  Ids are recycled, so the arrays stay bounded by the peak
    number of live domains, capped at {!max_slots}. *)

val max_slots : int
(** Upper bound on simultaneously registered domains (128, matching the
    OCaml runtime's default domain limit). *)

val my_id : unit -> int
(** The calling domain's slot id, registering it if needed. *)

val iter_ids : (int -> unit) -> unit
(** Apply a function to every currently registered slot id.  Slots being
    concurrently registered or released may or may not be visited; callers
    must tolerate this (announcement scans do). *)

val fold_ids : (int -> 'a -> 'a) -> 'a -> 'a
(** [iter_ids] with an accumulator, under the same racy contract; with a
    closed function it allocates nothing. *)

val registered_count : unit -> int
(** Number of currently registered domains (racy snapshot, for stats). *)
