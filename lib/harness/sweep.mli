(** The one periodic runner: a process's only background domain runs
    every periodic job it has (the server's census, SLO check and
    profiler tick; the driver's census series and profiler tick). *)

val run : stop:bool Atomic.t -> (float * (unit -> unit)) list -> unit
(** [run ~stop [(period, job); ...]] calls each [job] every [period]
    seconds, first one period after the call, until [stop] is raised,
    sleeping at most 10 ms at a time.  A late job runs once and skips
    the periods it missed.  Jobs with [period <= 0] never run; an
    exception from a job ends the run. *)

val spawn :
  stop:bool Atomic.t -> (float * (unit -> unit)) list -> unit Domain.t option
(** {!run} on a new domain; [None] when no job has a positive period. *)
