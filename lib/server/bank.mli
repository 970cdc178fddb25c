(** The served bank workload: the wire check of linearizable snapshots
    that [verlib_loadgen --mix bank], [verlib_soak] and the wire tests
    share.

    [pairs] account pairs live at keys [a = 2i+1] and [b = 2i+2]
    ([0 <= i < pairs]), each seeded with {!base}.  Writer [w] of [n]
    owns the pairs [{i | i mod n = w}] and moves one unit from [a] to
    [b] per transfer, so a pair always sums to [2 * base] at rest.
    Readers pick a random pair and check its sum through one snapshot
    read; a quiescent {!audit} checks that the whole ledger sums to
    [2 * base * pairs] exactly.

    Transfers come in two kinds:

    - {!Plain}: a pipelined [DEL a; PUT a (va-1); DEL b; PUT b (vb+1)].
      No lock is held across the four commands, so under a crash-stopped
      lock holder only plain transfers show Theorem 6.1's lock-freedom
      on the wire.  A reader accepts a sum of [2B] (no transfer in
      flight) or [2B-1] (between the two PUTs) and skips a pair with an
      absent account (a visible in-flight DEL).
    - {!Txn}: one tokened [MULTI; DEL a; PUT a; DEL b; PUT b; EXEC
      token] ({!Client.rt_txn}), committed atomically and exactly once.
      A reader demands a sum of exactly [2B]; an absent account is a
      violation.

    Readers of either kind read a pair with [MGET] and, when the
    structure answers [RANGE] (probed once per reader), with [RANGE];
    {!Txn} readers also use read-only transactions. *)

type kind = Plain | Txn

val base : int
(** Every account's seeded balance. *)

val accounts : pairs:int -> int array
(** Every account key, [1 .. 2 * pairs]. *)

(** {1 Seeding and the quiescent audit}

    Both take the command executor of the side they act on:
    [Mount.exec mount] in process, {!wire} over a connection. *)

val wire : Client.t -> Protocol.command -> Protocol.reply
(** One request over a bare connection; a transport failure comes back
    as an [Err] reply. *)

val seed : (Protocol.command -> Protocol.reply) -> pairs:int -> unit
(** [DEL] then [PUT base] on every account, so reseeding a populated
    store resets it.  Raises [Failure] on an unexpected reply. *)

val audit :
  (Protocol.command -> Protocol.reply) -> pairs:int -> (int, string) result
(** One [MGET] of every account.  [Ok total] when every account is
    present and the total is exactly [2 * base * pairs]. *)

(** {1 Clients} *)

type stats = {
  mutable transfers : int;
  mutable checks : int;  (** pair sums read and checked *)
  mutable skipped : int;
      (** reads with nothing to check: shed past the retry budget, or
          (plain) an account mid-transfer *)
  mutable violations : int;
  mutable errors : int;  (** unexpected replies and transport give-ups *)
  mutable giveups : int;
      (** commands the retrying transport ran out of attempts on *)
  mutable retries : int;  (** wire retries the transport absorbed *)
  mutable busy : int;  (** [-BUSY] replies the transport observed *)
  mutable detail : string option;  (** the first violation or error *)
}

val new_stats : unit -> stats

type gate
(** One run's start/stop barrier.  Clients connect, park until {!go},
    and run until {!halt} or until any of them sees an error. *)

val gate : unit -> gate

val go : gate -> unit

val halt : gate -> unit

val writer :
  kind ->
  gate ->
  ?host:string ->
  ?endpoints:(string * int) list ->
  port:int ->
  pairs:int ->
  nwriters:int ->
  wid:int ->
  stats ->
  unit
(** Writer [wid] of [nwriters], over a retrying connection; returns
    once the gate halts.  Meant to run on its own domain. *)

(** {1 A timed run} *)

type verdict = {
  kind : kind;
  pairs : int;
  writers : int;
  readers : int;
  elapsed : float;  (** seconds from {!go} until every client joined *)
  total : stats;  (** every client's stats summed *)
  details : string list;  (** each client's first violation or error *)
}

val run :
  kind ->
  ?host:string ->
  ?endpoints:(string * int) list ->
  ?stop:bool Atomic.t ->
  ?on_go:(unit -> unit) ->
  ?tick:(unit -> unit) ->
  port:int ->
  pairs:int ->
  threads:int ->
  duration:float ->
  unit ->
  verdict
(** Spawn [max 1 (threads / 2)] writer domains and at least one reader
    domain, wait until all are connected and parked, call [on_go]
    (arm a fault plan here), release them, and call [tick] about every
    10 ms until [duration] passes or [stop] is set.  Then halt and join
    them.  [stop], when given, is the run's stop flag: setting it (from
    a signal handler, say) ends the run early.  The ledger must be
    seeded. *)

val failures : verdict -> string list
(** The verdict's failed checks, empty when it passed: transfers and
    checks both made, and no violation, error or give-up. *)

val summary : verdict -> string
(** Two report lines: the shape of the run and its counts. *)
