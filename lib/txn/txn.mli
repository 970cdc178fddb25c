(** Multi-key optimistic transactions with versionstamped commits.

    The paper's O(1) snapshots make consistent multi-point {e reads}
    free; this module adds the other half — multi-key read-write
    transactions — with TL2-style optimistic concurrency control on top
    of any {!Dstruct.Map_intf.MAP}:

    - {b Read set.}  Point reads are bracketed by a versioned stripe
      lock ([v1]; find; [v2 = v1]) and recorded as [(stripe, version)]
      pairs; range reads are recorded as [(lo, hi, fingerprint)] of the
      result.  Reads observe current state (read-your-writes against
      the transaction's buffer).
    - {b Write buffer.}  PUT/DEL are buffered, never touching the
      structure until commit.  PUT keeps the repo-wide insert-only
      semantics: it fails with {!S_exists} when the key is (effectively)
      present.
    - {b Validate-and-install.}  Commit acquires the stripes of all
      written keys in canonical (ascending) order via single-word CAS
      latches, re-checks every recorded read version, then installs all
      writes and releases each stripe to one fresh global stamp — the
      {b versionstamp} — drawn from a shared commit clock.  Committed
      transactions are therefore totally ordered by versionstamp, and
      replaying them in that order reproduces the final state (the
      property [test/test_txn.ml]'s offline checker verifies).

    The stripe latches are deliberately {e not} [Flock.Lock]: FLOCK's
    lock-free locks run helper-replayed idempotent thunks, and a commit
    body (validate + install + release-to-new-stamp) is not idempotent
    under helping.  Plain CAS words keep the protocol's writes owned by
    exactly one domain; lock-freedom of the served stack is preserved
    by bounded spins that abort (and retry the whole transaction)
    rather than block.

    Tokens make EXEC replay exactly-once: passing the same non-zero
    [token] again returns the cached [(versionstamp, steps)] of the
    first commit instead of re-executing, closing the PUT/DEL
    reply-idempotency caveat of docs/RESILIENCE.md.  The cache keeps
    the most recent {!idem_capacity} committed tokens (FDB-style
    bounded idempotency window). *)

exception Conflict
(** Raised internally when validation fails; [exec] converts it into
    retries and, past [max_attempts], an {!Aborted} outcome. *)

(** One operation of a transaction, mirroring the wire commands. *)
type op =
  | Get of int
  | Put of int * int  (** key, value — insert-only, like wire PUT *)
  | Del of int
  | Mget of int array
  | Range of int * int  (** ordered structures only *)
  | Rangecount of int * int

(** Per-operation result, observed at the transaction's (serialized)
    read point. *)
type step =
  | S_ok  (** PUT succeeded *)
  | S_exists  (** PUT refused: key present *)
  | S_nil  (** GET on an absent key *)
  | S_int of int  (** GET value / DEL 0|1 / RANGECOUNT *)
  | S_vals of int option list  (** MGET *)
  | S_pairs of (int * int) list  (** RANGE, ascending *)

type outcome =
  | Committed of { vs : int; steps : step list; attempts : int }
      (** [vs] is the versionstamp: a fresh, globally-ordered commit
          token.  [attempts = 0] marks an idempotent replay served from
          the token cache. *)
  | Aborted of { attempts : int }
      (** Validation kept failing for [attempts] tries. *)

module Store : sig
  type t
  (** A transactional facade over one map handle: the stripe-latch
      table, commit clock and token cache.  Create exactly one per
      mounted structure and route {e all} writes (including single-key
      PUT/DEL) through it, so plain writes participate in stripe
      versioning and transactions validate against them. *)

  val create : (module Dstruct.Map_intf.MAP with type t = 'h) -> 'h -> t
  (** A store with 512 stripes. *)

  val quiescent : t -> bool
  (** No stripe latch held and no commit in flight — the leak-free
      contract chaos tests assert after [Fault.disarm]. *)
end

val size : Store.t -> int
(** Bound keys, counted without a walk: read from the structure once at
    {!Store.create}, then moved by every write through this module that
    changes a key's presence (a single-key insert or delete, an install
    that binds an unbound key or deletes a bound one).  Exact when every
    write to the structure goes through its store; O(1). *)

val idem_capacity : int
(** Committed tokens retained per store (4096). *)

val grace_seconds : float
(** Wall-clock liveness grace for the plain-path stripe brackets
    (50ms).  A bracket that cannot complete within the grace — only
    possible when a latch holder is crash-stopped, never under the
    bounded pauses fault plans inject — degrades to latch-free
    operation so plain single-key traffic stays lock-free
    (Theorem 6.1).  Transactions never degrade: a busy stripe is a
    validation conflict. *)

(** {1 Commit feed (the replication tap)}

    At most one observer per store.  The observer is called once per
    installed commit — whole [MULTI/EXEC] batches as one call, plain
    single-key writes as a one-element call — with the versionstamp and
    the written key set ([(k, Some v)] = key now bound to [v],
    [(k, None)] = key now absent).  Calls happen {e while the written
    stripes are still latched}, so for any single key observer calls
    arrive in versionstamp order; calls for disjoint key sets may
    arrive out of stamp order (they commute).  Exactly-once replays
    served from the token cache do not re-emit.  Observer exceptions
    are swallowed: the tap must never turn an installed commit into an
    abort.  [lib/repl] is the intended observer. *)

val set_commit_observer : Store.t -> (int -> (int * int option) list -> unit) -> unit

val clear_commit_observer : Store.t -> unit

val idem_evictions : unit -> int
(** Committed tokens evicted FIFO past {!idem_capacity} — the
    [txn_idem_evictions] gauge.  A replay of an evicted token
    re-executes, so a nonzero rate means the exactly-once window is
    being outrun. *)

val exec : ?token:int -> ?max_attempts:int -> Store.t -> op list -> outcome
(** Run one transaction: execute [ops] against current state (buffering
    writes), then validate-and-install.  On validation conflict the
    whole transaction re-executes, up to [max_attempts] (default 8)
    times with backoff, then reports {!Aborted}.  A non-zero [token]
    makes the call exactly-once per store: a token already committed
    replays its cached result; concurrent calls with one token are
    serialized so exactly one executes.  Read-only transactions
    validate without acquiring any stripe and return the commit clock's
    current value as their versionstamp. *)

val apply : Store.t -> (int * int option) list -> unit
(** [apply store writes] installs committed state ([(k, Some v)] binds
    [k] to [v], [(k, None)] unbinds it) with no read phase, through the
    same install step as an {!exec} commit: latch the written stripes,
    install each write with one map call ([MAP.upsert] or
    [MAP.delete]), tap the feed, release.  A [txn.commit] fault or a
    latch that stays busy releases the latches with nothing installed,
    and the write set is installed again.  The replica's apply path. *)

val put : Store.t -> int -> int -> bool
(** Single-key insert through the stripe table: acquires the key's
    stripe, performs the insert, and releases to a fresh versionstamp
    (or to the unchanged version when the key was already present).
    Same result contract as [MAP.insert]. *)

val del : Store.t -> int -> bool
(** Single-key delete through the stripe table; same contract as
    [MAP.delete]. *)

(** {1 Serialized plain reads}

    A structure-level snapshot is atomic against individual map calls
    but not against a multi-key install (a {e sequence} of map calls,
    one per key): a raw read can observe a transfer's [a] installed and
    its [b] not yet — a state no serial execution produces.  These
    wrappers close that window seqlock-style and retry with backoff
    until a read overlapped no install, so every plain read returns a
    committed state.  The server routes GET/MGET/RANGE/RANGECOUNT
    through them (SCAN and SIZE stay structure-level diagnostics). *)

val get : Store.t -> int -> int option
(** [find] bracketed by the key's stripe word. *)

val mget : Store.t -> int array -> int option array
(** Atomic [multifind] bracketed by all covering stripe words. *)

val range : Store.t -> int -> int -> (int * int) list
(** [range] bracketed by the installer counters (quiet window: no
    multi-op install in flight or started during the scan). *)

val range_count : Store.t -> int -> int -> int
(** [range_count] under the same quiet-window bracket. *)

(** {1 Counters}

    Process-wide, also exported as [txn_*] gauges via
    [Flock.Telemetry.Gauge] (so they appear in Obs reports, STATS and
    METRICS). *)

val commits : unit -> int
(** Transactions committed (excluding cache replays). *)

val aborts : unit -> int
(** Transactions that exhausted [max_attempts]. *)

val validation_retries : unit -> int
(** Individual validation conflicts (every retried attempt counts). *)

val replays : unit -> int
(** Exactly-once replays served from a token cache. *)
