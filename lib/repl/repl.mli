(** The replication plane: a primary-side change feed tapped off
    committed writes, and the replica-side apply engine.

    Every committed write set — a whole [MULTI/EXEC] batch or one plain
    [PUT]/[DEL] — already carries a versionstamp ([Txn]); this module
    turns that order into a {e bounded} change feed:

    - {b Records.}  [(seq, stamp, writes)].  The {b seq} is assigned by
      the log, dense and gap-free; the {b stamp} is the commit's
      versionstamp and is {e not} dense (aborted commits draw stamps
      too).  Dedup and gap detection therefore run on seq; stamp is
      what watermarks and staleness are expressed in.
    - {b Ordering.}  The tap runs while the commit's stripe latches are
      held, so two records touching a common key are appended in stamp
      order; disjoint records may interleave out of stamp order but
      commute — a replica applying in seq order converges to the
      primary's state (docs/REPLICATION.md).
    - {b Bounded, with backpressure on the laggard.}  Appends never
      block a commit: the ring overwrites its oldest record, and a
      subscriber whose cursor fell behind the trim point is told to
      resync from a snapshot.  This is the laggard-shedding contract
      the multiversion-GC line of work motivates: replica lag is
      measured ([repl_lag_stamps]/[repl_lag_bytes]), capped (the ring),
      and shed (resync) — never allowed to pin unbounded history.

    Process-wide [repl_*] gauges (Obs reports, STATS, METRICS):
    [repl_records_total], [repl_lag_stamps], [repl_lag_bytes],
    [repl_resyncs], [repl_applied_total], [repl_dup_dropped],
    [repl_watermark]. *)

type record = {
  r_seq : int;  (** dense log sequence (1-based; 0 = before the first) *)
  r_stamp : int;  (** the commit's versionstamp *)
  r_writes : (int * int option) list;
      (** the installed state per key: [Some v] = bound to [v],
          [None] = absent *)
}

val record_bytes : record -> int
(** Wire-size estimate used by the lag-bytes accounting. *)

val touches : int -> int -> record -> bool
(** [touches lo hi r]: does [r] write a key in [\[lo, hi\]]? *)

(** {1 Fault points} *)

val fp_send : Fault.Point.t
(** [repl.send] — hit per record shipped to a subscriber; the
    [partition]/[dup]/[reorder] actions interpret here. *)

val fp_apply : Fault.Point.t
(** [repl.apply] — hit per record installed on a replica. *)

val fp_ack : Fault.Point.t
(** [repl.ack] — hit per cursor acknowledgement. *)

(** {1 The primary-side log} *)

module Log : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default 65536) is the record count the ring retains;
      older records are overwritten (the feed's space bound). *)

  val tap : t -> Txn.Store.t -> unit
  (** Install this log as the store's commit observer: every committed
      write set appends one record. *)

  val append : t -> stamp:int -> (int * int option) list -> unit
  (** The raw tap (exposed for tests); empty write sets are ignored. *)

  val tail_seq : t -> int

  val tail_stamp : t -> int

  val read_after : t -> seq:int -> [ `Records of record list | `Resync ]
  (** Records with [r_seq > seq], oldest first; [`Resync] when the ring
      has overwritten part of that suffix (cursor behind the trim
      point). *)

  val subscribe : t -> int
  (** Register a cursor; the id keys {!ack}/{!unsubscribe} and the lag
      gauges measure against the slowest registered cursor.  Adopts the
      stalest {!orphan}ed cursor when one exists (lag-lineage continuity
      across a partition), otherwise starts at the current tail. *)

  val unsubscribe : t -> int -> unit
  (** Drop the cursor entirely (clean stream shutdown). *)

  val orphan : t -> int -> unit
  (** Mark the cursor severed-but-live: it keeps aging — and driving
      [repl_lag_stamps]/[repl_lag_bytes] — until a reconnecting
      subscriber adopts it.  The partition story depends on this:
      unsubscribing on abnormal death would zero the lag gauges exactly
      when they must rise. *)

  val ack : t -> id:int -> seq:int -> stamp:int -> unit

  val lag : t -> int * int
  (** Worst [(stamps, bytes)] lag across subscribers; [(0, 0)] with
      none. *)

  val subscriber_count : t -> int
end

(** {1 The replica-side apply engine} *)

module Apply : sig
  type t

  val create : Txn.Store.t -> t

  val reset : t -> seq:int -> stamp:int -> unit
  (** Adopt a snapshot's position (after SYNC): the next expected
      record is [seq + 1] and the watermark starts at [stamp]. *)

  val offer :
    t -> record -> [ `Applied of int | `Dup | `Buffered | `Overflow ]
  (** Offer one received record.  In-order records install immediately
      (each as one transaction, so replica readers never observe a
      half-applied batch) together with any buffered successors the
      gap fill releases — [`Applied n] counts them.  A record at or
      below the cursor is [`Dup] (dropped, [repl_dup_dropped]); a
      record past the next expected seq is [`Buffered] into a bounded
      reorder buffer, or [`Overflow] when that buffer is full — the
      caller must resync. *)

  val last_seq : t -> int

  val watermark : t -> int
  (** Max primary stamp applied — monotonic. *)

  val last_stamp : t -> int
  (** Stamp of the most recently applied record (what the strict
      monotonicity test observes). *)

  val pending_count : t -> int
end

(** {1 Process-wide accounting} *)

val records_total : unit -> int

val resyncs_total : unit -> int

val applied_total : unit -> int

val dup_dropped_total : unit -> int

val watermark_now : unit -> int

val lag_stamps : unit -> int

val lag_bytes : unit -> int
