(** A mounted structure: any [Dstruct.Map_intf.MAP]-conforming map,
    packed with its handle so the server can execute wire commands
    against it without knowing the concrete type.

    Capability dispatch is typed: [RANGE]/[RANGECOUNT] against an
    [Unordered] structure produce a [-ERR unsupported ...] reply — never
    an exception — while [MGET] and [SCAN] work everywhere (the shared
    snapshot fold of [Map_intf]). *)

type t

val mount :
  ?mode:Verlib.Vptr.mode ->
  ?lock_mode:Flock.Lock.mode ->
  n_hint:int ->
  (module Dstruct.Map_intf.MAP) ->
  t

val name : t -> string

val range_capability : t -> Dstruct.Map_intf.range_capability

val iter_vptrs : t -> (Verlib.Chainscan.target -> unit) -> unit
(** For the chain census ([Verlib.Chainscan]). *)

val shard_views : t -> (string * ((Verlib.Chainscan.target -> unit) -> unit)) list
(** Named per-partition census walkers ([Map_intf.MAP.shard_views]):
    singleton for monolithic structures, one per shard for [sharded-*]
    mounts — the server's per-shard [STATS] breakdown reads these. *)

val store : t -> Txn.Store.t
(** The mount's transactional facade (one per mount; every write goes
    through it). *)

val exec : t -> Protocol.command -> Protocol.reply
(** Execute one data command.  [Ping] answers [Pong]; [Stats], [Metrics] and [Quit] are
    connection-level and answered with [-ERR] here (the server
    intercepts them first), as is [Scan], which the server renders
    with {!render_scan}.  [Put]/[Del] route through the mount's
    {!Txn.Store} so they serialize with transactional commits.
    Structure exceptions are caught and surfaced as [-ERR internal:
    ...] so a bug cannot take the serving loop down. *)

val exec_txn : t -> token:int -> Protocol.command list -> Protocol.reply
(** Commit one MULTI/EXEC transaction: the queued commands execute as a
    single {!Txn.exec} (snapshot-consistent reads, buffered writes,
    validate-and-install commit).  Success is
    [Arr (Int versionstamp :: per-command replies)]; validation
    exhaustion is [Aborted n].  [token > 0] engages the exactly-once
    replay cache.  [validate]/[install] book to the current request
    span, nested inside whatever phase its caller has open. *)

val scan : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
(** The structure's snapshot fold ([Map_intf.MAP.scan]) over every
    binding. *)

val render_scan :
  t -> Buffer.t -> ?head:int * int -> limit:int -> unit -> unit
(** Render the structure's bindings, at most [limit] of them in fold
    order, as one flat array reply [*N :k1 :v1 ...] from one fold — the
    pairs staged in a per-domain buffer while they are counted, then
    the header and the staged bytes appended to the buffer — with no
    binding list or reply built.  The reply is as atomic as the
    structure's [scan] (one snapshot, or one fold under a read lock).
    [head] [(seq, stamp)] prepends two elements: the [SYNC] bootstrap
    payload (read the replication log's tail {e before} calling, so the
    fold is positioned at or past it).  [SCAN] is the headless form.
    Exactly one reply is appended even when an optimistic snapshot
    aborts and re-runs. *)

val scan_limit : int -> int
(** The bindings [SCAN limit] returns at most: [limit], with 0 meaning
    "all", capped at {!scan_limit_cap}. *)

val scan_limit_cap : int
(** Upper bound the server imposes on [SCAN] results (bindings), to
    bound reply size; [SCAN 0] means "all", capped here. *)
