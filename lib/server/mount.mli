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
    intercepts them first).  [Put]/[Del] route through the mount's
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

val dump : t -> (int * int) list
(** Uncapped snapshot of every binding — the [SYNC] bootstrap payload.
    Read the replication log's tail {e before} dumping so the snapshot
    is positioned at (or past) that tail. *)

val scan_limit_cap : int
(** Upper bound the server imposes on [SCAN] results (bindings), to
    bound reply size; [SCAN 0] means "all", capped here. *)
