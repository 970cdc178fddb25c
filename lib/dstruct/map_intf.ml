(** Common interface of the concurrent maps used in the experiments.

    All maps go from [int] keys to [int] values (the paper uses 64-bit
    keys and values).  Every operation is safe to call from any domain.
    [range] and [multifind] are linearizable on structures built in a
    versioned mode; on [Plain] structures they are best-effort, exactly as
    in the paper's non-versioned baselines. *)

(** What multi-point queries a structure can serve — a typed capability
    rather than a bool, so consumers (the wire server, the benchmark
    harness, the tests) dispatch with an exhaustive match instead of
    guessing what [false] implied. *)
type range_capability =
  | Ordered_range
      (** Keys are ordered: [range] / [range_count] work (and are
          linearizable in versioned modes). *)
  | Unordered
      (** No key order: [range] raises [Invalid_argument]; multi-point
          reads go through [multifind] or the [scan] snapshot fold. *)

let range_capability_name = function
  | Ordered_range -> "ordered-range"
  | Unordered -> "unordered"

module type MAP = sig
  type t

  val name : string

  val create :
    ?mode:Verlib.Vptr.mode -> ?lock_mode:Flock.Lock.mode -> n_hint:int -> unit -> t
  (** [n_hint] sizes fixed parts (e.g. hash buckets).  [mode] defaults to
      [Ind_on_need], [lock_mode] to the Flock default. *)

  val insert : t -> int -> int -> bool
  (** [insert t k v] returns [false] if [k] was already present (no
      update occurs, as in the paper's workloads). *)

  val delete : t -> int -> bool

  val upsert : t -> int -> int -> bool
  (** [upsert t k v] binds [k] to [v] and returns whether [k] was
      already bound.  On btree, hashtable, arttree and vbst an
      overwrite is one swing of the cell that holds [k] (the same
      linearization point as an insert), coarse applies it under its
      write lock, and sharded routes it to its base's [upsert], so no
      snapshot ever sees [k] absent mid-upsert.
      dlist and skiplist compose [delete] then [insert] inside one
      epoch: that is {e not} atomic to snapshots, which may observe
      [k] unbound between the two swings. *)

  val find : t -> int -> int option

  val range : t -> int -> int -> (int * int) list
  (** [range t k1 k2]: all bindings with [k1 <= k <= k2], ascending. *)

  val range_count : t -> int -> int -> int
  (** Allocation-light [range] for benchmarks. *)

  val multifind : t -> int array -> int option array
  (** Atomic batch of finds. *)

  val scan : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
  (** Snapshot-consistent fold over every binding, in unspecified order —
      the multi-point read that works on {e every} structure, including
      unordered ones ([range_capability = Unordered]).  On versioned
      structures the whole fold runs against one atomic snapshot; on
      [Plain] baselines it is best-effort, like [range]. *)

  val size : t -> int

  val to_sorted_list : t -> (int * int) list

  val check : t -> unit
  (** Validate structural invariants; raises [Failure] on violation.
      Call at quiescence. *)

  val iter_vptrs : t -> (Verlib.Chainscan.target -> unit) -> unit
  (** Emit every versioned pointer currently reachable in the structure,
      for the {!Verlib.Chainscan} census.  The walk must be passive
      ([Verlib.Vptr.peek], never [load]) so observing does not perturb
      the shortcut/truncation mechanisms under observation.  Safe to run
      concurrently with mutators (may miss in-flight nodes); emits
      nothing on structures without versioned pointers. *)

  val shard_views : t -> (string * ((Verlib.Chainscan.target -> unit) -> unit)) list
  (** Named census walkers, one per independently meaningful partition
      of the structure.  Monolithic structures return a singleton
      [(name, iter_vptrs t)]; [Sharded] returns one view per shard
      ([shard-0], [shard-1], ...) so the server's [STATS] can expose a
      per-shard chain-census breakdown.  Same passivity contract as
      {!iter_vptrs}. *)

  val range_capability : range_capability

  val supports_mode : Verlib.Vptr.mode -> bool
end

(** Shared helper: linearizable multifind as a snapshot over finds, the
    way §8 implements multi-finds for all four structures. *)
let multifind_via_snapshot find t keys =
  Verlib.with_snapshot (fun () -> Array.map (fun k -> find t k) keys)

(** Shared helper: [upsert] as [delete] then [insert] inside one epoch,
    for structures whose nodes carry one key each and have no in-place
    value swing.  Two swings, so not atomic to snapshots; a racing
    insert between them is deleted and retried. *)
let upsert_via_delete_insert insert delete t k v =
  Flock.with_epoch (fun () ->
      let rec go present =
        if insert t k v then present else go (delete t k || present)
      in
      go (delete t k))

(** Shared helper: range via collecting fold. *)
let range_as_list fold_range t lo hi =
  List.rev (fold_range t lo hi ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

(** Shared helper: [scan] for ordered structures whose [fold_range] is
    already snapshot-wrapped — a whole-keyspace fold. *)
let scan_via_fold_range ?(lo = min_int) fold_range t ~init ~f =
  fold_range t lo max_int ~init ~f

(** Shared helper: the singleton {!MAP.shard_views} of a monolithic
    structure. *)
let single_shard_view name iter_vptrs t = [ (name, fun f -> iter_vptrs t f) ]

(** Shared helper: [scan] for unordered structures with a plain (racy)
    structural fold — wrapping it in one snapshot makes the whole walk
    atomic, the same construction as {!multifind_via_snapshot}. *)
let scan_via_snapshot fold t ~init ~f =
  Verlib.with_snapshot (fun () -> fold t ~init ~f)
