(** Versioned pointers — the paper's central abstraction.

    A ['a t] behaves like an atomic mutable location holding an ['a] — a
    pointer to a versioned object, or the structure's null sentinel — and
    additionally lets {!Snapshot.with_snapshot} readers observe the value
    the location held at their snapshot's timestamp.

    The location is the head atomic itself, and in the common case it
    holds the object directly: a load is one pointer chase.  Objects
    stored through versioned pointers must embed version metadata — the
    OCaml rendering of "inheriting [verlib::versioned]": give each object
    a [Vtypes.meta] field created with {!Vtypes.fresh_meta}.  The
    structure's node type also carries indirect versions as one more
    constructor ([Link of node Vtypes.link]) and has a null sentinel; it
    describes all of this once with {!make_desc} and passes that
    descriptor to every operation.  Links are the library's business:
    {!load} and {!peek} never return one, and callers never store one.

    The library restriction from §5 applies: after allocating an object, a
    pointer to it must first be published through a versioned pointer
    [store]/[cas]; no side channel may leak it to other threads earlier.

    Inside lock-free critical sections ({!Flock.Lock}) all operations are
    idempotence-aware: loads are logged, CAS follows the paper's Theorem
    6.1 construction, and timestamp accesses are deliberately
    non-idempotent (Theorem 6.2).  CAS compares objects physically; a
    re-stored object or a null is always installed through a fresh link,
    so a new version never equals an old head, and a shortcut that swings
    a link back to its object waits until no helper that could still CAS
    from that object's earlier turn at the head is running.  Snapshot {e reads} must
    not run inside critical sections (queries take no locks in all the
    paper's data structures). *)

type mode =
  | Indirect  (** baseline WBB+ (Algorithm 4): every version is a link *)
  | No_shortcut  (** indirection-on-need without shortcutting (ablation) *)
  | Ind_on_need  (** full §5 algorithm — the library default *)
  | Rec_once
      (** never indirect; sound only for recorded-once structures, like the
          WBB+ experiments *)
  | Plain
      (** non-versioned baseline; snapshot reads are not atomic.  It keeps
          no history and reads no clock, but installs like [Ind_on_need]:
          a fresh object directly, a re-stored object or a null through a
          link that loads later shortcut. *)

val mode_name : mode -> string

type 'a desc
(** Per-structure description: how to reach a version's metadata, how
    links and null are represented, and which mode the structure runs
    in. *)

val make_desc :
  meta_of:('a -> 'a Vtypes.meta) ->
  null:'a ->
  link:('a Vtypes.link -> 'a) ->
  link_of:('a -> 'a Vtypes.link) ->
  value_of:('a -> 'a) ->
  mode:mode ->
  'a desc
(** [make_desc ~meta_of ~null ~link ~link_of ~value_of ~mode]:
    - [meta_of v]: the metadata of a version — an object's embedded
      [meta], a link's [lmeta].  Never called on [null].
    - [null]: the sentinel a pointer holds instead of an object (a
      constant constructor of the node type).
    - [link l]: wraps a link as a node ([fun l -> Link l]).
    - [link_of v]: the inverse, only ever called on links
      ([function Link l -> l | _ -> assert false]).
    - [value_of v]: a link's [lvalue]; every other value itself.  "Is [v]
      a link" is [value_of v != v]. *)

val mode : 'a desc -> mode

val null : 'a desc -> 'a

type 'a t

val make : 'a desc -> 'a -> 'a t
(** Create a versioned pointer.  If the initial object's metadata is
    unclaimed it is claimed with the zero stamp; if it is already claimed
    the metadata is shared, which §5 shows is safe for initialisation. *)

val load : 'a desc -> 'a t -> 'a
(** Current value; inside [with_snapshot], the value as of the snapshot's
    stamp.  Constant time outside snapshots; inside, proportional to the
    number of concurrent updates to this location. *)

val cas : 'a desc -> 'a t -> 'a -> 'a -> bool
(** [cas d t expected v] — atomic compare-and-swap on the location,
    comparing values physically.  Linearizable even under helping
    (Theorem 6.1), given the discipline every structure here keeps: a
    location written inside critical sections is written only under its
    one lock.  (A CAS in a section that fails because a writer outside
    that lock moved the location could, after a re-store of the expected
    object and a shortcut, still succeed for a helper that joins the
    section late; a pointer tag would close that, and OCaml has none.) *)

val store : 'a desc -> 'a t -> 'a -> unit
(** [store d t v] = [cas d t (load d t) v] as in the paper: concurrent
    stores to the same location do not necessarily linearize. *)

val store_norace : 'a desc -> 'a t -> 'a -> unit
(** Direct store (Algorithm 6), valid only when the caller excludes
    write-write races, e.g. under a lock. *)

val store_locked : 'a desc -> 'a t -> 'a -> unit
(** [store_norace] or [store] according to {!set_direct_stores} — the
    switch behind the paper's "Direct Stores" ablation. *)

val set_direct_stores : bool -> unit

val direct_stores : unit -> bool

(** {2 Introspection (tests and experiments)} *)

val head_kind : 'a desc -> 'a t -> [ `Direct | `Indirect | `Nil ]

val peek : 'a desc -> 'a t -> 'a
(** Current value without any side effect: no set-stamp helping, no
    shortcutting, no snapshot semantics.  The passive read used by
    structure walkers ({!Chainscan} roots) that must not perturb the
    mechanisms they observe. *)

val unsafe_head : 'a t -> 'a
(** Raw head version (an object, a link or null), for {!Chainscan}'s
    census walk.  Racy by nature; see [Vtypes] for which fields are safe
    to read. *)

val is_link : 'a desc -> 'a -> bool

val version_meta : 'a desc -> 'a -> 'a Vtypes.meta
(** Metadata of a version; the null sentinel has a shared meta with the
    zero stamp and no predecessor. *)

val version_value : 'a desc -> 'a -> 'a
(** The value a version installs: a link's value, any other version
    itself. *)

val version_depth : 'a desc -> 'a t -> int
(** Number of versions currently reachable from the head (racy walk,
    capped at {!diag_walk_cap}; a capped result is counted by
    {!walk_saturation_count} and the [diag_walk_saturated] gauge). *)

val diag_walk_cap : int
(** Upper bound on the diagnostic chain walks above — a pinned snapshot
    can hold O(history) versions live, and a diagnostic must not turn
    into an O(history) stall. *)

val walk_saturation_count : unit -> int
(** How many diagnostic walks hit {!diag_walk_cap} since start
    (monotone; also exported as the [diag_walk_saturated] gauge). *)

