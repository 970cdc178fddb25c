(** Version-chain census and invariant audit (the space half of
    verlib-obs).

    Walks the versioned pointers of a structure — passively: raw head
    reads, no set-stamp helping, no shortcutting — and produces a
    {!census}: the chain-length distribution, live vs. reclaimable
    version counts, outstanding indirect links, and shortcut
    effectiveness, together with an audit of the chain invariants the
    §4-§5 algorithms promise (non-increasing stamps, no buried TBD, no
    indirect link whose value is another link).

    Safe to run concurrently with mutators: chains are reached through
    atomic head reads and [prev] edges that are immutable after
    publication except for truncation, which only severs an edge — a
    racing census can under-count, never observe a corrupt chain.
    Audits are exact at quiescence.

    Violations are additionally emitted as [Obs.ev_census_violation]
    trace events, and each census as one [Obs.ev_census] event. *)

type target = Target : 'a Vptr.desc * 'a Vptr.t -> target
    (** One versioned pointer to scan with its structure's descriptor,
        element type hidden — what a structure's [iter_vptrs] emits. *)

(** {1 Audit violations} *)

type violation =
  | Unsorted of { newer : int; older : int; depth : int }
      (** stamp increased walking towards older versions *)
  | Buried_tbd of { depth : int }
      (** unresolved TBD stamp behind the head of a chain *)
  | Dangling_link of { stamp : int }
      (** indirect link whose value is itself a link *)

val violation_code : violation -> int
(** 1 = unsorted, 2 = buried TBD, 3 = dangling link (the
    [ev_census_violation] event argument). *)

val describe_violation : violation -> string

val max_violation_details : int
(** Cap on retained {!census.c_violations} details;
    {!census.c_violation_count} is exact regardless. *)

(** {1 The census} *)

type census = {
  c_pointers : int;  (** versioned pointers visited *)
  c_plain_pointers : int;  (** pointers in [Plain] (non-versioned) mode *)
  c_nil_heads : int;
  c_direct_heads : int;
  c_indirect_heads : int;
  c_tbd_heads : int;  (** heads whose stamp is still TBD (in-flight CAS) *)
  c_versions : int;  (** versions reachable over all chains *)
  c_live_versions : int;  (** heads, TBDs, and stamps above the done stamp *)
  c_reclaimable : int;  (** non-head versions at or below the done stamp *)
  c_indirect_links : int;  (** links anywhere in chains *)
  c_shortcutable : int;  (** indirect heads already at or below the done stamp *)
  c_max_chain : int;
  c_chain_hist : int array;  (** [Flock.Telemetry.Hist] bucket layout *)
  c_truncated_walks : int;  (** chains longer than the walk cap *)
  c_done_stamp : int;  (** the done stamp the audit was judged against *)
  c_clock : int;
  c_shortcuts : int;  (** [Stats.shortcuts] at census time *)
  c_indirect_created : int;  (** [Stats.indirect_created] at census time *)
  c_violations : violation list;  (** first {!max_violation_details} *)
  c_violation_count : int;  (** exact *)
}

val default_max_depth : int

val census_of_iter :
  ?max_depth:int -> ((target -> unit) -> unit) -> census
(** [census_of_iter iter] runs [iter emit] and scans every emitted
    target against one coherent done-stamp bound. *)

val census_of_targets : ?max_depth:int -> target list -> census

(** {1 Derived metrics} *)

val shortcut_ratio : census -> float
(** Links shortcut out per link created (1.0 when none were created) —
    the §5 effectiveness figure. *)

val chain_p50 : census -> int
(** Chain-length percentile as a bucket upper bound (within 2x). *)

val chain_p99 : census -> int

val percentile : census -> float -> int
