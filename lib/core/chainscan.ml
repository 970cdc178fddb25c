(* Version-chain census — the space-observability half of verlib-obs.

   The paper's space claims (§8, Figure 12) and the shortcutting
   argument (§4-§5) are about what version lists look like at runtime:
   how long chains get, how many indirect links are outstanding, and how
   quickly superseded versions become reclaimable once no snapshot can
   need them.  This module walks the versioned pointers of a
   structure and produces exactly that census, plus an audit of the
   invariants the algorithms promise:

   - stamps are non-increasing from the head towards older versions
     (equal stamps are legal: the clock need not move between updates);
   - no version behind the head is still TBD — set-stamp helping runs
     before a successor is published, so a buried TBD can only mean a
     lost stamp;
   - every indirect link's value is a value, not another link: a
     shortcut swings the head to the link's value, so a nested link
     would be published as if it were the location's object — the
     "shortcut leak" §5 rules out.

   The walk is deliberately passive (raw head reads, no set-stamp
   helping, no shortcutting) and safe to run concurrently with mutators:
   every chain edge is reached through an atomic head read followed by
   [prev] edges that are immutable after publication except for
   truncation, which only ever severs an edge to null.  A racing
   census may therefore see a shorter chain than a quiescent one, never
   a corrupt one. *)

type target = Target : 'a Vptr.desc * 'a Vptr.t -> target

type violation =
  | Unsorted of { newer : int; older : int; depth : int }
      (** stamp increased walking towards older versions *)
  | Buried_tbd of { depth : int }
      (** unresolved TBD stamp behind the head of a chain *)
  | Dangling_link of { stamp : int }
      (** indirect link whose value is itself a link *)

let violation_code = function
  | Unsorted _ -> 1
  | Buried_tbd _ -> 2
  | Dangling_link _ -> 3

let describe_violation = function
  | Unsorted { newer; older; depth } ->
      Printf.sprintf "unsorted chain: stamp %d behind stamp %d at depth %d" older
        newer depth
  | Buried_tbd { depth } -> Printf.sprintf "TBD stamp buried at depth %d" depth
  | Dangling_link { stamp } ->
      Printf.sprintf "indirect link (stamp %d) holds another link as its value" stamp

(* Details kept per census; the count is exact regardless. *)
let max_violation_details = 16

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

let nbuckets = Flock.Telemetry.Hist.nbuckets

(* Chains are bounded by updates concurrent with the oldest snapshot, but
   an audit must terminate even on a pathological chain; 65536 is far
   beyond anything a healthy run produces. *)
let default_max_depth = 65_536

let shortcut_ratio c =
  if c.c_indirect_created = 0 then 1.
  else Float.of_int c.c_shortcuts /. Float.of_int c.c_indirect_created

let percentile c q =
  let count = Array.fold_left ( + ) 0 c.c_chain_hist in
  if count = 0 then 0
  else begin
    let target = Float.to_int (Float.round (q *. Float.of_int count)) in
    let target = max 1 (min count target) in
    let res = ref 0 in
    let cum = ref 0 in
    (try
       for i = 0 to nbuckets - 1 do
         cum := !cum + c.c_chain_hist.(i);
         if !cum >= target then begin
           res := Flock.Telemetry.Hist.bucket_bound i;
           raise Exit
         end
       done
     with Exit -> ());
    !res
  end

let chain_p50 c = percentile c 0.50

let chain_p99 c = percentile c 0.99

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)

type acc = {
  mutable pointers : int;
  mutable plain_pointers : int;
  mutable nil_heads : int;
  mutable direct_heads : int;
  mutable indirect_heads : int;
  mutable tbd_heads : int;
  mutable versions : int;
  mutable live : int;
  mutable reclaimable : int;
  mutable links : int;
  mutable shortcutable : int;
  mutable max_chain : int;
  mutable truncated : int;
  hist : int array;
  mutable violations : violation list;
  mutable violation_count : int;
  mutable details_left : int;
}

let fresh_acc () =
  {
    pointers = 0;
    plain_pointers = 0;
    nil_heads = 0;
    direct_heads = 0;
    indirect_heads = 0;
    tbd_heads = 0;
    versions = 0;
    live = 0;
    reclaimable = 0;
    links = 0;
    shortcutable = 0;
    max_chain = 0;
    truncated = 0;
    hist = Array.make nbuckets 0;
    violations = [];
    violation_count = 0;
    details_left = max_violation_details;
  }

let record_violation acc v =
  acc.violation_count <- acc.violation_count + 1;
  if acc.details_left > 0 then begin
    acc.details_left <- acc.details_left - 1;
    acc.violations <- v :: acc.violations
  end;
  Obs.emit Obs.ev_census_violation (violation_code v)

(* Walk one chain from its head version, audit every element, and book
   the chain's length. *)
let scan_chain (type a) ~max_depth ~done_st (d : a Vptr.desc) (head : a) acc =
  (* head-kind accounting *)
  if Vptr.is_link d head then begin
    acc.indirect_heads <- acc.indirect_heads + 1;
    let s = Atomic.get (Vptr.version_meta d head).stamp in
    if s <> Stamp.tbd && s <= done_st then acc.shortcutable <- acc.shortcutable + 1
  end
  else if head == Vptr.null d then acc.nil_heads <- acc.nil_heads + 1
  else acc.direct_heads <- acc.direct_heads + 1;
  let rec go (v : a) depth prev_stamp =
    if depth >= max_depth then begin
      acc.truncated <- acc.truncated + 1;
      depth
    end
    else if v == Vptr.null d then depth
    else begin
      let m = Vptr.version_meta d v in
      let stamp = Atomic.get m.stamp in
      acc.versions <- acc.versions + 1;
      if Vptr.is_link d v then begin
        acc.links <- acc.links + 1;
        (* dangling-link audit: the value a shortcut would install must
           be the location's value, never another link *)
        if Vptr.is_link d (Vptr.version_value d v) then
          record_violation acc (Dangling_link { stamp })
      end;
      if stamp = Stamp.tbd then begin
        if depth = 0 then acc.tbd_heads <- acc.tbd_heads + 1
        else record_violation acc (Buried_tbd { depth });
        acc.live <- acc.live + 1
      end
      else begin
        (* sortedness: stamps must not increase walking towards older
           versions (equal is legal — the clock need not move between
           updates) *)
        (match prev_stamp with
         | Some ns when ns <> Stamp.tbd && stamp > ns ->
             record_violation acc (Unsorted { newer = ns; older = stamp; depth })
         | Some _ | None -> ());
        if depth > 0 && stamp <= done_st then
          acc.reclaimable <- acc.reclaimable + 1
        else acc.live <- acc.live + 1
      end;
      go m.prev (depth + 1) (Some stamp)
    end
  in
  let len = go head 0 None in
  acc.max_chain <- max acc.max_chain len;
  let b = Flock.Telemetry.Hist.bucket_of len in
  acc.hist.(b) <- acc.hist.(b) + 1

let scan_target ~max_depth ~done_st acc (Target (d, p)) =
  acc.pointers <- acc.pointers + 1;
  match Vptr.mode d with
  | Vptr.Plain ->
      (* Non-versioned baseline: one version by construction, no stamps
         to audit.  Counted separately so mixed censuses stay honest. *)
      acc.plain_pointers <- acc.plain_pointers + 1;
      (match Vptr.head_kind d p with
       | `Nil -> acc.nil_heads <- acc.nil_heads + 1
       | `Direct -> acc.direct_heads <- acc.direct_heads + 1
       | `Indirect -> acc.indirect_heads <- acc.indirect_heads + 1);
      acc.versions <- acc.versions + 1;
      acc.live <- acc.live + 1;
      acc.max_chain <- max acc.max_chain 1;
      let b = Flock.Telemetry.Hist.bucket_of 1 in
      acc.hist.(b) <- acc.hist.(b) + 1
  | Vptr.Indirect | Vptr.No_shortcut | Vptr.Ind_on_need | Vptr.Rec_once ->
      scan_chain ~max_depth ~done_st d (Vptr.unsafe_head p) acc

let census_of_iter ?(max_depth = default_max_depth) iter =
  (* One refresh up front: judging every chain against a single bound
     keeps the audit coherent (the bound only rises during the scan,
     and a lower bound is always sound for "reclaimable"). *)
  let done_st = Done_stamp.refresh () in
  let acc = fresh_acc () in
  iter (scan_target ~max_depth ~done_st acc);
  Obs.emit Obs.ev_census acc.versions;
  {
    c_pointers = acc.pointers;
    c_plain_pointers = acc.plain_pointers;
    c_nil_heads = acc.nil_heads;
    c_direct_heads = acc.direct_heads;
    c_indirect_heads = acc.indirect_heads;
    c_tbd_heads = acc.tbd_heads;
    c_versions = acc.versions;
    c_live_versions = acc.live;
    c_reclaimable = acc.reclaimable;
    c_indirect_links = acc.links;
    c_shortcutable = acc.shortcutable;
    c_max_chain = acc.max_chain;
    c_chain_hist = acc.hist;
    c_truncated_walks = acc.truncated;
    c_done_stamp = done_st;
    c_clock = Stamp.read ();
    c_shortcuts = Stats.total Stats.shortcuts;
    c_indirect_created = Stats.total Stats.indirect_created;
    c_violations = List.rev acc.violations;
    c_violation_count = acc.violation_count;
  }

let census_of_targets ?max_depth targets =
  census_of_iter ?max_depth (fun emit -> List.iter emit targets)
