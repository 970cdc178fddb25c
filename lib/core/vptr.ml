open Vtypes

type mode = Indirect | No_shortcut | Ind_on_need | Rec_once | Plain

let mode_name = function
  | Indirect -> "Indirect"
  | No_shortcut -> "NoShortcut"
  | Ind_on_need -> "IndOnNeed"
  | Rec_once -> "RecOnce"
  | Plain -> "Non-versioned"

type 'a desc = {
  meta_of : 'a -> 'a meta;
  value_of : 'a -> 'a;
  link : 'a link -> 'a;
  link_of : 'a -> 'a link;
  null : 'a;
  null_meta : 'a meta;
      (** The initial null's implicit zero stamp; its [prev] is null, so
          nothing ever writes it. *)
  dmode : mode;
}

let make_desc ~meta_of ~null ~link ~link_of ~value_of ~mode =
  {
    meta_of;
    value_of;
    link;
    link_of;
    null;
    null_meta = { stamp = Atomic.make Stamp.zero; prev = null };
    dmode = mode;
  }

let mode d = d.dmode

let null d = d.null

type 'a t = 'a Atomic.t

(* Metadata of any version the head or a [prev] edge can hold, the null
   sentinel included. *)
let meta d v = if v == d.null then d.null_meta else d.meta_of v

(* Fault-injection sites (docs/RESILIENCE.md).  [stamp.set] fires
   between observing a TBD stamp and the CAS that resolves it — a pause
   there widens the TBD window so other threads must go through
   set-stamp helping (the non-idempotent helping of Theorem 6.2).
   [vptr.cas] fires just before the machine CAS on the head,
   [vptr.cam] inside a critical section between the test that the new
   version is not yet installed and the machine CAS (the window a
   lagging helper's CAS sits in), and [vptr.install] while a new
   version (direct or indirect) is being built before publication. *)
let fp_stamp = Fault.Point.make "stamp.set"

let fp_cas = Fault.Point.make "vptr.cas"

let fp_cam = Fault.Point.make "vptr.cam"

let fp_install = Fault.Point.make "vptr.install"

let use_direct_stores = Atomic.make true

let set_direct_stores b = Atomic.set use_direct_stores b

let direct_stores () = Atomic.get use_direct_stores

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let make d v =
  match d.dmode with
  | Indirect -> Atomic.make (d.link (make_link ~stamp:Stamp.zero ~prev:d.null v))
  | Plain | No_shortcut | Ind_on_need | Rec_once ->
      (* If the initial object's metadata is unclaimed, claim it with the
         zero stamp (initialisation is pre-publication, so a plain store
         suffices); if claimed, share it (§5). *)
      (if v != d.null then
         let m = d.meta_of v in
         if Atomic.get m.stamp = Stamp.tbd then Atomic.set m.stamp Stamp.zero);
      Atomic.make v

(* ------------------------------------------------------------------ *)
(* Set-stamp helping (§4): anyone who meets a TBD version at the head
   stamps it with the current clock.  Deliberately non-idempotent under
   helping (Theorem 6.2).                                              *)

let resolve_tbd m =
  Fault.hit fp_stamp;
  ignore (Atomic.compare_and_set m.stamp Stamp.tbd (Stamp.read ()))

(* The test inline, the rare resolution out of line: every load pays the
   former. *)
let set_stamp_meta m = if Atomic.get m.stamp = Stamp.tbd then resolve_tbd m

(* Writers settle the version they supersede and the one they install.
   Plain mode keeps no history and reads no clock: its stamp only marks
   a version as installed (the zero stamp), which is what the indirection
   decision and the helpers' installed test below read. *)
let settle d m =
  if Atomic.get m.stamp = Stamp.tbd then
    if d.dmode = Plain then ignore (Atomic.compare_and_set m.stamp Stamp.tbd Stamp.zero)
    else resolve_tbd m

let versioned d = d.dmode <> Plain

(* The modes that splice links out: the full §5 algorithm, and Plain,
   whose links exist only to keep the head from repeating. *)
let shortcuts d = d.dmode = Ind_on_need || d.dmode = Plain

(* ------------------------------------------------------------------ *)
(* Shortcutting (§5): splice out an indirect link once no live or future
   snapshot can need the versions behind it, swinging the head to the
   link's value itself.  Non-idempotent: it is a helping step, and the
   CAS from the (unique) link lets exactly one shortcutter win.

   The swing is the one step that can give the head a value it held
   before, so it also waits out every thread that could still CAS from
   that earlier head: a lagging helper of a critical section that read
   its agreed new version's stamp as TBD and has not yet made its CAS
   (see [primcas]).  That stamp is set before anything supersedes the
   new version, so the link this swing removes (the new version itself,
   or a later one) had its stamp set after the helper's read, and the
   helper was inside an epoch by then ({!Flock.Lock.try_lock} keeps it
   in one until the thunk is done).  The link records the epoch the
   first time it is seen with its stamp set ([lepoch]), and the swing
   waits until every domain inside an epoch at that moment has left:
   the condition epoch-based reclamation frees memory under.  FLOCK
   closes the same window with a counter tagged onto the pointer, which
   OCaml cannot have.                                                  *)

(* Bounded chain-length walk for the [Obs.chain_len] instrument; capped
   so a sampled observation can never turn into an O(history) scan. *)
let chain_len_cap = 64

let rec chain_length d v acc =
  if acc >= chain_len_cap || v == d.null then acc
  else chain_length d (d.meta_of v).prev (acc + 1)

let shortcut d p link m =
  let s = Atomic.get m.stamp in
  if s <> Stamp.tbd then begin
    let l = d.link_of link in
    let e =
      if l.lepoch >= 0 then l.lepoch
      else begin
        let e = Flock.Epoch.current_epoch () in
        l.lepoch <- e;
        e
      end
    in
    if
      (d.dmode = Plain || s <= Done_stamp.get ())
      && Flock.Epoch.passed e
      && Atomic.compare_and_set p link l.lvalue
    then begin
      Stats.incr Stats.shortcuts;
      Obs.emit Obs.ev_shortcut s;
      if Obs.chain_sample () then
        Obs.Hist.observe Obs.chain_len (chain_length d link 0);
      Flock.retire link
    end
  end

(* Version-chain truncation — the GC analogue of the paper's epoch-based
   reclamation.  The C++ library Retires superseded versions and EBR frees
   them once no snapshot can need them, which physically severs the prev
   chain; under a tracing GC the chain itself keeps the history alive, so
   we sever it explicitly: once a version's stamp is at or below the done
   stamp, no ongoing or future snapshot can traverse past it (a reader
   reaching it has ts >= done >= stamp and accepts it), so its prev edge
   can be dropped.  Called by writers on the version they supersede, which
   bounds chain length by the number of updates concurrent with the oldest
   live snapshot — the same bound EBR gives the paper.

   Counter exactness: inside critical sections every call site gates this
   through [Flock.Idem.claim], so helpers cannot inflate [truncations].
   Outside frames two independent threads can still race [m.prev] (a
   plain mutable field) and both count one severing of the same edge; an
   atomic RMW on [prev] would close that sliver at a cost on every
   traversal, so it stays a documented margin of the counter, not of the
   mechanism (severing twice is idempotent). *)
let truncate_meta d v m =
  if m.prev != d.null then begin
    let s = Atomic.get m.stamp in
    if s <> Stamp.tbd && s <= Done_stamp.get () then begin
      (* Chain length is sampled *before* severing: it measures the
         history the truncation releases. *)
      if Obs.chain_sample () then Obs.Hist.observe Obs.chain_len (chain_length d v 0);
      m.prev <- d.null;
      Stats.incr Stats.truncations;
      Obs.emit Obs.ev_truncate s
    end
  end

(* ------------------------------------------------------------------ *)
(* Snapshot reads: walk the version chain to the newest version whose
   stamp is at or before the snapshot stamp.  Equality triggers the
   optimistic-abort signal of Algorithm 7.                             *)

let rec read_snapshot d c v ts =
  if v == d.null then v (* initial null: implicit zero stamp *)
  else
    let m = d.meta_of v in
    let s = Atomic.get m.stamp in
    if s > ts then read_snapshot d c m.prev ts
    else begin
      if s = ts then Snapctx.note_equal_in c;
      d.value_of v
    end

(* One frame-stack lookup and one snapshot-context lookup per load. *)
let load d p =
  let fs = Flock.Idem.frames () in
  let head = Flock.Idem.get_in fs p in
  let v = d.value_of head in
  match d.dmode with
  | Plain ->
      if v != head then shortcut d p head (d.meta_of head);
      v
  | Indirect | No_shortcut | Ind_on_need | Rec_once ->
      let m = meta d head in
      set_stamp_meta m;
      if d.dmode = Ind_on_need then begin
        if v != head then shortcut d p head m;
        (* Helped loads truncate (and count) once per section; [head] is
           logged, so the claim position is the same for every helper.
           Outside a frame the claim always succeeds, so a head with no
           predecessor left to sever skips it. *)
        if (m.prev != d.null || Flock.Idem.active fs) && Flock.Idem.claim_in fs then
          truncate_meta d head m
      end;
      let c = Snapctx.current () in
      let ts = Snapctx.stamp_of c in
      if ts = Snapctx.none then v else read_snapshot d c head ts

(* ------------------------------------------------------------------ *)
(* The machine-level CAS on the head.  Inside a lock-free critical
   section this is the idempotent CAS of Theorem 6.1: a CAM followed by
   the "installed or stamped" test, which all helpers answer alike
   because they share the agreed new version.  Every new version is
   fresh (an object whose stamp is still TBD, or a new link), and its
   stamp is set before anything supersedes it, so a set stamp proves the
   install happened: a helper that sees it skips its CAM.  A helper that
   passed the test before the stamp was set keeps its epoch, and the one
   step that can return the head to the value its CAM expects, a
   shortcut, waits for that epoch to pass (see [shortcut]).  The callers
   hit [vptr.cas] before the first attempt.                             *)

let primcas d fs p old nv =
  if Flock.Idem.active fs then begin
    let nm = d.meta_of nv in
    Atomic.get nm.stamp <> Stamp.tbd
    ||
    (Fault.hit fp_cam;
     ignore (Atomic.compare_and_set p old nv);
     Atomic.get p == nv || Atomic.get nm.stamp <> Stamp.tbd)
  end
  else Atomic.compare_and_set p old nv

(* ------------------------------------------------------------------ *)
(* CAS (Algorithm 5 lines 39-61, plus Algorithm 4 for Indirect mode)   *)

let build_new_version d fs old new_v =
  Fault.hit fp_install;
  (* Decide whether this version needs an indirect link: always for null
     and for objects whose metadata is already claimed; never in Rec_once
     mode, whose contract promises fresh metadata.  Plain mode decides
     like indirection-on-need: it keeps no history, but a re-stored
     object or a null must still not make the head equal an earlier
     head. *)
  let indirect =
    match d.dmode with
    | Indirect -> true
    | Rec_once ->
        (* Fail fast on contract violations: re-recording a claimed object
           in this mode would silently corrupt version chains (possibly
           into cycles).  The check shares the cache line the direct
           install is about to write, so it costs next to nothing. *)
        if new_v == d.null then invalid_arg "Vptr: Rec_once mode cannot store null";
        if Flock.Idem.get_in fs (d.meta_of new_v).stamp <> Stamp.tbd then
          invalid_arg "Vptr: Rec_once mode: object recorded more than once";
        false
    | Plain | No_shortcut | Ind_on_need ->
        new_v == d.null || Flock.Idem.get_in fs (d.meta_of new_v).stamp <> Stamp.tbd
  in
  (* Plain versions keep no predecessor. *)
  let prev = if versioned d then old else d.null in
  if indirect then begin
    (* Exactly once per critical section: the claim winner records the
       install; lagging helpers of the same section skip the counter and
       the event.  The [indirect] decision above is derived from logged
       reads, so every helper takes this branch and the claim point sits
       at the same log position for all of them. *)
    if Flock.Idem.claim_in fs then begin
      Stats.incr Stats.indirect_created;
      Obs.emit Obs.ev_indirect_create 0
    end;
    Flock.Idem.agree_in fs (d.link (make_link ~stamp:Stamp.tbd ~prev new_v))
  end
  else begin
    if Flock.Idem.claim_in fs then Stats.incr Stats.direct_installed;
    (* Pre-publication write on this helper's candidate; the candidate
       the helpers agree on had it written by the helper that published
       it.  Nothing is allocated: the object is the version. *)
    if versioned d then (d.meta_of new_v).prev <- old;
    Flock.Idem.agree_in fs new_v
  end

let cas d p exp new_v =
  let fs = Flock.Idem.frames () in
  let old = Flock.Idem.get_in fs p in
  let ov = d.value_of old in
  if exp == new_v then true
  else if ov != exp then false
  else begin
    let om = meta d old in
    settle d om;
    let nv = build_new_version d fs old new_v in
    let old_is_link = ov != old in
    Fault.hit fp_cas;
    let succeeded, overwrote_link =
      if primcas d fs p old nv then (true, old_is_link)
      else if old_is_link && shortcuts d then begin
        (* The failure may be a shortcut racing us: the value did not
           change, only its representation; retry against the value
           itself (Algorithm 5 lines 50-52). *)
        Fault.hit fp_cas;
        (primcas d fs p ov nv, false)
      end
      else (false, false)
    in
    if succeeded then begin
      let nm = d.meta_of nv in
      settle d nm;
      (* Once per critical section, not per helper: the claim winner
         performs the retire notice and the truncation; lagging helpers
         skip them.  All helpers agree on [succeeded] (the primcas
         evidence is stable) and on [old]/[nv] (logged), so the claim
         point is position-aligned.  [shortcut] needs no gate: its side
         effects are already CAS-gated on the head, so at most one thread
         — helper or not — can claim a given splice.  [Stamp.on_update]
         stays per-helper by design: timestamp traffic is the
         deliberately non-idempotent part (Theorem 6.2). *)
      let winner = Flock.Idem.claim_in fs in
      if overwrote_link && winner then Flock.retire old;
      if shortcuts d && d.value_of nv != nv then shortcut d p nv nm;
      if winner then truncate_meta d old om;
      if versioned d then Stamp.on_update ();
      true
    end
    else begin
      (* The section's agreed new link (the same for every helper) is
         dead; retire it exactly once. *)
      if d.value_of nv != nv && Flock.Idem.claim_in fs then Flock.retire nv;
      settle d (meta d (Atomic.get p));
      false
    end
  end

let store d p v = ignore (cas d p (load d p) v)

(* Direct store (Algorithm 6, store_norace): valid without write-write
   races.  The only competing writers on the head are shortcutters (for
   an indirect current version) and lagging helpers of this same store,
   both of which the CAS-from-expected handles. *)
let store_norace d p new_v =
  let fs = Flock.Idem.frames () in
  let old = Flock.Idem.get_in fs p in
  let om = meta d old in
  settle d om;
  let nv = build_new_version d fs old new_v in
  (* Claimed unconditionally (every helper reaches this point), then
     used to gate the per-section side effects below — see [cas]. *)
  let winner = Flock.Idem.claim_in fs in
  let ov = d.value_of old in
  if ov != old then begin
    Fault.hit fp_cas;
    if primcas d fs p old nv then (if winner then Flock.retire old)
    else ignore (primcas d fs p ov nv)
  end
  else ignore (primcas d fs p old nv);
  let nm = d.meta_of nv in
  settle d nm;
  if winner then truncate_meta d old om;
  if versioned d then Stamp.on_update ();
  if shortcuts d && d.value_of nv != nv then shortcut d p nv nm

let store_locked d p v =
  if Atomic.get use_direct_stores then store_norace d p v else store d p v

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let is_link d v = d.value_of v != v

let head_kind d p =
  let h = Atomic.get p in
  if is_link d h then `Indirect else if h == d.null then `Nil else `Direct

(* Passive read for structure walkers (census roots): no set-stamp
   helping, no shortcutting, no snapshot semantics — observing must not
   perturb the mechanisms under observation. *)
let peek d p = d.value_of (Atomic.get p)

let unsafe_head p = Atomic.get p

let version_meta = meta

let version_value d v = d.value_of v

(* Diagnostic chain walks are capped like [chain_length]: a pinned
   snapshot can hold O(history) versions live, and an uncapped walk
   would turn a probe into an O(history) stall.  The cap is far above
   any healthy chain (these are test/experiment probes, not hot-path
   instruments); hitting it is reported through the [walk_saturations]
   counter and the [diag_walk_saturated] gauge so a truncated reading is
   never mistaken for a short chain. *)
let diag_walk_cap = 1024

let walk_saturated = Atomic.make 0

let walk_saturation_count () = Atomic.get walk_saturated

let (_ : Flock.Telemetry.Gauge.t) =
  Flock.Telemetry.Gauge.make "diag_walk_saturated" walk_saturation_count

let rec walk d v depth =
  if depth >= diag_walk_cap then begin
    Atomic.incr walk_saturated;
    depth
  end
  else if v == d.null then depth
  else
    let m = d.meta_of v in
    let s = Atomic.get m.stamp in
    if s = Stamp.tbd || s > Stamp.zero then walk d m.prev (depth + 1)
    else depth + 1

let version_depth d p =
  if d.dmode = Plain then 1 else walk d (Atomic.get p) 0
