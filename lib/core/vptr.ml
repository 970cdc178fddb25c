open Vtypes

type mode = Indirect | No_shortcut | Ind_on_need | Rec_once | Plain

let mode_name = function
  | Indirect -> "Indirect"
  | No_shortcut -> "NoShortcut"
  | Ind_on_need -> "IndOnNeed"
  | Rec_once -> "RecOnce"
  | Plain -> "Non-versioned"

let all_modes = [ Indirect; No_shortcut; Ind_on_need; Rec_once; Plain ]

type 'a desc = { meta_of : 'a -> 'a Vtypes.meta; dmode : mode }

let make_desc ~meta_of ~mode = { meta_of; dmode = mode }

let mode d = d.dmode

type 'a t = { head : 'a chain Atomic.t; d : 'a desc }

let desc t = t.d

(* Fault-injection sites (docs/RESILIENCE.md).  [stamp.set] fires
   between observing a TBD stamp and the CAS that resolves it — a pause
   there widens the TBD window so other threads must go through
   set-stamp helping (the non-idempotent helping of Theorem 6.2).
   [vptr.cas] fires just before the machine CAS on the head, and
   [vptr.install] while a new version (direct or indirect) is being
   built before publication. *)
let fp_stamp = Fault.Point.make "stamp.set"

let fp_cas = Fault.Point.make "vptr.cas"

let fp_install = Fault.Point.make "vptr.install"

let use_direct_stores = Atomic.make true

let set_direct_stores b = Atomic.set use_direct_stores b

let direct_stores () = Atomic.get use_direct_stores

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let claim_if_fresh d v =
  match v with
  | None -> ()
  | Some o ->
      let m = d.meta_of o in
      (* Initialisation is pre-publication, so a plain store suffices. *)
      if Atomic.get m.stamp = Stamp.tbd then Atomic.set m.stamp Stamp.zero

let make d v =
  match d.dmode with
  | Plain -> { head = Atomic.make (Cval v); d }
  | Indirect ->
      { head = Atomic.make (Clink (make_link ~stamp:Stamp.zero ~prev:(Cval None) v)); d }
  | No_shortcut | Ind_on_need | Rec_once ->
      claim_if_fresh d v;
      { head = Atomic.make (Cval v); d }

(* ------------------------------------------------------------------ *)
(* Set-stamp helping (§4): anyone who meets a TBD version at the head
   stamps it with the current clock.  Deliberately non-idempotent under
   helping (Theorem 6.2).                                              *)

let set_stamp_meta m =
  if Atomic.get m.stamp = Stamp.tbd then begin
    Fault.hit fp_stamp;
    ignore (Atomic.compare_and_set m.stamp Stamp.tbd (Stamp.read ()))
  end

let set_stamp d = function
  | Clink l -> set_stamp_meta l.lmeta
  | Cval (Some o) -> set_stamp_meta (d.meta_of o)
  | Cval None -> ()

(* ------------------------------------------------------------------ *)
(* Shortcutting (§5): splice out an indirect link as soon as no live or
   future snapshot can need the versions behind it.  Non-idempotent: it
   is a helping step, racing shortcutters converge on [l.ldirect].      *)

(* Bounded chain-length walk for the [Obs.chain_len] instrument; capped
   so a sampled observation can never turn into an O(history) scan. *)
let chain_len_cap = 64

let rec chain_length d c acc =
  if acc >= chain_len_cap then acc
  else
    match c with
    | Cval None -> acc
    | Cval (Some o) -> chain_length d (d.meta_of o).prev (acc + 1)
    | Clink l -> chain_length d l.lmeta.prev (acc + 1)

let shortcut t chain =
  match chain with
  | Cval _ -> ()
  | Clink l ->
      let s = Atomic.get l.lmeta.stamp in
      if s <> Stamp.tbd && s <= Done_stamp.get () then
        if Atomic.compare_and_set t.head chain l.ldirect then begin
          Stats.incr Stats.shortcuts;
          Obs.emit Obs.ev_shortcut s;
          if Obs.chain_sample () then
            Obs.Hist.observe Obs.chain_len (chain_length t.d chain 0);
          Flock.retire l
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
let truncate_meta d chain m =
  match m.prev with
  | Cval None -> ()
  | Cval (Some _) | Clink _ ->
      let s = Atomic.get m.stamp in
      if s <> Stamp.tbd && s <= Done_stamp.get () then begin
        (* Chain length is sampled *before* severing: it measures the
           history the truncation releases. *)
        if Obs.chain_sample () then
          Obs.Hist.observe Obs.chain_len (chain_length d chain 0);
        m.prev <- Cval None;
        Stats.incr Stats.truncations;
        Obs.emit Obs.ev_truncate s
      end

let truncate_chain d chain =
  match chain with
  | Clink l -> truncate_meta d chain l.lmeta
  | Cval (Some o) -> truncate_meta d chain (d.meta_of o)
  | Cval None -> ()

(* ------------------------------------------------------------------ *)
(* Snapshot reads: walk the version chain to the newest version whose
   stamp is at or before the snapshot stamp.  Equality triggers the
   optimistic-abort signal of Algorithm 7.                             *)

let accept s v =
  if s = Snapctx.local_stamp () then Snapctx.note_equal_stamp ();
  v

let rec read_snapshot d chain ts =
  match chain with
  | Cval None -> None (* initial null: implicit zero stamp *)
  | Cval (Some o as v) ->
      let m = d.meta_of o in
      let s = Atomic.get m.stamp in
      if s > ts then read_snapshot d m.prev ts else accept s v
  | Clink l ->
      let s = Atomic.get l.lmeta.stamp in
      if s > ts then read_snapshot d l.lmeta.prev ts else accept s l.lvalue

let load t =
  let head = Flock.Idem.get t.head in
  match t.d.dmode with
  | Plain -> chain_value head
  | Indirect | No_shortcut | Ind_on_need | Rec_once ->
      set_stamp t.d head;
      if t.d.dmode = Ind_on_need then begin
        shortcut t head;
        (* Helped loads truncate (and count) once per section; [head] is
           logged, so the claim position is the same for every helper. *)
        if Flock.Idem.claim () then truncate_chain t.d head
      end;
      let ts = Snapctx.local_stamp () in
      if ts = Snapctx.none then chain_value head else read_snapshot t.d head ts

(* ------------------------------------------------------------------ *)
(* The machine-level CAS on the head.  Inside a lock-free critical
   section this is the idempotent CAS of Theorem 6.1: a CAM followed by
   the "installed or stamped" test, which all helpers answer alike
   because they share the (idempotently allocated) new chain cell.      *)

let chain_stamp d = function
  | Clink l -> Atomic.get l.lmeta.stamp
  | Cval (Some o) -> Atomic.get (d.meta_of o).stamp
  | Cval None -> Stamp.zero

let primcas t old_chain new_chain =
  Fault.hit fp_cas;
  if Flock.Idem.in_frame () then begin
    ignore (Atomic.compare_and_set t.head old_chain new_chain);
    Atomic.get t.head == new_chain || chain_stamp t.d new_chain <> Stamp.tbd
  end
  else Atomic.compare_and_set t.head old_chain new_chain

(* Plain (non-versioned) mode has no stamps; its CAS inside critical
   sections is only used by structures that, like the paper's baselines,
   confine CAS to lock-free (lockless) code paths. *)
let plain_primcas t old_chain new_chain =
  if Flock.Idem.in_frame () then begin
    ignore (Atomic.compare_and_set t.head old_chain new_chain);
    Atomic.get t.head == new_chain
  end
  else Atomic.compare_and_set t.head old_chain new_chain

(* ------------------------------------------------------------------ *)
(* CAS (Algorithm 5 lines 39-61, plus Algorithm 4 for Indirect mode)   *)

let build_new_version t old new_v =
  Fault.hit fp_install;
  (* Decide whether this version needs an indirect link: always for null
     and for objects whose metadata is already claimed; never in Rec_once
     mode, whose contract promises fresh metadata. *)
  let indirect =
    match t.d.dmode with
    | Indirect -> true
    | Rec_once ->
        (* Fail fast on contract violations: re-recording a claimed object
           in this mode would silently corrupt version chains (possibly
           into cycles).  The check shares the cache line the direct
           install is about to write, so it costs next to nothing. *)
        (match new_v with
         | None -> invalid_arg "Vptr: Rec_once mode cannot store null"
         | Some o ->
             let s = Flock.Idem.get (t.d.meta_of o).stamp in
             if s <> Stamp.tbd then
               invalid_arg "Vptr: Rec_once mode: object recorded more than once");
        false
    | Plain -> assert false
    | No_shortcut | Ind_on_need -> (
        match new_v with
        | None -> true
        | Some o ->
            let s = Flock.Idem.get (t.d.meta_of o).stamp in
            s <> Stamp.tbd)
  in
  if indirect then begin
    (* Exactly once per critical section: the claim winner records the
       install; lagging helpers of the same section skip the counter and
       the event.  The [indirect] decision above is derived from logged
       reads, so every helper takes this branch and the claim point sits
       at the same log position for all of them. *)
    if Flock.Idem.claim () then begin
      Stats.incr Stats.indirect_created;
      Obs.emit Obs.ev_indirect_create 0
    end;
    Flock.Idem.once (fun () -> Clink (make_link ~stamp:Stamp.tbd ~prev:old new_v))
  end
  else begin
    if Flock.Idem.claim () then Stats.incr Stats.direct_installed;
    let o =
      match new_v with
      | Some o -> o
      | None -> invalid_arg "Vptr: Rec_once mode cannot store null"
    in
    (* Pre-publication write; lagging helpers rewrite the same value. *)
    (t.d.meta_of o).prev <- old;
    Flock.Idem.once (fun () -> Cval new_v)
  end

let is_link = function Clink _ -> true | Cval _ -> false

let cas t exp new_v =
  let old = Flock.Idem.get t.head in
  if opt_eq exp new_v then true
  else if not (opt_eq (chain_value old) exp) then false
  else if t.d.dmode = Plain then
    plain_primcas t old (Flock.Idem.once (fun () -> Cval new_v))
  else begin
    set_stamp t.d old;
    let new_chain = build_new_version t old new_v in
    let succeeded, overwrote_link =
      if primcas t old new_chain then (true, is_link old)
      else
        match old with
        | Clink l when t.d.dmode = Ind_on_need ->
            (* The failure may be a shortcut racing us: the value did not
               change, only its representation; retry against the direct
               cell (Algorithm 5 lines 50-52). *)
            (primcas t l.ldirect new_chain, false)
        | Clink _ | Cval _ -> (false, false)
    in
    if succeeded then begin
      set_stamp t.d new_chain;
      (* Once per critical section, not per helper: the claim winner
         performs the retire notice and the truncation; lagging helpers
         skip them.  All helpers agree on [succeeded] (the primcas
         evidence is stable) and on [old]/[new_chain] (logged), so the
         claim point is position-aligned.  [shortcut] needs no gate: its
         side effects are already CAS-gated on the head, so at most one
         thread — helper or not — can claim a given splice.
         [Stamp.on_update] stays per-helper by design: timestamp traffic
         is the deliberately non-idempotent part (Theorem 6.2). *)
      let winner = Flock.Idem.claim () in
      (match old with
       | Clink l when overwrote_link -> if winner then Flock.retire l
       | Clink _ | Cval _ -> ());
      if is_link new_chain && t.d.dmode = Ind_on_need then shortcut t new_chain;
      if winner then truncate_chain t.d old;
      Stamp.on_update ();
      true
    end
    else begin
      (* The section's shared new cell (idempotently allocated, so the
         same for every helper) is dead; retire it exactly once. *)
      (match new_chain with
       | Clink l -> if Flock.Idem.claim () then Flock.retire l
       | Cval _ -> ());
      set_stamp t.d (Atomic.get t.head);
      false
    end
  end

let store t v = ignore (cas t (load t) v)

(* Direct store (Algorithm 6, store_norace): valid without write-write
   races.  The only competing writers on the head are shortcutters (for
   an indirect current version) and lagging helpers of this same store,
   both of which the CAS-from-expected handles. *)
let store_norace t new_v =
  let old = Flock.Idem.get t.head in
  if t.d.dmode = Plain then begin
    let new_chain = Flock.Idem.once (fun () -> Cval new_v) in
    if Flock.Idem.in_frame () then ignore (Atomic.compare_and_set t.head old new_chain)
    else Atomic.set t.head new_chain
  end
  else begin
    set_stamp t.d old;
    let new_chain = build_new_version t old new_v in
    (* Claimed unconditionally (every helper reaches this point), then
       used to gate the per-section side effects below — see [cas]. *)
    let winner = Flock.Idem.claim () in
    (match old with
     | Clink l ->
         if primcas t old new_chain then (if winner then Flock.retire l)
         else ignore (Atomic.compare_and_set t.head l.ldirect new_chain)
     | Cval _ -> ignore (Atomic.compare_and_set t.head old new_chain));
    set_stamp t.d new_chain;
    if winner then truncate_chain t.d old;
    Stamp.on_update ();
    if is_link new_chain && t.d.dmode = Ind_on_need then shortcut t new_chain
  end

let store_locked t v =
  if Atomic.get use_direct_stores then store_norace t v else store t v

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let head_kind t =
  match Atomic.get t.head with
  | Clink _ -> `Indirect
  | Cval None -> `Nil
  | Cval (Some _) -> `Direct

(* Passive read for structure walkers (census roots): no set-stamp
   helping, no shortcutting, no snapshot semantics — observing must not
   perturb the mechanisms under observation. *)
let peek t = chain_value (Atomic.get t.head)

let unsafe_head t = Atomic.get t.head

let unsafe_meta_of t = t.d.meta_of

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

let rec walk d chain depth oldest =
  if depth >= diag_walk_cap then begin
    Atomic.incr walk_saturated;
    (depth, oldest)
  end
  else
    match chain with
    | Cval None -> (depth, oldest)
    | Cval (Some o) ->
        let m = d.meta_of o in
        let s = Atomic.get m.stamp in
        if s = Stamp.tbd || s > Stamp.zero then walk d m.prev (depth + 1) s
        else (depth + 1, s)
    | Clink l ->
        let s = Atomic.get l.lmeta.stamp in
        if s = Stamp.tbd || s > Stamp.zero then walk d l.lmeta.prev (depth + 1) s
        else (depth + 1, s)

let version_depth t =
  if t.d.dmode = Plain then 1 else fst (walk t.d (Atomic.get t.head) 0 Stamp.zero)

let oldest_reachable_stamp t =
  if t.d.dmode = Plain then Stamp.zero else snd (walk t.d (Atomic.get t.head) 0 Stamp.zero)

(* Raw diagnostic description of a pointer's version chain. *)
let unsafe_describe t =
  let b = Buffer.create 64 in
  let rec chain c depth =
    if depth > 6 then Buffer.add_string b " ..."
    else
      match c with
      | Cval None -> Buffer.add_string b " Cval-None"
      | Cval (Some o) ->
          let m = t.d.meta_of o in
          Buffer.add_string b (Printf.sprintf " Cval(s=%d)" (Atomic.get m.stamp));
          chain m.prev (depth + 1)
      | Clink l ->
          Buffer.add_string b
            (Printf.sprintf " Clink(s=%d,v=%s)" (Atomic.get l.lmeta.stamp)
               (match l.lvalue with None -> "nil" | Some _ -> "obj"));
          chain l.lmeta.prev (depth + 1)
  in
  chain (Atomic.get t.head) 0;
  Buffer.contents b
