(* Tests for the Verlib core: timestamp schemes, versioned pointers in all
   modes, snapshot reads, shortcutting, idempotent CAS, and the done
   stamp. *)

module V = Verlib

type obj = Obj of { v : int; meta : obj V.Vtypes.meta } | Link of obj V.Vtypes.link | Null

let mk v = Obj { v; meta = V.Vtypes.fresh_meta Null }

let meta_of = function
  | Obj o -> o.meta
  | Link l -> l.lmeta
  | Null -> invalid_arg "null has no metadata"

let desc mode =
  V.Vptr.make_desc ~meta_of ~null:Null
    ~link:(fun l -> Link l)
    ~link_of:(function Link l -> l | _ -> invalid_arg "not a link")
    ~value_of:(function Link l -> l.lvalue | o -> o)
    ~mode

let value_of = function
  | Obj o -> Some o.v
  | Null -> None
  | Link _ -> Alcotest.fail "a load returned a link"

let reset ?(scheme = V.Stamp.Query_ts) () = V.reset ~scheme ()

(* Read the pointer as a snapshot at stamp [ts] would.  Announces the
   stamp first, as the library protocol requires. *)
let load_at d p ts =
  V.Done_stamp.announce ts;
  V.Snapctx.set_local_stamp ts;
  let r = V.Vptr.load d p in
  V.Snapctx.clear_local_stamp ();
  V.Done_stamp.withdraw ();
  r

(* --- Stamp ------------------------------------------------------------ *)

let test_query_ts () =
  reset ();
  let s1 = V.Stamp.take () in
  let s2 = V.Stamp.take () in
  Alcotest.(check bool) "query stamps increase" true (s2 > s1);
  Alcotest.(check bool) "read sees advanced clock" true (V.Stamp.read () > s2)

let test_update_ts () =
  reset ~scheme:V.Stamp.Update_ts ();
  let s1 = V.Stamp.take () in
  let s2 = V.Stamp.take () in
  Alcotest.(check int) "queries do not advance" s1 s2;
  V.Stamp.on_update ();
  Alcotest.(check bool) "updates advance" true (V.Stamp.take () > s2)

let test_hw_ts () =
  reset ~scheme:V.Stamp.Hw_ts ();
  let s1 = V.Stamp.take () in
  let s2 = V.Stamp.take () in
  Alcotest.(check bool) "hardware clock monotone" true (s2 >= s1);
  Alcotest.(check bool) "positive" true (s1 > V.Stamp.zero)

let test_no_stamp () =
  reset ~scheme:V.Stamp.No_stamp ();
  let s1 = V.Stamp.take () in
  V.Stamp.on_update ();
  let s2 = V.Stamp.take () in
  Alcotest.(check int) "clock frozen" s1 s2

let test_tl2_ts () =
  reset ~scheme:V.Stamp.Tl2_ts ();
  let s1 = V.Stamp.take () in
  let s2 = V.Stamp.take () in
  Alcotest.(check bool) "tl2 stamps non-decreasing" true (s2 >= s1)

(* --- Vptr basics (parameterised over versioned modes) ----------------- *)

let versioned_modes = V.Vptr.[ Indirect; No_shortcut; Ind_on_need; Rec_once ]

let test_load_store_cas mode () =
  reset ();
  let d = desc mode in
  let a = mk 1 and b = mk 2 in
  let p = V.Vptr.make d a in
  Alcotest.(check (option int)) "initial" (Some 1) (value_of (V.Vptr.load d p));
  Alcotest.(check bool) "cas wrong expected fails" false (V.Vptr.cas d p Null b);
  Alcotest.(check bool) "cas succeeds" true (V.Vptr.cas d p a b);
  Alcotest.(check (option int)) "after cas" (Some 2) (value_of (V.Vptr.load d p));
  Alcotest.(check bool) "stale cas fails" false (V.Vptr.cas d p a (mk 3));
  Alcotest.(check (option int)) "unchanged" (Some 2) (value_of (V.Vptr.load d p))

let test_null_handling mode () =
  reset ();
  if mode = V.Vptr.Rec_once then () (* RecOnce does not support null stores *)
  else begin
    let d = desc mode in
    let p = V.Vptr.make d Null in
    Alcotest.(check (option int)) "initial nil" None (value_of (V.Vptr.load d p));
    let a = mk 7 in
    Alcotest.(check bool) "cas from nil" true (V.Vptr.cas d p Null a);
    Alcotest.(check (option int)) "non-nil" (Some 7) (value_of (V.Vptr.load d p));
    V.Vptr.store d p Null;
    Alcotest.(check (option int)) "store nil" None (value_of (V.Vptr.load d p))
  end

let test_noop_cas mode () =
  reset ();
  let d = desc mode in
  let a = mk 1 in
  let p = V.Vptr.make d a in
  let depth = V.Vptr.version_depth d p in
  Alcotest.(check bool) "cas to same value succeeds" true (V.Vptr.cas d p a a);
  Alcotest.(check int) "no version added" depth (V.Vptr.version_depth d p)

(* --- Indirection decisions -------------------------------------------- *)

let test_fresh_object_direct () =
  reset ();
  let d = desc V.Vptr.Ind_on_need in
  let p = V.Vptr.make d (mk 1) in
  Alcotest.(check bool) "fresh install is direct" true
    (V.Vptr.cas d p (V.Vptr.load d p) (mk 2));
  (match V.Vptr.head_kind d p with
   | `Direct -> ()
   | `Indirect | `Nil -> Alcotest.fail "expected direct head for fresh object")

(* Two inputs reach an already-claimed object.  [`Shared]: the object
   was claimed by another pointer's initialisation (Figure 1's sharing
   problem).  [`Aba]: the same pointer goes A -> B -> A.  Either way the
   re-install must be a link, and for A -> B -> A that link is what keeps
   the head from ever equalling an earlier head: a snapshot taken while B
   was current still reads B, and a lagging replay of the A -> B section
   (whose machine CAS expects the pre-B head) must not install B again —
   not even after the link is shortcut back to A itself. *)
let test_reused_object_indirect ?(input = `Shared) ?(mode = V.Vptr.No_shortcut) () =
  reset ();
  let d = desc mode in
  let a = mk 1 and b = mk 2 in
  match input with
  | `Shared ->
      (* Pin the done stamp low so the shortcut cannot hide the link. *)
      V.Done_stamp.announce (V.Stamp.read ());
      let p = V.Vptr.make d a in
      let q = V.Vptr.make d b in
      ignore q;
      (* [b] was claimed by [q]'s initialisation, so swinging [p] to it
         needs indirection. *)
      Alcotest.(check bool) "cas to claimed object" true (V.Vptr.cas d p a b);
      (match V.Vptr.head_kind d p with
       | `Indirect -> ()
       | `Direct | `Nil -> Alcotest.fail "expected indirect head for reused object");
      V.Done_stamp.withdraw ()
  | `Aba when mode = V.Vptr.Rec_once ->
      (* recorded-once mode refuses the re-install outright *)
      let p = V.Vptr.make d a in
      Alcotest.(check bool) "A -> B" true (V.Vptr.cas d p a b);
      Alcotest.check_raises "B -> A is a second recording of A"
        (Invalid_argument "Vptr: Rec_once mode: object recorded more than once")
        (fun () -> ignore (V.Vptr.cas d p b a))
  | `Aba ->
      let p = V.Vptr.make d a in
      let section = Flock.Idem.create_log () in
      let replay_a_to_b () =
        Flock.Idem.enter section;
        let r = V.Vptr.cas d p a b in
        Flock.Idem.exit ();
        r
      in
      Alcotest.(check bool) "A -> B" true (replay_a_to_b ());
      (* a snapshot opened while B is current *)
      let ts = V.Stamp.take () in
      V.Done_stamp.announce ts;
      let links = V.Stats.total V.Stats.indirect_created in
      Alcotest.(check bool) "B -> A" true (V.Vptr.cas d p b a);
      (match V.Vptr.head_kind d p with
       | `Indirect -> ()
       | `Direct | `Nil -> Alcotest.fail "re-install of A must be a link");
      Alcotest.(check int) "the re-install is counted as a link" (links + 1)
        (V.Stats.total V.Stats.indirect_created);
      Alcotest.(check (option int)) "snapshot from B's time reads B" (Some 2)
        (value_of (load_at d p ts));
      Alcotest.(check bool) "lagging replay reports the original success" true
        (replay_a_to_b ());
      Alcotest.(check (option int)) "replay did not install B again" (Some 1)
        (value_of (V.Vptr.load d p));
      V.Done_stamp.withdraw ();
      (* with the snapshot gone the link may be shortcut, putting A itself
         back at the head; the replay must still not fire *)
      for _ = 1 to 64 do
        ignore (V.Vptr.load d p)
      done;
      if mode = V.Vptr.Ind_on_need then
        (match V.Vptr.head_kind d p with
         | `Direct -> ()
         | `Indirect | `Nil -> Alcotest.fail "link should have been shortcut");
      Alcotest.(check bool) "replay after the shortcut" true (replay_a_to_b ());
      Alcotest.(check (option int)) "A stays" (Some 1) (value_of (V.Vptr.load d p))

(* The same A -> B -> A schedule with the lagging helper caught inside
   its window: a real lock-free section storing B is helped by a domain
   that the [vptr.cam] fault point parks after its installed test found
   B's stamp TBD and before its machine CAS.  The section is then
   finished by another helper, A comes back through a link, and loads
   try to shortcut that link, which would put A itself back at the head
   under the parked CAS.  The shortcut must wait for the parked helper's
   epoch, so when it resumes B is not installed again. *)
let wait_until ?(timeout = 5.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    pred ()
    || (Unix.gettimeofday () -. t0 < timeout && (Unix.sleepf 0.002; go ()))
  in
  go ()

let test_paused_replay_across_shortcut mode () =
  reset ();
  let d = desc mode in
  let a = mk 1 and b = mk 2 in
  let p = V.Vptr.make d a in
  let lock = Flock.Lock.create ~mode:Flock.Lock.Lock_free () in
  let section () = V.Vptr.store_norace d p b in
  let stall point = { Fault.r_point = point; r_trigger = Fault.Once; r_action = Fault.Stall_forever } in
  Fault.arm (Fault.plan [ stall "lock.acquire"; stall "vptr.cam" ]);
  Fun.protect ~finally:Fault.disarm (fun () ->
      (* the owner wins the lock and is parked before running the section *)
      let owner = Domain.spawn (fun () -> ignore (Flock.Lock.try_lock lock section)) in
      Alcotest.(check bool) "owner parked" true (wait_until (fun () -> Fault.stalled_now () = 1));
      (* a helper runs the section and is parked before its CAS *)
      let helper = Domain.spawn (fun () -> ignore (Flock.Lock.try_lock lock section)) in
      Alcotest.(check bool) "helper parked in the CAS window" true
        (wait_until (fun () -> Fault.stalled_now () = 2));
      (* this domain helps the section to completion *)
      ignore (Flock.Lock.try_lock lock section);
      Alcotest.(check (option int)) "A -> B" (Some 2) (value_of (V.Vptr.load d p));
      V.Vptr.store_norace d p a;
      Alcotest.(check bool) "B -> A through a link" true (V.Vptr.head_kind d p = `Indirect);
      for _ = 1 to 64 do
        ignore (V.Vptr.load d p);
        Flock.with_epoch ignore
      done;
      Alcotest.(check bool) "the link stays while the helper is parked" true
        (V.Vptr.head_kind d p = `Indirect);
      Fault.disarm ();
      Domain.join helper;
      Domain.join owner;
      Alcotest.(check (option int)) "the resumed helper did not install B" (Some 1)
        (value_of (V.Vptr.load d p));
      for _ = 1 to 64 do
        ignore (V.Vptr.load d p)
      done;
      if mode = V.Vptr.Ind_on_need || mode = V.Vptr.Plain then
        Alcotest.(check bool) "shortcut once the helper is gone" true
          (V.Vptr.head_kind d p = `Direct);
      Alcotest.(check (option int)) "A stays" (Some 1) (value_of (V.Vptr.load d p)))

let test_initialisation_shares_meta () =
  reset ();
  let d = desc V.Vptr.Ind_on_need in
  let a = mk 1 in
  let p = V.Vptr.make d a in
  ignore p;
  (* initialising a second pointer to the same (claimed) object must stay
     direct: it is the oldest version of the new pointer's list (§5) *)
  let q = V.Vptr.make d a in
  (match V.Vptr.head_kind d q with
   | `Direct -> ()
   | `Indirect | `Nil -> Alcotest.fail "init should share metadata directly");
  Alcotest.(check (option int)) "value readable" (Some 1) (value_of (V.Vptr.load d q))

let test_shortcut_removes_indirection () =
  reset ();
  let d = desc V.Vptr.Ind_on_need in
  let a = mk 1 and b = mk 2 in
  let p = V.Vptr.make d a in
  let q = V.Vptr.make d b in
  ignore q;
  Alcotest.(check bool) "cas ok" true (V.Vptr.cas d p a b);
  (* no snapshot is active, so loads shortcut the link out promptly (the
     done-stamp cache refreshes within a bounded number of calls) *)
  for _ = 1 to 64 do
    ignore (V.Vptr.load d p)
  done;
  (match V.Vptr.head_kind d p with
   | `Direct -> ()
   | `Indirect -> Alcotest.fail "link should have been shortcut"
   | `Nil -> Alcotest.fail "unexpected nil");
  Alcotest.(check (option int)) "value survives shortcut" (Some 2)
    (value_of (V.Vptr.load d p))

let test_no_shortcut_mode_keeps_link () =
  reset ();
  let d = desc V.Vptr.No_shortcut in
  let a = mk 1 and b = mk 2 in
  let p = V.Vptr.make d a in
  let q = V.Vptr.make d b in
  ignore q;
  Alcotest.(check bool) "cas ok" true (V.Vptr.cas d p a b);
  ignore (V.Vptr.load d p);
  (match V.Vptr.head_kind d p with
   | `Indirect -> ()
   | `Direct | `Nil -> Alcotest.fail "NoShortcut must keep the link")

let test_shortcut_blocked_by_snapshot () =
  reset ();
  let d = desc V.Vptr.Ind_on_need in
  let a = mk 1 and b = mk 2 in
  let p = V.Vptr.make d a in
  let q = V.Vptr.make d b in
  ignore q;
  (* an ongoing snapshot pins the done stamp below the link's stamp *)
  let ts = V.Stamp.take () in
  V.Done_stamp.announce ts;
  Alcotest.(check bool) "cas ok" true (V.Vptr.cas d p a b);
  ignore (V.Vptr.load d p);
  (match V.Vptr.head_kind d p with
   | `Indirect -> ()
   | `Direct | `Nil -> Alcotest.fail "shortcut must wait for the snapshot");
  V.Done_stamp.withdraw ();
  (* after the snapshot retires, loads clean it up (cache refresh lag is
     bounded by the refresh interval, so poke it a few times) *)
  for _ = 1 to 64 do
    ignore (V.Vptr.load d p)
  done;
  (match V.Vptr.head_kind d p with
   | `Direct -> ()
   | `Indirect -> Alcotest.fail "link should be shortcut after snapshot ends"
   | `Nil -> Alcotest.fail "unexpected nil")

(* --- Snapshot reads ---------------------------------------------------- *)

let test_snapshot_reads_history mode () =
  reset ();
  (* Pin history: announce the current stamp as an ongoing snapshot so
     shortcutting cannot splice away versions the test reads back. *)
  let pin = V.Stamp.read () in
  V.Done_stamp.announce pin;
  let d = desc mode in
  let p = V.Vptr.make d (mk 0) in
  let n = 10 in
  let stamps =
    List.init n (fun i ->
        let ts = V.Stamp.take () in
        let prev = V.Vptr.load d p in
        Alcotest.(check bool) "update ok" true (V.Vptr.cas d p prev (mk (i + 1)));
        ts)
  in
  V.Done_stamp.withdraw ();
  List.iteri
    (fun i ts ->
      Alcotest.(check (option int))
        (Printf.sprintf "state before update %d" (i + 1))
        (Some i)
        (value_of (load_at d p ts)))
    stamps;
  Alcotest.(check (option int)) "current state" (Some n) (value_of (V.Vptr.load d p))

let test_with_snapshot_basic () =
  reset ();
  let d = desc V.Vptr.Ind_on_need in
  let p = V.Vptr.make d (mk 1) in
  let r = V.with_snapshot (fun () -> value_of (V.Vptr.load d p)) in
  Alcotest.(check (option int)) "snapshot sees current" (Some 1) r

let test_with_snapshot_nested () =
  reset ();
  let d = desc V.Vptr.Ind_on_need in
  let p = V.Vptr.make d (mk 1) in
  let r =
    V.with_snapshot (fun () ->
        let outer = V.Snapshot.current_stamp () in
        V.with_snapshot (fun () ->
            Alcotest.(check (option int)) "inner shares stamp" outer
              (V.Snapshot.current_stamp ());
            value_of (V.Vptr.load d p)))
  in
  Alcotest.(check (option int)) "nested result" (Some 1) r

let test_optimistic_abort_and_rerun () =
  reset ~scheme:V.Stamp.Opt_ts ();
  let d = desc V.Vptr.Ind_on_need in
  let p = V.Vptr.make d (mk 1) in
  (* Under OptTS the clock never moves on updates, so this fresh version
     carries a stamp equal to the clock — precisely the equal-stamp case
     that must abort an optimistic snapshot. *)
  V.Vptr.store d p (mk 2);
  let before = V.Stats.total V.Stats.snapshot_aborts in
  let runs = ref 0 in
  let r =
    V.with_snapshot (fun () ->
        incr runs;
        value_of (V.Vptr.load d p))
  in
  Alcotest.(check (option int)) "result correct" (Some 2) r;
  Alcotest.(check int) "ran twice" 2 !runs;
  Alcotest.(check int) "abort counted" (before + 1)
    (V.Stats.total V.Stats.snapshot_aborts);
  (* the re-run bumped the clock past our stamp, so a second snapshot of
     the same state runs once *)
  let runs2 = ref 0 in
  ignore (V.with_snapshot (fun () -> incr runs2; V.Vptr.load d p));
  Alcotest.(check int) "second snapshot optimistic pass" 1 !runs2

let test_check_abort_early_exit () =
  reset ~scheme:V.Stamp.Opt_ts ();
  let d = desc V.Vptr.Ind_on_need in
  let p = V.Vptr.make d (mk 1) in
  V.Vptr.store d p (mk 2);
  let reached_tail = ref 0 in
  let r =
    V.with_snapshot (fun () ->
        let v = value_of (V.Vptr.load d p) in
        V.Snapshot.check_abort ();
        incr reached_tail;
        v)
  in
  Alcotest.(check (option int)) "result" (Some 2) r;
  Alcotest.(check int) "first pass exited early" 1 !reached_tail

(* --- Idempotent CAS under replay (Theorem 6.1) ------------------------- *)

let test_cas_replay_consistent () =
  reset ();
  let d = desc V.Vptr.Ind_on_need in
  let a = mk 1 and b = mk 2 in
  let p = V.Vptr.make d a in
  let log = Flock.Idem.create_log () in
  Flock.Idem.enter log;
  let r1 = V.Vptr.cas d p a b in
  Flock.Idem.exit ();
  Alcotest.(check bool) "first run succeeds" true r1;
  let depth = V.Vptr.version_depth d p in
  Flock.Idem.enter log;
  let r2 = V.Vptr.cas d p a b in
  Flock.Idem.exit ();
  Alcotest.(check bool) "replay reports the same success" true r2;
  Alcotest.(check int) "replay installs nothing new" depth (V.Vptr.version_depth d p);
  Alcotest.(check (option int)) "value" (Some 2) (value_of (V.Vptr.load d p))

let test_cas_replay_after_subsequent_update () =
  reset ();
  let d = desc V.Vptr.Ind_on_need in
  let a = mk 1 and b = mk 2 and c = mk 3 in
  let p = V.Vptr.make d a in
  let log = Flock.Idem.create_log () in
  Flock.Idem.enter log;
  let r1 = V.Vptr.cas d p a b in
  Flock.Idem.exit ();
  Alcotest.(check bool) "first run succeeds" true r1;
  (* the location moves on… *)
  Alcotest.(check bool) "subsequent cas" true (V.Vptr.cas d p b c);
  (* …and a lagging helper replays the original critical section *)
  Flock.Idem.enter log;
  let r2 = V.Vptr.cas d p a b in
  Flock.Idem.exit ();
  Alcotest.(check bool) "lagging replay still reports success" true r2;
  Alcotest.(check (option int)) "later update not clobbered" (Some 3)
    (value_of (V.Vptr.load d p))

let test_store_norace_replay () =
  reset ();
  let d = desc V.Vptr.Ind_on_need in
  let p = V.Vptr.make d (mk 1) in
  let b = mk 2 and c = mk 3 in
  let log = Flock.Idem.create_log () in
  Flock.Idem.enter log;
  V.Vptr.store_norace d p b;
  Flock.Idem.exit ();
  V.Vptr.store_norace d p c;
  Flock.Idem.enter log;
  V.Vptr.store_norace d p b;
  Flock.Idem.exit ();
  Alcotest.(check (option int)) "lagging norace store is inert" (Some 3)
    (value_of (V.Vptr.load d p))

(* Regression: the side-effect counters inside critical sections must be
   {e exact} under helping, not merely approximate.  Every helper replays
   the same section with the same Idem log, so the gauge-bearing effects
   (indirect links created, retirements, truncations) are gated through
   {!Flock.Idem.claim} — exactly one pass per log position wins.  Before
   that gate, each replay re-incremented the counters, which skewed the
   reclamation gauges the observability layer exports. *)
let test_helping_counters_exact () =
  reset ();
  let d = desc V.Vptr.Indirect in
  let a = mk 1 and b = mk 2 and c = mk 3 in
  let p = V.Vptr.make d a in
  (* one committed update so the head is an indirect link: the section
     under test then both creates a link and retires the old one *)
  Alcotest.(check bool) "setup cas" true (V.Vptr.cas d p a b);
  let log = Flock.Idem.create_log () in
  Flock.Idem.enter log;
  let r1 = V.Vptr.cas d p b c in
  Flock.Idem.exit ();
  Alcotest.(check bool) "section succeeds" true r1;
  let ind = V.Stats.total V.Stats.indirect_created in
  let ret = Flock.Lock.retire_count () in
  let trunc = V.Stats.total V.Stats.truncations in
  Alcotest.(check bool) "section created an indirect link" true (ind > 0);
  (* three lagging helpers replay the identical critical section *)
  for _ = 1 to 3 do
    Flock.Idem.enter log;
    ignore (V.Vptr.cas d p b c);
    Flock.Idem.exit ()
  done;
  Alcotest.(check int) "indirect_created exact under helping" ind
    (V.Stats.total V.Stats.indirect_created);
  Alcotest.(check int) "retires exact under helping" ret
    (Flock.Lock.retire_count ());
  Alcotest.(check int) "truncations exact under helping" trunc
    (V.Stats.total V.Stats.truncations)

(* Same gate on the direct-install counter: a Plain-mode replayed store
   must not recount its installation. *)
let test_helping_direct_installed_exact () =
  reset ();
  let d = desc V.Vptr.Plain in
  let p = V.Vptr.make d (mk 1) in
  let log = Flock.Idem.create_log () in
  Flock.Idem.enter log;
  V.Vptr.store_norace d p (mk 2);
  Flock.Idem.exit ();
  let direct = V.Stats.total V.Stats.direct_installed in
  for _ = 1 to 3 do
    Flock.Idem.enter log;
    V.Vptr.store_norace d p (mk 2);
    Flock.Idem.exit ()
  done;
  Alcotest.(check int) "direct_installed exact under helping" direct
    (V.Stats.total V.Stats.direct_installed)

(* --- Version-chain truncation ------------------------------------------ *)

let test_truncation_bounds_chains () =
  reset ();
  let d = desc V.Vptr.Ind_on_need in
  let p = V.Vptr.make d (mk 0) in
  for i = 1 to 500 do
    V.Vptr.store_norace d p (mk i);
    ignore (V.Vptr.load d p)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "chain stays short (depth %d)" (V.Vptr.version_depth d p))
    true
    (V.Vptr.version_depth d p <= 4);
  Alcotest.(check bool) "truncations happened" true
    (V.Stats.total V.Stats.truncations > 0)

let test_truncation_respects_snapshots () =
  reset ();
  let d = desc V.Vptr.Ind_on_need in
  let p = V.Vptr.make d (mk 0) in
  let pin = V.Stamp.take () in
  V.Done_stamp.announce pin;
  for i = 1 to 50 do
    ignore (V.Stamp.take ());
    V.Vptr.store_norace d p (mk i);
    ignore (V.Vptr.load d p)
  done;
  (* the pinned snapshot still sees the original value *)
  Alcotest.(check (option int)) "pinned snapshot intact" (Some 0)
    (value_of (load_at d p pin));
  V.Done_stamp.withdraw ();
  Alcotest.(check bool) "history retained while pinned" true
    (V.Vptr.version_depth d p > 10)

(* --- Done stamp -------------------------------------------------------- *)

let test_done_stamp_bounds () =
  reset ();
  let d0 = V.Done_stamp.refresh () in
  Alcotest.(check bool) "bounded by clock" true (d0 <= V.Stamp.read ());
  let ts = V.Stamp.take () in
  V.Done_stamp.announce ts;
  Alcotest.(check bool) "bounded by active snapshot" true (V.Done_stamp.refresh () <= ts);
  V.Done_stamp.withdraw ();
  ignore (V.Stamp.take ());
  Alcotest.(check bool) "advances after withdraw" true (V.Done_stamp.refresh () > ts - 1)

let test_done_stamp_monotone () =
  reset ();
  let a = V.Done_stamp.refresh () in
  ignore (V.Stamp.take ());
  let b = V.Done_stamp.refresh () in
  Alcotest.(check bool) "monotone" true (b >= a)

(* --- Concurrent snapshot guarantees ------------------------------------ *)

(* Verlib's contract: every load inside a with_snapshot observes the value
   its location held at one fixed stamp.  Three consequences are tested
   under concurrency, for each timestamp scheme:

   1. re-reading a location within one snapshot yields the same value even
      while a writer keeps updating it (per-location fixed point);
   2. for two locations updated in the strict sequence p:=i then q:=i,
      every snapshot sees q <= p <= q + 1 (a consistent temporal cut);
   3. a multi-field invariant published through a single versioned write
      is always seen intact (atomic publication, the pattern all the
      paper's data structures use for their linearization points). *)

type pair =
  | Pair of { left : int; right : int; pmeta : pair V.Vtypes.meta }
  | Plink of pair V.Vtypes.link
  | Pnull

let mk_pair l r = Pair { left = l; right = r; pmeta = V.Vtypes.fresh_meta Pnull }

let pair_desc () =
  V.Vptr.make_desc
    ~meta_of:(function
      | Pair p -> p.pmeta
      | Plink l -> l.lmeta
      | Pnull -> invalid_arg "null has no metadata")
    ~null:Pnull
    ~link:(fun l -> Plink l)
    ~link_of:(function Plink l -> l | _ -> invalid_arg "not a link")
    ~value_of:(function Plink l -> l.lvalue | p -> p)
    ~mode:V.Vptr.Ind_on_need

let run_writer_readers ~writer ~reader =
  let stop = Atomic.make false in
  let w = Domain.spawn (fun () -> writer stop) in
  let r2 = Domain.spawn (fun () -> reader ()) in
  let v1 = reader () in
  let v2 = Domain.join r2 in
  Atomic.set stop true;
  Domain.join w;
  v1 + v2

let test_snapshot_fixed_point scheme () =
  reset ~scheme ();
  let d = desc V.Vptr.Ind_on_need in
  let p = V.Vptr.make d (mk 0) in
  let writer stop =
    let i = ref 1 in
    while not (Atomic.get stop) do
      V.Vptr.store d p (mk !i);
      incr i
    done
  in
  let reader () =
    let violations = ref 0 in
    for _ = 1 to 2000 do
      (* the torn-check must be the snapshot's result: under OptTS an
         aborted optimistic pass may legitimately observe a torn state
         before the pessimistic re-run *)
      let consistent =
        V.with_snapshot (fun () ->
            let a = value_of (V.Vptr.load d p) in
            Thread.yield ();
            let b = value_of (V.Vptr.load d p) in
            a = b)
      in
      if not consistent then incr violations
    done;
    !violations
  in
  Alcotest.(check int) "value fixed within a snapshot" 0
    (run_writer_readers ~writer ~reader)

let test_snapshot_temporal_cut scheme () =
  reset ~scheme ();
  let d = desc V.Vptr.Ind_on_need in
  let p = V.Vptr.make d (mk 0) in
  let q = V.Vptr.make d (mk 0) in
  let writer stop =
    let i = ref 1 in
    while not (Atomic.get stop) do
      V.Vptr.store d p (mk !i);
      V.Vptr.store d q (mk !i);
      incr i
    done
  in
  let reader () =
    let violations = ref 0 in
    for _ = 1 to 2000 do
      let consistent =
        V.with_snapshot (fun () ->
            (* read in the order that makes stale values visible *)
            let b = value_of (V.Vptr.load d q) in
            let a = value_of (V.Vptr.load d p) in
            match (a, b) with
            | Some a, Some b -> b <= a && a <= b + 1
            | _ -> false)
      in
      if not consistent then incr violations
    done;
    !violations
  in
  Alcotest.(check int) "snapshots are consistent cuts" 0
    (run_writer_readers ~writer ~reader)

let test_snapshot_atomic_publication scheme () =
  reset ~scheme ();
  let d = pair_desc () in
  let p = V.Vptr.make d (mk_pair 40 60) in
  let writer stop =
    let r = ref 1 in
    while not (Atomic.get stop) do
      let x = 1 + (!r * 7919 mod 99) in
      incr r;
      V.Vptr.store d p (mk_pair x (100 - x))
    done
  in
  let reader () =
    let violations = ref 0 in
    for _ = 1 to 2000 do
      let sum =
        V.with_snapshot (fun () ->
            match V.Vptr.load d p with
            | Pair pr -> pr.left + pr.right
            | Plink _ | Pnull -> -1)
      in
      if sum <> 100 then incr violations
    done;
    !violations
  in
  Alcotest.(check int) "single-swing publication is atomic" 0
    (run_writer_readers ~writer ~reader)

(* --- qcheck: model-based history semantics ------------------------------ *)

(* A random single-threaded program over one versioned pointer, recording
   after every operation the stamp at which the resulting state became
   observable.  Replaying every recorded stamp through load_at must
   reproduce the exact history.  Object reuse is included so the property
   also exercises indirect links and metadata sharing. *)
type vcmd = Store_fresh of int | Store_reused | Store_null | Cas_fresh of int

let vcmd_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun v -> Store_fresh v) (int_bound 1000));
        (2, return Store_reused);
        (1, return Store_null);
        (3, map (fun v -> Cas_fresh v) (int_bound 1000));
      ])

let vcmd_print = function
  | Store_fresh v -> Printf.sprintf "store (fresh %d)" v
  | Store_reused -> "store (reused)"
  | Store_null -> "store null"
  | Cas_fresh v -> Printf.sprintf "cas (fresh %d)" v

let vcmds_arb =
  QCheck.make
    ~print:QCheck.Print.(list vcmd_print)
    QCheck.Gen.(list_size (int_bound 60) vcmd_gen)

let history_faithful mode cmds =
  reset ();
  (* pin the done stamp so truncation/shortcutting cannot reclaim the
     history this test replays *)
  let pin = V.Stamp.read () in
  V.Done_stamp.announce pin;
  let d = desc mode in
  let p = V.Vptr.make d (mk 0) in
  (* a second pointer supplies already-claimed objects for reuse *)
  let donor = ref [ mk 7777 ] in
  List.iter (fun o -> ignore (V.Vptr.make d o)) !donor;
  let history = ref [] in
  let record () = history := (V.Stamp.take (), value_of (V.Vptr.load d p)) :: !history in
  record ();
  List.iter
    (fun c ->
      (match c with
       | Store_fresh v ->
           let o = mk v in
           V.Vptr.store d p o;
           donor := o :: !donor
       | Store_reused ->
           let o = List.nth !donor 0 in
           V.Vptr.store d p o
       | Store_null -> V.Vptr.store d p Null
       | Cas_fresh v ->
           let cur = V.Vptr.load d p in
           ignore (V.Vptr.cas d p cur (mk v)));
      record ())
    cmds;
  (* Replay oldest-first: [load_at] announces the replayed stamp in this
     domain's (single) announcement slot, displacing the pin, so the done
     stamp may legitimately rise to each replayed stamp — after which
     versions older than it may be truncated.  Real programs never hold
     two snapshots in one domain, so this ordering mirrors legal usage. *)
  let chronological = List.sort compare (List.rev !history) in
  let ok =
    List.for_all (fun (ts, expect) -> value_of (load_at d p ts) = expect) chronological
  in
  V.Done_stamp.withdraw ();
  ok

let qcheck_history_tests =
  List.map
    (fun mode ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:("history faithful (" ^ V.Vptr.mode_name mode ^ ")")
           ~count:80 vcmds_arb (history_faithful mode)))
    V.Vptr.[ Indirect; No_shortcut; Ind_on_need ]

(* --- allocation budget ------------------------------------------------- *)

(* Minor-heap words allocated by [n] calls of [f].  [Gc.minor_words] is
   unboxed, so the measurement itself allocates nothing. *)
let minor_words_of n f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  Gc.minor_words () -. w0

(* A load outside any snapshot or critical section is a plain read: it
   must not allocate, whatever the head holds (direct value, indirect
   link, a superseded version still to truncate). *)
let test_load_allocates_nothing mode () =
  reset ();
  let d = desc mode in
  let p = V.Vptr.make d (mk 1) in
  V.Vptr.store d p (mk 2);
  let words = minor_words_of 10_000 (fun () -> V.Vptr.load d p) in
  Alcotest.(check (float 0.)) "words over 10k loads" 0. words;
  Alcotest.(check (option int)) "value" (Some 2) (value_of (V.Vptr.load d p))

(* The same for a link whose shortcut is held back because another
   domain sits inside an epoch: every load retries the epoch test. *)
let test_held_back_link_load_allocates_nothing () =
  reset ();
  let d = desc V.Vptr.Ind_on_need in
  let a = mk 1 in
  let p = V.Vptr.make d a in
  V.Vptr.store d p (mk 2);
  let release = Atomic.make false and entered = Atomic.make false in
  let pinned =
    Domain.spawn (fun () ->
        Flock.with_epoch (fun () ->
            Atomic.set entered true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done))
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Domain.join pinned)
    (fun () ->
      Alcotest.(check bool) "pinned" true (wait_until (fun () -> Atomic.get entered));
      V.Vptr.store d p a;
      let words = minor_words_of 10_000 (fun () -> V.Vptr.load d p) in
      Alcotest.(check bool) "link held back" true (V.Vptr.head_kind d p = `Indirect);
      Alcotest.(check (float 0.)) "words over 10k loads" 0. words)

(* Installing a fresh object allocates nothing but the caller's object:
   the object is the version.  The objects are built before the
   measurement, so the budget is zero — except in Indirect mode, where
   every version is a link by definition and each install costs exactly
   one link. *)
let install_budget mode =
  if mode = V.Vptr.Indirect then
    float_of_int (Obj.reachable_words (Obj.repr (Link (V.Vtypes.make_link ~stamp:0 ~prev:Null Null))))
  else 0.

let test_install_allocates_nothing ~use_cas mode () =
  reset ();
  let d = desc mode in
  let p = V.Vptr.make d (mk 0) in
  let n = 10_000 in
  (* one spare for [minor_words_of]'s warm-up call *)
  let objs = Array.init (n + 1) (fun i -> mk (i + 1)) in
  let next = ref 0 in
  let install () =
    let o = objs.(!next) in
    incr next;
    if use_cas then ignore (V.Vptr.cas d p (V.Vptr.load d p) o)
    else V.Vptr.store_norace d p o
  in
  let words = minor_words_of n install in
  Alcotest.(check (float 0.)) "words per install" (install_budget mode) (words /. float_of_int n);
  Alcotest.(check (option int)) "last install visible" (Some (n + 1))
    (value_of (V.Vptr.load d p))

(* The same installs inside critical sections.  Each install runs in a
   section of its own, on a log built before the measurement; entering
   and leaving a section costs a frame, measured on empty sections and
   subtracted, so what is left is the install itself.  A fresh object
   still goes in directly, in Plain mode too. *)
let test_install_in_frame_allocates_nothing ~use_cas mode () =
  reset ();
  let d = desc mode in
  let p = V.Vptr.make d (mk 0) in
  let n = 10_000 in
  let objs = Array.init (n + 1) (fun i -> mk (i + 1)) in
  let logs = Array.init (2 * (n + 1)) (fun _ -> Flock.Idem.create_log ()) in
  let next = ref 0 in
  let in_section f () =
    Flock.Idem.enter logs.(!next);
    f ();
    Flock.Idem.exit ();
    incr next
  in
  let frame_words = minor_words_of n (in_section ignore) in
  let base = !next in
  let install () =
    let o = objs.(!next - base) in
    if use_cas then ignore (V.Vptr.cas d p (V.Vptr.load d p) o)
    else V.Vptr.store_norace d p o
  in
  let words = minor_words_of n (in_section install) -. frame_words in
  Alcotest.(check (float 0.)) "words per install" (install_budget mode) (words /. float_of_int n);
  Alcotest.(check bool) "head layout" true
    (V.Vptr.head_kind d p = if mode = V.Vptr.Indirect then `Indirect else `Direct);
  Alcotest.(check (option int)) "last install visible" (Some (n + 1))
    (value_of (V.Vptr.load d p))

(* Snapshot reads walk the chain without allocating either. *)
let test_snapshot_loads_allocate_nothing mode () =
  reset ();
  let d = desc mode in
  let p = V.Vptr.make d (mk 0) in
  let words =
    V.with_snapshot (fun () ->
        (* versions newer than the snapshot, so reads walk past them *)
        V.Vptr.store d p (mk 1);
        V.Vptr.store d p (mk 2);
        ignore (Sys.opaque_identity (V.Vptr.load d p));
        let w0 = Gc.minor_words () in
        for _ = 1 to 10_000 do
          ignore (Sys.opaque_identity (V.Vptr.load d p))
        done;
        Gc.minor_words () -. w0)
  in
  Alcotest.(check (float 0.)) "words over 10k snapshot loads" 0. words

let case name f = Alcotest.test_case name `Quick f

let mode_cases name f =
  List.map
    (fun m -> case (Printf.sprintf "%s (%s)" name (V.Vptr.mode_name m)) (f m))
    versioned_modes

let () =
  Alcotest.run "verlib"
    [
      ( "stamp",
        [
          case "QueryTS" test_query_ts;
          case "UpdateTS" test_update_ts;
          case "HwTS" test_hw_ts;
          case "NoStamp" test_no_stamp;
          case "TL2-TS" test_tl2_ts;
        ] );
      ( "vptr-basics",
        mode_cases "load/store/cas" test_load_store_cas
        @ mode_cases "null handling" test_null_handling
        @ mode_cases "no-op cas" test_noop_cas
        @ [
            case "load/store/cas (Non-versioned)"
              (test_load_store_cas V.Vptr.Plain);
          ] );
      ( "indirection",
        [
          case "fresh object installs direct" test_fresh_object_direct;
          case "reused object needs a link" (fun () -> test_reused_object_indirect ());
          case "initialisation shares metadata" test_initialisation_shares_meta;
          case "shortcut removes indirection" test_shortcut_removes_indirection;
          case "NoShortcut keeps the link" test_no_shortcut_mode_keeps_link;
          case "shortcut blocked by live snapshot" test_shortcut_blocked_by_snapshot;
        ]
        @ List.map
            (fun mode ->
              case
                (Printf.sprintf "reused object needs a link: A->B->A (%s)"
                   (V.Vptr.mode_name mode))
                (test_reused_object_indirect ~input:`Aba ~mode))
            versioned_modes
        @ List.map
            (fun mode ->
              case
                (Printf.sprintf "paused replay across a shortcut (%s)"
                   (V.Vptr.mode_name mode))
                (test_paused_replay_across_shortcut mode))
            V.Vptr.[ Indirect; No_shortcut; Ind_on_need; Plain ] );
      ( "snapshot",
        [
          case "history (Indirect)" (test_snapshot_reads_history V.Vptr.Indirect);
          case "history (NoShortcut)" (test_snapshot_reads_history V.Vptr.No_shortcut);
          case "history (IndOnNeed, pinned)"
            (test_snapshot_reads_history V.Vptr.Ind_on_need);
          case "with_snapshot basic" test_with_snapshot_basic;
          case "with_snapshot nested" test_with_snapshot_nested;
          case "optimistic abort and re-run" test_optimistic_abort_and_rerun;
          case "check_abort early exit" test_check_abort_early_exit;
        ] );
      ( "idempotent-cas",
        [
          case "replay agrees" test_cas_replay_consistent;
          case "lagging replay after later update" test_cas_replay_after_subsequent_update;
          case "lagging store_norace is inert" test_store_norace_replay;
          case "counters exact under helping" test_helping_counters_exact;
          case "direct_installed exact under helping"
            test_helping_direct_installed_exact;
        ] );
      ("qcheck-history", qcheck_history_tests);
      ( "alloc-budget",
        mode_cases "load outside a frame" test_load_allocates_nothing
        @ [
            case "load of a held-back link (IndOnNeed)"
              test_held_back_link_load_allocates_nothing;
          ]
        @ List.concat_map
            (fun m ->
              let n = V.Vptr.mode_name m in
              [
                case
                  (Printf.sprintf "store_norace of a fresh object (%s)" n)
                  (test_install_allocates_nothing ~use_cas:false m);
                case
                  (Printf.sprintf "cas of a fresh object (%s)" n)
                  (test_install_allocates_nothing ~use_cas:true m);
                case
                  (Printf.sprintf "store_norace of a fresh object in a section (%s)" n)
                  (test_install_in_frame_allocates_nothing ~use_cas:false m);
                case
                  (Printf.sprintf "cas of a fresh object in a section (%s)" n)
                  (test_install_in_frame_allocates_nothing ~use_cas:true m);
                case
                  (Printf.sprintf "loads inside one snapshot (%s)" n)
                  (test_snapshot_loads_allocate_nothing m);
              ])
            (versioned_modes @ [ V.Vptr.Plain ]) );
      ( "truncation",
        [
          case "bounds chains without snapshots" test_truncation_bounds_chains;
          case "respects live snapshots" test_truncation_respects_snapshots;
        ] );
      ( "done-stamp",
        [
          case "bounds" test_done_stamp_bounds;
          case "monotone" test_done_stamp_monotone;
        ] );
      ( "atomicity",
        List.concat_map
          (fun scheme ->
            let n = V.Stamp.scheme_name scheme in
            [
              case (n ^ ": fixed point") (test_snapshot_fixed_point scheme);
              case (n ^ ": temporal cut") (test_snapshot_temporal_cut scheme);
              case (n ^ ": atomic publication")
                (test_snapshot_atomic_publication scheme);
            ])
          V.Stamp.[ Query_ts; Update_ts; Hw_ts; Tl2_ts; Opt_ts ] );
    ]
