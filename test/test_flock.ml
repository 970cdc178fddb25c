(* Tests for the FLOCK substrate: idempotence logs, idempotent atomics,
   blocking and lock-free locks, helping, and epochs. *)

let test_backoff () =
  let b = Flock.Backoff.create ~limit:3 () in
  for _ = 1 to 10 do
    Flock.Backoff.once b
  done;
  Flock.Backoff.reset b;
  Flock.Backoff.once b

let test_registry_id_stable () =
  let id1 = Flock.Registry.my_id () in
  let id2 = Flock.Registry.my_id () in
  Alcotest.(check int) "same id within a domain" id1 id2;
  Alcotest.(check bool) "registered" true (Flock.Registry.registered_count () >= 1)

let test_registry_distinct_ids () =
  let id_main = Flock.Registry.my_id () in
  let other = Domain.spawn (fun () -> Flock.Registry.my_id ()) in
  let id_other = Domain.join other in
  Alcotest.(check bool) "distinct ids" true (id_main <> id_other)

let test_registry_id_recycled () =
  let d = Domain.spawn (fun () -> Flock.Registry.my_id ()) in
  let id1 = Domain.join d in
  let d2 = Domain.spawn (fun () -> Flock.Registry.my_id ()) in
  let id2 = Domain.join d2 in
  Alcotest.(check int) "slot recycled after domain exit" id1 id2

(* --- Idem ------------------------------------------------------------ *)

let test_once_outside_frame () =
  let calls = ref 0 in
  let v = Flock.Idem.once (fun () -> incr calls; 42) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check int) "runs directly outside a frame" 1 !calls

let test_once_replay_agrees () =
  (* Two sequential replays of the same log must see the first replay's
     values, even if the underlying computation would now differ. *)
  let log = Flock.Idem.create_log () in
  let source = ref 10 in
  Flock.Idem.enter log;
  let a = Flock.Idem.once (fun () -> !source) in
  let b = Flock.Idem.once (fun () -> !source + 1) in
  Flock.Idem.exit ();
  source := 99;
  Flock.Idem.enter log;
  let a' = Flock.Idem.once (fun () -> !source) in
  let b' = Flock.Idem.once (fun () -> !source + 1) in
  Flock.Idem.exit ();
  Alcotest.(check int) "first slot replayed" a a';
  Alcotest.(check int) "second slot replayed" b b';
  Alcotest.(check int) "original first" 10 a;
  Alcotest.(check int) "original second" 11 b

let test_once_many_slots_cross_chunks () =
  let log = Flock.Idem.create_log () in
  let n = 200 (* > chunk size, forces chunk chaining *) in
  Flock.Idem.enter log;
  let xs = List.init n (fun i -> Flock.Idem.once (fun () -> i * 3)) in
  Flock.Idem.exit ();
  Flock.Idem.enter log;
  let ys = List.init n (fun i -> Flock.Idem.once (fun () -> i * 1000)) in
  Flock.Idem.exit ();
  Alcotest.(check (list int)) "replay across chunks" xs ys;
  Alcotest.(check (list int)) "values from first run" (List.init n (fun i -> i * 3)) xs

let test_frame_nesting () =
  let outer = Flock.Idem.create_log () in
  let inner = Flock.Idem.create_log () in
  Alcotest.(check int) "depth 0" 0 (Flock.Idem.frame_depth ());
  Flock.Idem.enter outer;
  Alcotest.(check int) "depth 1" 1 (Flock.Idem.frame_depth ());
  let a = Flock.Idem.once (fun () -> 1) in
  Flock.Idem.enter inner;
  let b = Flock.Idem.once (fun () -> 2) in
  Flock.Idem.exit ();
  let c = Flock.Idem.once (fun () -> 3) in
  Flock.Idem.exit ();
  Alcotest.(check (list int)) "nested values" [ 1; 2; 3 ] [ a; b; c ];
  (* replay: outer log must hold slots for a and c only *)
  Flock.Idem.enter outer;
  let a' = Flock.Idem.once (fun () -> 100) in
  let c' = Flock.Idem.once (fun () -> 300) in
  Flock.Idem.exit ();
  Alcotest.(check (list int)) "outer replay skips inner slots" [ 1; 3 ] [ a'; c' ]

(* Logged reads under helping: two domains replay one section reading
   29 atomics (more than three 8-slot chunks) while a third keeps
   changing them.  Both replays must agree slot by slot, and a helper
   arriving after every atomic has moved on must still read the logged
   values, not the current ones. *)
let test_get_helping_two_domains () =
  let n = (3 * 8) + 5 in
  let cells = Array.init n (fun i -> Atomic.make i) in
  Alcotest.(check int) "outside a frame: a plain read" 3
    (Flock.Idem.get cells.(3));
  let log = Flock.Idem.create_log () in
  let replay () =
    Flock.Idem.enter log;
    let xs = List.init n (fun i -> Flock.Idem.get cells.(i)) in
    Flock.Idem.exit ();
    xs
  in
  let stop = Atomic.make false in
  let mutator =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Array.iter Atomic.incr cells
        done)
  in
  let helper = Domain.spawn replay in
  let owner = replay () in
  let helped = Domain.join helper in
  Atomic.set stop true;
  Domain.join mutator;
  Alcotest.(check (list int)) "concurrent replays agree" owner helped;
  Array.iter (fun c -> Atomic.set c (-1)) cells;
  let late = Domain.join (Domain.spawn replay) in
  Alcotest.(check (list int)) "late helper reads the log" owner late;
  Alcotest.(check bool) "logged values predate the change" true
    (List.for_all (fun v -> v >= 0) late)

(* --- Fatomic --------------------------------------------------------- *)

let test_fatomic_basic () =
  let c = Flock.Fatomic.make 5 in
  Alcotest.(check int) "initial" 5 (Flock.Fatomic.load c);
  Flock.Fatomic.store c 7;
  Alcotest.(check int) "stored" 7 (Flock.Fatomic.load c)

let test_fatomic_cam () =
  let c = Flock.Fatomic.make 1 in
  Flock.Fatomic.cam c ~old_v:1 ~new_v:2;
  Alcotest.(check int) "cam hit" 2 (Flock.Fatomic.load c);
  Flock.Fatomic.cam c ~old_v:1 ~new_v:3;
  Alcotest.(check int) "cam miss leaves value" 2 (Flock.Fatomic.load c)

let test_fatomic_store_exactly_once_under_replay () =
  (* A store replayed through the same log must not clobber later writes. *)
  let c = Flock.Fatomic.make 0 in
  let log = Flock.Idem.create_log () in
  Flock.Idem.enter log;
  Flock.Fatomic.store c 1;
  Flock.Idem.exit ();
  (* a later, unrelated store *)
  Flock.Fatomic.store c 2;
  (* lagging helper replays the first critical section *)
  Flock.Idem.enter log;
  Flock.Fatomic.store c 1;
  Flock.Idem.exit ();
  Alcotest.(check int) "replayed store does not reapply" 2 (Flock.Fatomic.load c)

(* --- Locks ----------------------------------------------------------- *)

let test_lock_basic = fun mode () ->
  let l = Flock.Lock.create ~mode () in
  let r = Flock.Lock.try_lock l (fun () -> 41 + 1) in
  Alcotest.(check (option int)) "uncontended try_lock runs" (Some 42) r;
  let r2 = Flock.Lock.with_lock l (fun () -> "done") in
  Alcotest.(check string) "with_lock" "done" r2

let test_lock_exception_released = fun mode () ->
  let l = Flock.Lock.create ~mode () in
  (try ignore (Flock.Lock.with_lock l (fun () -> failwith "boom"))
   with Failure _ -> ());
  (* lock must be free again *)
  let r = Flock.Lock.try_lock l (fun () -> true) in
  Alcotest.(check (option bool)) "released after raise" (Some true) r

let test_lock_mutual_exclusion = fun mode () ->
  (* Shared state inside lock-free critical sections must go through
     Fatomic (the FLOCK contract); a plain ref would be re-read by lagging
     helpers and double-applied.  The blocking variant exercises plain
     state too, since no helping occurs there. *)
  let l = Flock.Lock.create ~mode () in
  let counter = Flock.Fatomic.make 0 in
  let plain = ref 0 in
  let iters = 2000 in
  let work () =
    for _ = 1 to iters do
      ignore
        (Flock.Lock.with_lock l (fun () ->
             let v = Flock.Fatomic.load counter in
             (* widen the race window *)
             if v mod 64 = 0 then Thread.yield ();
             if mode = Flock.Lock.Blocking then incr plain;
             Flock.Fatomic.store counter (v + 1)))
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn work) in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost updates" (4 * iters) (Flock.Fatomic.load counter);
  if mode = Flock.Lock.Blocking then
    Alcotest.(check int) "plain state exact under blocking" (4 * iters) !plain

let test_lock_free_critical_section_idempotent () =
  (* Effects inside a lock-free critical section must happen exactly once
     even under heavy contention/helping.  Uses Fatomic cells as the
     FLOCK contract requires. *)
  let l = Flock.Lock.create ~mode:Flock.Lock.Lock_free () in
  let cell = Flock.Fatomic.make 0 in
  let iters = 1000 in
  let work () =
    for _ = 1 to iters do
      let rec attempt () =
        let before = Flock.Fatomic.load cell in
        let ok =
          Flock.Lock.try_lock_bool l (fun () ->
              let v = Flock.Fatomic.load cell in
              if v <> before then false
              else begin
                Flock.Fatomic.store cell (v + 1);
                true
              end)
        in
        if not ok then attempt ()
      in
      attempt ()
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn work) in
  List.iter Domain.join domains;
  Alcotest.(check int) "exactly-once increments" (4 * iters) (Flock.Fatomic.load cell)

let test_nested_locks () =
  let outer = Flock.Lock.create ~mode:Flock.Lock.Lock_free () in
  let inner = Flock.Lock.create ~mode:Flock.Lock.Lock_free () in
  let cell = Flock.Fatomic.make 0 in
  let r =
    Flock.Lock.with_lock outer (fun () ->
        Flock.Lock.with_lock inner (fun () ->
            Flock.Fatomic.store cell 9;
            Flock.Fatomic.load cell))
  in
  Alcotest.(check int) "nested result" 9 r;
  Alcotest.(check int) "nested effect" 9 (Flock.Fatomic.load cell)

let test_helping_observable () =
  (* Deterministic helping: the owner parks inside its critical section on
     a gate; a contender that arrives meanwhile must execute the owner's
     thunk (and park on the same gate) rather than block.  Opening the
     gate lets both complete; the effect must apply exactly once. *)
  let rec scenario attempts =
    let before = Flock.Lock.help_count () in
    let l = Flock.Lock.create ~mode:Flock.Lock.Lock_free () in
    let cell = Flock.Fatomic.make 0 in
    let entries = Atomic.make 0 in
    let gate = Atomic.make false in
    let owner =
      Domain.spawn (fun () ->
          Flock.Lock.with_lock l (fun () ->
              (* non-idempotent instrumentation: counts replicas inside *)
              Atomic.incr entries;
              (* plain spin: performs no logged operations, so replicas
                 re-align once the gate opens *)
              while not (Atomic.get gate) do
                Domain.cpu_relax ()
              done;
              Flock.Fatomic.store cell (Flock.Fatomic.load cell + 1);
              42))
    in
    while Atomic.get entries = 0 do
      Thread.yield ()
    done;
    let helper_done = Atomic.make false in
    let helper =
      Domain.spawn (fun () ->
          (* if the lock is (still) held, this helps run the parked thunk *)
          let r = Flock.Lock.try_lock l (fun () -> 0) in
          Atomic.set helper_done true;
          r)
    in
    (* wait until the helper provably joined the owner inside the thunk,
       or provably missed the window *)
    while Atomic.get entries < 2 && not (Atomic.get helper_done) do
      Thread.yield ()
    done;
    let joined = Atomic.get entries >= 2 in
    Atomic.set gate true;
    let owner_result = Domain.join owner in
    ignore (Domain.join helper);
    if joined then begin
      Alcotest.(check int) "owner result" 42 owner_result;
      Alcotest.(check int) "effect applied exactly once" 1 (Flock.Fatomic.load cell);
      Alcotest.(check bool) "helping occurred" true (Flock.Lock.help_count () > before)
    end
    else if attempts > 1 then scenario (attempts - 1)
    else Alcotest.fail "helper never caught the owner in 10 attempts"
  in
  scenario 10

let test_exception_under_contention () =
  (* A raising critical section must deliver the exception to its owner
     and leave both the lock and concurrent operations healthy. *)
  let l = Flock.Lock.create ~mode:Flock.Lock.Lock_free () in
  let cell = Flock.Fatomic.make 0 in
  let failures = Atomic.make 0 in
  let work seed () =
    for i = 1 to 2000 do
      try
        ignore
          (Flock.Lock.with_lock l (fun () ->
               let v = Flock.Fatomic.load cell in
               if (i + seed) mod 97 = 0 then failwith "planned";
               Flock.Fatomic.store cell (v + 1)))
      with Failure _ -> Atomic.incr failures
    done
  in
  let ds = List.init 3 (fun i -> Domain.spawn (work i)) in
  List.iter Domain.join ds;
  Alcotest.(check bool) "exceptions delivered" true (Atomic.get failures > 0);
  Alcotest.(check int) "non-failing sections all applied"
    (6000 - Atomic.get failures)
    (Flock.Fatomic.load cell);
  (* lock still usable *)
  Alcotest.(check (option bool)) "lock healthy" (Some true)
    (Flock.Lock.try_lock l (fun () -> true))

let test_new_obj_idempotent () =
  let log = Flock.Idem.create_log () in
  Flock.Idem.enter log;
  let a = Flock.Lock.new_obj (fun () -> ref 1) in
  Flock.Idem.exit ();
  Flock.Idem.enter log;
  let b = Flock.Lock.new_obj (fun () -> ref 2) in
  Flock.Idem.exit ();
  Alcotest.(check bool) "same allocation across replays" true (a == b)

(* --- Idem.claim ------------------------------------------------------- *)

let test_claim_outside_frame () =
  (* no helping outside a frame: the caller is trivially the winner *)
  Alcotest.(check bool) "outside" true (Flock.Idem.claim ());
  Alcotest.(check bool) "outside again" true (Flock.Idem.claim ())

let test_claim_once_per_position () =
  let log = Flock.Idem.create_log () in
  Flock.Idem.enter log;
  let w1 = Flock.Idem.claim () in
  let w2 = Flock.Idem.claim () in
  Flock.Idem.exit ();
  (* a lagging helper replays the identical section over the same log *)
  Flock.Idem.enter log;
  let r1 = Flock.Idem.claim () in
  let r2 = Flock.Idem.claim () in
  Flock.Idem.exit ();
  Alcotest.(check bool) "first pass wins position 0" true w1;
  Alcotest.(check bool) "first pass wins position 1" true w2;
  Alcotest.(check bool) "replay loses position 0" false r1;
  Alcotest.(check bool) "replay loses position 1" false r2

let test_claim_consumes_one_slot () =
  (* claim must advance the log by exactly one slot so surrounding onces
     stay position-aligned across replays *)
  let log = Flock.Idem.create_log () in
  Flock.Idem.enter log;
  let a = Flock.Idem.once (fun () -> 10) in
  let w = Flock.Idem.claim () in
  let b = Flock.Idem.once (fun () -> 20) in
  Flock.Idem.exit ();
  Flock.Idem.enter log;
  let a' = Flock.Idem.once (fun () -> 111) in
  let w' = Flock.Idem.claim () in
  let b' = Flock.Idem.once (fun () -> 222) in
  Flock.Idem.exit ();
  Alcotest.(check int) "once before claim replays" a a';
  Alcotest.(check int) "once after claim replays" b b';
  Alcotest.(check bool) "claim winner" true w;
  Alcotest.(check bool) "claim loser" false w';
  Alcotest.(check int) "values" 30 (a + b)

let test_claim_concurrent_single_winner () =
  (* many domains replaying the same log position: exactly one winner *)
  let log = Flock.Idem.create_log () in
  let wins = Atomic.make 0 in
  let go = Atomic.make false in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            Flock.Idem.enter log;
            if Flock.Idem.claim () then Atomic.incr wins;
            Flock.Idem.exit ()))
  in
  Atomic.set go true;
  List.iter Domain.join ds;
  Alcotest.(check int) "exactly one winner" 1 (Atomic.get wins)

(* --- Epoch ----------------------------------------------------------- *)

let test_epoch_nesting () =
  Alcotest.(check bool) "outside" false (Flock.Epoch.in_epoch ());
  Flock.with_epoch (fun () ->
      Alcotest.(check bool) "inside" true (Flock.Epoch.in_epoch ());
      Flock.with_epoch (fun () ->
          Alcotest.(check bool) "nested inside" true (Flock.Epoch.in_epoch ())));
  Alcotest.(check bool) "outside again" false (Flock.Epoch.in_epoch ())

let test_epoch_defer_runs_after_quiescence () =
  let ran = ref false in
  Flock.with_epoch (fun () ->
      Flock.Epoch.defer (fun () -> ran := true);
      Alcotest.(check bool) "not yet (same epoch active)" false !ran);
  (* leaving the epoch flushes; a following epoch ensures advancement *)
  Flock.with_epoch (fun () -> ());
  Flock.Epoch.flush ();
  Alcotest.(check bool) "deferred ran after quiescence" true !ran

let test_epoch_defer_blocked_by_active_domain () =
  let ran = ref false in
  let gate_in = Atomic.make false in
  let gate_out = Atomic.make false in
  let blocker =
    Domain.spawn (fun () ->
        Flock.with_epoch (fun () ->
            Atomic.set gate_in true;
            while not (Atomic.get gate_out) do
              Thread.yield ()
            done))
  in
  while not (Atomic.get gate_in) do
    Thread.yield ()
  done;
  Flock.with_epoch (fun () -> Flock.Epoch.defer (fun () -> ran := true));
  Flock.Epoch.flush ();
  Alcotest.(check bool) "blocked while another domain is in the epoch" false !ran;
  Atomic.set gate_out true;
  Domain.join blocker;
  Flock.with_epoch (fun () -> ());
  Flock.Epoch.flush ();
  Alcotest.(check bool) "runs once the blocker leaves" true !ran

(* --- Epoch buckets (per-domain deferral) ------------------------------ *)

let test_epoch_pending_accounting () =
  Flock.with_epoch (fun () -> ());
  Flock.Epoch.flush ();
  let base = Flock.Epoch.pending_count () in
  Flock.with_epoch (fun () ->
      for _ = 1 to 5 do
        Flock.Epoch.defer (fun () -> ())
      done;
      Alcotest.(check int) "pending counts in-epoch defers" (base + 5)
        (Flock.Epoch.pending_count ()));
  Flock.with_epoch (fun () -> ());
  Flock.Epoch.flush ();
  Alcotest.(check int) "drained" base (Flock.Epoch.pending_count ())

let test_epoch_flush_exactly_once () =
  Flock.with_epoch (fun () -> ());
  Flock.Epoch.flush ();
  let runs = Array.make 20 0 in
  Flock.with_epoch (fun () ->
      Array.iteri
        (fun i _ -> Flock.Epoch.defer (fun () -> runs.(i) <- runs.(i) + 1))
        runs);
  Flock.with_epoch (fun () -> ());
  Flock.Epoch.flush ();
  Flock.Epoch.flush ();
  Array.iteri
    (fun i n ->
      Alcotest.(check int) (Printf.sprintf "callback %d exactly once" i) 1 n)
    runs

let test_epoch_flush_covers_foreign_buckets () =
  (* Deferred work lives in per-domain buckets; a global flush must drain
     buckets whose owning domain has since exited (its registry slot may
     even be recycled).  A blocker pins the epoch so the deferring
     domain's own exit flush cannot run the callback. *)
  Flock.with_epoch (fun () -> ());
  Flock.Epoch.flush ();
  let ran = Atomic.make 0 in
  let hold_in = Atomic.make false and hold_out = Atomic.make false in
  let blocker =
    Domain.spawn (fun () ->
        Flock.with_epoch (fun () ->
            Atomic.set hold_in true;
            while not (Atomic.get hold_out) do
              Thread.yield ()
            done))
  in
  while not (Atomic.get hold_in) do
    Thread.yield ()
  done;
  let d =
    Domain.spawn (fun () ->
        Flock.with_epoch (fun () ->
            Flock.Epoch.defer (fun () -> Atomic.incr ran)))
  in
  Domain.join d;
  Alcotest.(check int) "pinned epoch: callback held" 0 (Atomic.get ran);
  Alcotest.(check bool) "pinned epoch: still accounted" true
    (Flock.Epoch.pending_count () >= 1);
  Atomic.set hold_out true;
  Domain.join blocker;
  Flock.with_epoch (fun () -> ());
  Flock.Epoch.flush ();
  Alcotest.(check int) "foreign bucket drained by global flush" 1
    (Atomic.get ran)

(* The constant-time [Hist.bucket_of] against the bit-by-bit loop it
   replaced: the same bucket for every int, random and on the edges
   (non-positive, 1, 2^k - 1, 2^k, max_int). *)
let bucket_of_loop v =
  if v <= 0 then 0
  else begin
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
    go 0 v
  end

let bucket_edges =
  [ min_int; -1; 0; 1; max_int ]
  @ List.concat_map (fun k -> [ (1 lsl k) - 1; 1 lsl k ]) (List.init 62 (fun k -> k + 1))

let test_bucket_of_equivalence =
  QCheck.Test.make ~count:2000 ~name:"bucket_of equals the bit loop"
    (* a random int shifted right a random amount: every magnitude *)
    QCheck.(map (fun (v, k) -> v asr k) (pair int (int_bound 62)))
    (fun v -> Flock.Telemetry.Hist.bucket_of v = bucket_of_loop v)

let test_bucket_of_edges () =
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "bucket_of %d" v)
        (bucket_of_loop v)
        (Flock.Telemetry.Hist.bucket_of v))
    bucket_edges

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "flock"
    [
      ("backoff", [ case "spin and yield" test_backoff ]);
      ( "hist",
        [
          case "bucket_of edges" test_bucket_of_edges;
          QCheck_alcotest.to_alcotest test_bucket_of_equivalence;
        ] );
      ( "registry",
        [
          case "id stable" test_registry_id_stable;
          case "distinct ids" test_registry_distinct_ids;
          case "id recycled" test_registry_id_recycled;
        ] );
      ( "idem",
        [
          case "once outside frame" test_once_outside_frame;
          case "replay agrees" test_once_replay_agrees;
          case "chunk chaining" test_once_many_slots_cross_chunks;
          case "frame nesting" test_frame_nesting;
          case "get under two-domain helping" test_get_helping_two_domains;
        ] );
      ( "idem-claim",
        [
          case "outside frame" test_claim_outside_frame;
          case "once per position" test_claim_once_per_position;
          case "consumes one slot" test_claim_consumes_one_slot;
          case "single winner under helping" test_claim_concurrent_single_winner;
        ] );
      ( "fatomic",
        [
          case "load/store" test_fatomic_basic;
          case "cam" test_fatomic_cam;
          case "exactly-once store" test_fatomic_store_exactly_once_under_replay;
        ] );
      ( "lock-blocking",
        [
          case "basic" (test_lock_basic Flock.Lock.Blocking);
          case "exception releases" (test_lock_exception_released Flock.Lock.Blocking);
          case "mutual exclusion" (test_lock_mutual_exclusion Flock.Lock.Blocking);
        ] );
      ( "lock-free",
        [
          case "basic" (test_lock_basic Flock.Lock.Lock_free);
          case "exception releases" (test_lock_exception_released Flock.Lock.Lock_free);
          case "mutual exclusion" (test_lock_mutual_exclusion Flock.Lock.Lock_free);
          case "idempotent critical section" test_lock_free_critical_section_idempotent;
          case "nested locks" test_nested_locks;
          case "helping observable" test_helping_observable;
          case "exceptions under contention" test_exception_under_contention;
          case "new_obj idempotent" test_new_obj_idempotent;
        ] );
      ( "epoch",
        [
          case "nesting" test_epoch_nesting;
          case "defer after quiescence" test_epoch_defer_runs_after_quiescence;
          case "defer blocked by active domain" test_epoch_defer_blocked_by_active_domain;
          case "pending accounting" test_epoch_pending_accounting;
          case "flush exactly once" test_epoch_flush_exactly_once;
          case "flush covers foreign buckets" test_epoch_flush_covers_foreign_buckets;
        ] );
    ]
