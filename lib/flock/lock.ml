type mode = Blocking | Lock_free

let mode_ref = Atomic.make Lock_free

let set_default_mode m = Atomic.set mode_ref m

let default_mode () = Atomic.get mode_ref

(* Outcome of running a critical-section thunk.  Stored once per
   descriptor; every helper agrees on it. *)
type outcome = Value of Obj.t | Raised of exn

(* Acquire status of a descriptor.  Monotone: [Pending] moves exactly once
   to [Taken] or [Aborted].  The constructors are immediates, so CAS on the
   status field uses reliable physical equality. *)
type status = Pending | Taken | Aborted

type descr = {
  thunk : unit -> Obj.t;
  log : Idem.log;
  status : status Atomic.t;
  result : outcome option Atomic.t;
  mutable owner_slot : int;
      (** registry slot of the installer; -1 until known.  A plain
          store by the installer before its install CAS; waiters read
          it to attribute convoy edges (racy, sampled, advisory). *)
}

(* The lock word holds a descriptor; a distinguished sentinel descriptor
   stands for "unlocked" so that CAS compares descriptor identities
   directly (wrapping in an option or variant would allocate a fresh block
   per transition and break physical-equality CAS). *)
let unlocked : descr =
  { thunk = (fun () -> assert false);
    log = Idem.create_log ();
    status = Atomic.make Aborted;
    result = Atomic.make None;
    owner_slot = -1 }

(* ------------------------------------------------------------------ *)
(* Per-site contention accounting (the lock-contention profiler).

   A site is a static label shared by every lock created at one call
   site ("btree.ilock", "dlist.lock", ...).  Counters are slot-sharded
   plain stores like every other Flock instrument; the waits-on edge
   map is the one exception — sampled racy increments keyed by the
   {e holder's} slot, which is exactly the convoy signature (one holder
   slot accumulating sampled waits from many waiters at one site). *)

module Site = struct
  let off_acquires = 0

  let off_contended = 1

  let off_wait_cycles = 2

  let off_helps = 3

  let stride = 8

  type site = {
    st_name : string;
    st_activity : int;  (** interned name for activity publication *)
    st_cells : int array;  (** slot-sharded counters, [stride] per slot *)
    st_edges : int array;
        (** sampled waits observed per {e holder} slot (racy) *)
  }

  let registry : site list ref = ref []

  let registry_mutex = Mutex.create ()

  let make st_name =
    Mutex.lock registry_mutex;
    let s =
      match List.find_opt (fun s -> s.st_name = st_name) !registry with
      | Some s -> s
      | None ->
          let s =
            {
              st_name;
              st_activity = Telemetry.Activity.intern ("lock:" ^ st_name);
              st_cells = Array.make (Registry.max_slots * stride) 0;
              st_edges = Array.make Registry.max_slots 0;
            }
          in
          registry := s :: !registry;
          s
    in
    Mutex.unlock registry_mutex;
    s

  let all () =
    Mutex.lock registry_mutex;
    let l = !registry in
    Mutex.unlock registry_mutex;
    List.rev l

  let bump s off =
    let base = (Registry.my_id () * stride) + off in
    s.st_cells.(base) <- s.st_cells.(base) + 1

  let add s off v =
    let base = (Registry.my_id () * stride) + off in
    s.st_cells.(base) <- s.st_cells.(base) + v

  (* 1-in-8 sampling of waits-on edges, per-slot tick counters so the
     wait loop performs no RNG. *)
  let edge_ticks = Array.make Registry.max_slots 0

  let note_edge s ~holder =
    if holder >= 0 && holder < Registry.max_slots then begin
      let me = Registry.my_id () in
      let v = edge_ticks.(me) + 1 in
      edge_ticks.(me) <- v;
      if v land 7 = 0 then s.st_edges.(holder) <- s.st_edges.(holder) + 1
    end

  let total s off =
    let acc = ref 0 in
    for slot = 0 to Registry.max_slots - 1 do
      acc := !acc + s.st_cells.((slot * stride) + off)
    done;
    !acc

  type summary = {
    sm_site : string;
    sm_acquires : int;
    sm_contended : int;  (** failed try_lock attempts *)
    sm_wait_cycles : int;  (** clock ticks spent in acquisition retry loops *)
    sm_helps : int;
    sm_edges : (int * int) list;
        (** (holder slot, sampled waits), busiest first *)
  }

  let summary s =
    let edges = ref [] in
    Array.iteri
      (fun slot n -> if n > 0 then edges := (slot, n) :: !edges)
      s.st_edges;
    {
      sm_site = s.st_name;
      sm_acquires = total s off_acquires;
      sm_contended = total s off_contended;
      sm_wait_cycles = total s off_wait_cycles;
      sm_helps = total s off_helps;
      sm_edges =
        List.sort (fun (_, a) (_, b) -> compare b a) !edges;
    }

  let summaries () = List.map summary (all ())

  let reset () =
    List.iter
      (fun s ->
        Array.fill s.st_cells 0 (Array.length s.st_cells) 0;
        Array.fill s.st_edges 0 (Array.length s.st_edges) 0)
      (all ())
end

type site_summary = Site.summary = {
  sm_site : string;
  sm_acquires : int;
  sm_contended : int;
  sm_wait_cycles : int;
  sm_helps : int;
  sm_edges : (int * int) list;
}

let site_summaries = Site.summaries

let reset_sites = Site.reset

type t = { state : descr Atomic.t; mode : mode; site : Site.site option }

let create ?mode ?site () =
  let mode = match mode with Some m -> m | None -> default_mode () in
  { state = Atomic.make unlocked; mode; site = Option.map Site.make site }

(* Distribution of [with_lock] acquisition retries (failed [try_lock]
   attempts before success).  Uncontended acquisitions (0 retries) are
   not recorded so the uncontended fast path stays store-free; derive
   their count from the operation count if needed. *)
let retries_hist = Telemetry.Hist.make "lock_retries"

(* Fault-injection sites (docs/RESILIENCE.md): the paper's helping
   windows.  [lock.acquire] fires with the lock {e held} by the hitting
   domain — its descriptor installed and taken but its critical section
   not yet run — so a [stall] there is the Theorem 6.1 crash-stop
   schedule (peers finish via helping in lock-free mode; in blocking
   mode contenders convoy, which is the point of that control).
   [lock.help] fires on entry to a help, [lock.release] just before the
   release CAS. *)
let fp_acquire = Fault.Point.make "lock.acquire"

let fp_help = Fault.Point.make "lock.help"

let fp_release = Fault.Point.make "lock.release"

let helps = Atomic.make 0

let retires = Atomic.make 0

let help_count () = Atomic.get helps

let retire_count () = Atomic.get retires

let new_obj f = Idem.once f

let retire _x = Atomic.incr retires

(* Run [d]'s thunk (as owner or helper), record the agreed outcome and
   release the lock.  Safe to call repeatedly and concurrently: the thunk
   is idempotent by the FLOCK contract, the outcome is installed with a
   CAS-once, and the release only succeeds from this exact descriptor.

   A descriptor observed inside the lock with status [Pending] belongs to
   an owner that installed it but was preempted before voting; completing
   the acquire on its behalf (CAS to [Taken]) is safe because abort votes
   only arise from acquire participants that observed the install failing,
   which cannot have happened while [d] still occupies the lock. *)
let run_and_release t d =
  (match Atomic.get d.status with
   | Pending -> ignore (Atomic.compare_and_set d.status Pending Taken)
   | Taken | Aborted -> ());
  (match Atomic.get d.status with
   | Taken ->
       (match Atomic.get d.result with
        | Some _ -> ()
        | None ->
            Idem.enter d.log;
            let out = (try Value (d.thunk ()) with e -> Raised e) in
            Idem.exit ();
            ignore (Atomic.compare_and_set d.result None (Some out)))
   | Aborted | Pending ->
       (* Aborted descriptors can transiently occupy the lock when a slow
          helper's install CAS lands after the abort decision; they are
          simply removed below without running anything. *)
       ());
  Fault.hit fp_release;
  ignore (Atomic.compare_and_set t.state d unlocked)

let help t d =
  Atomic.incr helps;
  (match t.site with Some s -> Site.bump s Site.off_helps | None -> ());
  Telemetry.emit Telemetry.ev_lock_help 0;
  Fault.hit fp_help;
  run_and_release t d

(* Publish (or clear) the calling domain's "holding <site>" activity
   frame.  Used to bracket the [lock.acquire] fault point: a stall there
   parks the owner with the lock held but its critical section not yet
   run, which is exactly when [instrumented] below has not published the
   hold frame yet — without this the sampler shows a convoyed owner with
   no site attribution at all. *)
let publish_hold t v =
  match t.site with
  | Some s when Telemetry.Activity.on () ->
      Telemetry.Activity.set Telemetry.Activity.dim_lock_hold
        (if v then s.Site.st_activity else 0)
  | Some _ | None -> ()

(* Lock-free acquisition.  The decision (taken/aborted) must be identical
   for the original caller and every helper replaying the enclosing
   critical section, so (1) the candidate descriptor is allocated through
   the log, (2) the observed lock state is read through the log, and (3)
   the final verdict is the descriptor's monotone status field rather than
   the outcome of any individual machine CAS. *)
let try_lock_free t (f : unit -> Obj.t) : Obj.t option =
  let d =
    Idem.once (fun () ->
        { thunk = f;
          log = Idem.create_log ();
          status = Atomic.make Pending;
          result = Atomic.make None;
          owner_slot = Registry.my_id () })
  in
  let observed = Idem.get t.state in
  if observed != unlocked then begin
    help t observed;
    None
  end
  else begin
    let installed = Atomic.compare_and_set t.state unlocked d in
    if installed then begin
      ignore (Atomic.compare_and_set d.status Pending Taken);
      (* The acquirer owns the lock but has not run its critical section:
         a stall here is the crash-stop schedule of Theorem 6.1.  A
         [fail] rule must not leak the held lock — complete the acquire
         (thunk + release) before propagating. *)
      publish_hold t true;
      (try Fault.hit fp_acquire
       with e ->
         publish_hold t false;
         run_and_release t d;
         raise e);
      publish_hold t false
    end
    else if Atomic.get t.state == d then
      (* Another helper of this same acquire installed d. *)
      ignore (Atomic.compare_and_set d.status Pending Taken)
    else
      (* Contended: vote to abort.  If a racing helper already took it,
         the CAS fails and the agreed verdict below is Taken. *)
      ignore (Atomic.compare_and_set d.status Pending Aborted);
    match Atomic.get d.status with
    | Taken -> begin
        run_and_release t d;
        match Atomic.get d.result with
        | Some (Value v) -> Some v
        | Some (Raised e) -> raise e
        | None -> assert false
      end
    | Aborted -> begin
        (* Our install may still land later (a slow helper); anyone seeing
           an aborted descriptor in the lock removes it (run_and_release).
           Meanwhile help whoever actually holds the lock. *)
        let cur = Atomic.get t.state in
        if cur != unlocked then help t cur;
        None
      end
    | Pending -> assert false
  end

(* Blocking mode: plain test-and-set with a fresh descriptor as the
   ownership token; no helping, so a preempted owner stalls contenders —
   the behaviour the oversubscription experiments measure. *)
let try_lock_blocking t f =
  let token =
    { thunk = (fun () -> assert false);
      log = unlocked.log;
      status = Atomic.make Taken;
      result = Atomic.make None;
      owner_slot = Registry.my_id () }
  in
  if Atomic.compare_and_set t.state unlocked token then begin
    (* Same crash-stop site as the lock-free path, but with no helping:
       a stall here convoys every contender until disarm — the blocking
       control the oversubscription experiments measure.  Inside the
       try so a [fail] rule releases the token like any raising critical
       section. *)
    publish_hold t true;
    let out =
      try
        Fault.hit fp_acquire;
        Ok (f ())
      with e -> Error e
    in
    Atomic.set t.state unlocked;
    publish_hold t false;
    match out with Ok v -> Some v | Error e -> raise e
  end
  else None

(* When the profiler gate is open and the lock carries a site, wrap the
   critical section so whichever domain actually runs it (owner or
   helper) publishes "holding <site>" for the sampler's benefit.  The
   wrapper (one closure) is only built on profiled runs. *)
let instrumented t (f : unit -> 'a) : unit -> 'a =
  match t.site with
  | Some s when Telemetry.Activity.on () ->
      fun () ->
        Telemetry.Activity.set Telemetry.Activity.dim_lock_hold
          s.Site.st_activity;
        Fun.protect
          ~finally:(fun () ->
            Telemetry.Activity.set Telemetry.Activity.dim_lock_hold 0)
          f
  | Some _ | None -> f

let try_lock (type a) t (f : unit -> a) : a option =
  let f = instrumented t f in
  let r =
    match t.mode with
    | Blocking -> try_lock_blocking t f
    | Lock_free -> begin
        (* Inside an epoch from before the lock word is read until the
           thunk has run: a helper that lags behind the section it helps
           is then still announced, which is what lets a versioned
           pointer hold back a shortcut that could bring an old head
           back under that helper's machine CAS (Vptr.shortcut). *)
        let g () = Obj.repr (f ()) in
        match
          if Epoch.in_epoch () then try_lock_free t g
          else Epoch.with_epoch (fun () -> try_lock_free t g)
        with
        | None -> None
        | Some v -> Some (Obj.obj v)
      end
  in
  (match t.site with
   | None -> ()
   | Some s -> (
       match r with
       | Some _ -> Site.bump s Site.off_acquires
       | None ->
           Site.bump s Site.off_contended;
           Site.note_edge s ~holder:(Atomic.get t.state).owner_slot));
  r

let try_lock_bool t f =
  match try_lock t f with None -> false | Some b -> b

let with_lock t f =
  let b = Backoff.create () in
  let clear_wait () =
    if Telemetry.Activity.on () then
      Telemetry.Activity.set Telemetry.Activity.dim_lock_wait 0
  in
  let rec loop t0 retries =
    match try_lock t f with
    | Some v ->
        if retries > 0 then begin
          Telemetry.Hist.observe retries_hist retries;
          (match t.site with
           | Some s ->
               Site.add s Site.off_wait_cycles
                 (max 0 (Telemetry.now () - t0))
           | None -> ());
          clear_wait ()
        end;
        Telemetry.emit Telemetry.ev_lock_acquire retries;
        v
    | None ->
        let t0 =
          if retries = 0 then begin
            (match t.site with
             | Some s when Telemetry.Activity.on () ->
                 Telemetry.Activity.set Telemetry.Activity.dim_lock_wait
                   s.Site.st_activity
             | Some _ | None -> ());
            Telemetry.now ()
          end
          else t0
        in
        Backoff.once b;
        loop t0 (retries + 1)
  in
  try loop 0 0
  with e ->
    clear_wait ();
    raise e
