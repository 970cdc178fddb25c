let quiescent = max_int

(* announcement.(i) = epoch domain [i] entered, or [quiescent]. *)
let announcement : int Atomic.t array =
  Array.init Registry.max_slots (fun _ -> Atomic.make quiescent)

let global = Atomic.make 0

let current_epoch () = Atomic.get global

(* Deferred callbacks, tagged with the epoch in which they were retired.

   One lock-free bucket (a Treiber-style list head) per registry slot:
   a domain pushes onto its OWN bucket with an uncontended CAS and
   flushes it locally on epoch exit, so deferral never crosses a cache
   line another domain is writing and never takes a mutex.  The only
   cross-domain traffic is [flush_all] (tests, quiescent points), which
   steals whole buckets with [Atomic.exchange] — an entry lives in
   exactly one list at a time, so a stolen callback cannot run twice.

   [counts.(i)] tracks bucket [i]'s depth so the [epoch_pending] gauge
   is a sum of [max_slots] atomic reads — O(slots), independent of how
   many callbacks are pending — instead of the previous [List.length]
   under a global mutex (O(pending) inside the hot lock). *)
type entry = { e_epoch : int; e_cb : unit -> unit }

let buckets : entry list Atomic.t array =
  Array.init Registry.max_slots (fun _ -> Atomic.make [])

let counts : int Atomic.t array =
  Array.init Registry.max_slots (fun _ -> Atomic.make 0)

let pending_count () =
  let n = ref 0 in
  for i = 0 to Registry.max_slots - 1 do
    n := !n + Atomic.get counts.(i)
  done;
  !n

(* Reclamation-health gauges (captured into [Verlib.Obs] reports):

   - [epoch_pending]: total depth of the deferred-callback buckets — the
     EBR analogue of the deferred-free list whose growth the
     multiversion-GC line of work (Ben-David et al., Wei & Fatourou)
     identifies as the space failure mode.  Same semantics as before the
     per-domain split: the sum across all buckets.
   - [epoch_lag]: how far the slowest active domain trails the global
     epoch (0 when every domain is quiescent or caught up).  A large lag
     means deferred callbacks — and, above us, version chains — cannot
     drain. *)
let epoch_lag () =
  let m = ref quiescent in
  Registry.iter_ids (fun i ->
      let a = Atomic.get announcement.(i) in
      if a < !m then m := a);
  if !m = quiescent then 0 else max 0 (Atomic.get global - !m)

let (_ : Telemetry.Gauge.t) = Telemetry.Gauge.make "epoch_pending" pending_count

let (_ : Telemetry.Gauge.t) = Telemetry.Gauge.make "epoch_lag" epoch_lag

let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let in_epoch () = !(Domain.DLS.get depth_key) > 0

(* Allocation-free: the fold's function has no free variables.  It runs
   on every epoch entry, and on loads that find a link still held back
   by [passed]. *)
let min_announced () =
  Registry.fold_ids
    (fun i (m : int) ->
      let a = Atomic.get announcement.(i) in
      if a < m then a else m)
    quiescent

(* [e] was read from [current_epoch] at some moment [t].  A domain
   inside an epoch at [t] announced an epoch read before [t], so at most
   [e]; while it stays, [min_announced] is at most [e], and the global
   epoch cannot pass [e + 1] (the advance from [e + 1] needs every
   announcement at [e + 1] or later).  Either test failing its bound
   therefore proves that domain gone.  The first test is one read; the
   scan only runs while the epoch has not moved twice. *)
let passed e = e + 2 <= Atomic.get global || e < min_announced ()

(* Push a batch back onto a bucket (entries that are not yet safe).
   CAS loop because the owner may be pushing concurrently with a
   stealing [flush_all]. *)
let rec push_back slot batch =
  if batch <> [] then begin
    let cur = Atomic.get buckets.(slot) in
    let merged = List.rev_append batch cur in
    if Atomic.compare_and_set buckets.(slot) cur merged then
      ignore (Atomic.fetch_and_add counts.(slot) (List.length batch))
    else push_back slot batch
  end

(* Drain one bucket: steal the whole list, run the entries deferred in
   epochs every domain has since left, re-push the rest.  A callback
   deferred in epoch [e] is safe once no domain is still inside an
   epoch <= e.  Counts are decremented for the stolen batch up front and
   re-added by [push_back], so [pending_count] can transiently dip
   during a flush but never over-reports. *)
let flush_bucket slot =
  match Atomic.exchange buckets.(slot) [] with
  | [] -> ()
  | stolen ->
      ignore (Atomic.fetch_and_add counts.(slot) (-(List.length stolen)));
      let safe_before = min_announced () in
      let run, keep =
        List.partition (fun e -> e.e_epoch < safe_before) stolen
      in
      push_back slot keep;
      List.iter (fun e -> e.e_cb ()) run

(* Local flush: the common path, run on epoch exit — only the calling
   domain's bucket, so exits never scan other domains' deferrals. *)
let flush_local () = flush_bucket (Registry.my_id ())

(* Global flush: every bucket, including those of exited domains.  Used
   by tests and quiescent points (the [flush] of the public API). *)
let flush () =
  for i = 0 to Registry.max_slots - 1 do
    flush_bucket i
  done

let defer cb =
  if not (in_epoch ()) then invalid_arg "Epoch.defer: not inside with_epoch";
  let e = Atomic.get global in
  let slot = Registry.my_id () in
  push_back slot [ { e_epoch = e; e_cb = cb } ]

(* Fault-injection sites: [epoch.enter] fires with the domain announced
   in the current epoch — a pause there is a stalled reclaimer (the
   global epoch cannot pass it; [epoch_lag] climbs and deferred
   callbacks pile up until it releases).  [epoch.advance] fires between
   reading the global epoch and the advance CAS. *)
let fp_enter = Fault.Point.make "epoch.enter"

let fp_advance = Fault.Point.make "epoch.advance"

(* Advance the global epoch if every active domain has caught up with it;
   called on epoch entry so that the clock moves as long as operations keep
   arriving (the standard lazy EBR advance). *)
let try_advance () =
  let g = Atomic.get global in
  Fault.hit fp_advance;
  if min_announced () >= g && Atomic.compare_and_set global g (g + 1) then
    Telemetry.emit Telemetry.ev_epoch_advance (g + 1)

let with_epoch f =
  let depth = Domain.DLS.get depth_key in
  if !depth > 0 then begin
    incr depth;
    Fun.protect ~finally:(fun () -> decr depth) f
  end
  else begin
    let slot = announcement.(Registry.my_id ()) in
    try_advance ();
    Atomic.set slot (Atomic.get global);
    (* Announced and pinned: a pause here stalls reclamation for
       everyone (see fp_enter above).  A [fail] rule must not leak the
       announcement — unpin before propagating. *)
    (try Fault.hit fp_enter
     with e ->
       Atomic.set slot quiescent;
       raise e);
    incr depth;
    let finally () =
      decr depth;
      Atomic.set slot quiescent;
      flush_local ()
    in
    Fun.protect ~finally f
  end
