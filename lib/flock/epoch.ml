let quiescent = max_int

(* announcement.(i) = epoch domain [i] entered, or [quiescent]. *)
let announcement : int Atomic.t array =
  Array.init Registry.max_slots (fun _ -> Atomic.make quiescent)

let global = Atomic.make 0

let current_epoch () = Atomic.get global

(* Reclamation-health gauge (captured into [Verlib.Obs] reports): how
   far the slowest active domain trails the global epoch (0 when every
   domain is quiescent or caught up).  A large lag means [passed] stays
   false for recent epochs, so link shortcuts above us are held back and
   version chains cannot shorten. *)
let epoch_lag () =
  let m = ref quiescent in
  Registry.iter_ids (fun i ->
      let a = Atomic.get announcement.(i) in
      if a < !m then m := a);
  if !m = quiescent then 0 else max 0 (Atomic.get global - !m)

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

(* Fault-injection sites: [epoch.enter] fires with the domain announced
   in the current epoch — a pause there is a stalled reclaimer (the
   global epoch cannot pass it; [epoch_lag] climbs and [passed] stays
   false for later epochs until it releases).  [epoch.advance] fires
   between reading the global epoch and the advance CAS. *)
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
      Atomic.set slot quiescent
    in
    Fun.protect ~finally f
  end
