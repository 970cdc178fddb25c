let idle = max_int

(* announced.(i) = stamp of domain i's ongoing snapshot, or [idle]. *)
let announced : int Atomic.t array =
  Array.init Flock.Registry.max_slots (fun _ -> Atomic.make idle)

let announce s = Atomic.set announced.(Flock.Registry.my_id ()) s

let withdraw () = Atomic.set announced.(Flock.Registry.my_id ()) idle

(* Cache is monotone non-decreasing.  Any past refresh result remains a
   valid lower bound: a snapshot that starts later picks a stamp at least
   the clock value observed during the refresh. *)
let cache = Atomic.make 0

let rec raise_cache fresh =
  let c = Atomic.get cache in
  if fresh > c && not (Atomic.compare_and_set cache c fresh) then raise_cache fresh

(* Allocation-free: the fold's function has no free variables, and the
   refresh runs on the load path every [interval] calls. *)
let refresh () =
  (* [Stamp.floor], not [Stamp.read]: under schemes whose snapshots take
     one below the clock, a bound equal to the clock would already exceed
     the stamp of a snapshot starting immediately afterwards. *)
  raise_cache
    (Flock.Registry.fold_ids
       (fun i (m : int) ->
         let a = Atomic.get announced.(i) in
         if a < m then a else m)
       (Stamp.floor ()));
  Atomic.get cache

let reset () = Atomic.set cache 0

(* Reclamation lag of the version layer (a [Telemetry] gauge, captured
   into every [Obs] report): distance between the global clock and the
   lower bound on ongoing snapshot stamps.  Versions older than the
   bound are reclaimable (shortcuttable / truncatable); a growing lag
   means some snapshot is pinning history — the space failure mode the
   multiversion-GC literature bounds. *)
let (_ : Flock.Telemetry.Gauge.t) =
  Flock.Telemetry.Gauge.make "stamp_lag" (fun () ->
      max 0 (Stamp.read () - refresh ()))

let interval = 32

let countdown : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let get () =
  let c = Domain.DLS.get countdown in
  if !c > 0 then begin
    decr c;
    Atomic.get cache
  end
  else begin
    c := interval;
    refresh ()
  end
