type group = {
  g_count : int;
  g_update_percent : int;
  g_query : Workload.Opgen.query_kind;
}

type spec = {
  map : (module Dstruct.Map_intf.MAP);
  mode : Verlib.Vptr.mode;
  lock_mode : Flock.Lock.mode;
  scheme : Verlib.Stamp.scheme;
  direct_stores : bool;
  n : int;
  theta : float;
  groups : group list;
  duration : float;
  repeats : int;
  seed : int;
  lat_sample : int;
  census : bool;
  census_interval : float;
}

let default_spec map =
  {
    map;
    mode = Verlib.Vptr.Ind_on_need;
    lock_mode = Flock.Lock.Lock_free;
    scheme = Verlib.Stamp.Query_ts;
    direct_stores = true;
    n = 10_000;
    theta = 0.;
    groups =
      [ { g_count = 4; g_update_percent = 20; g_query = Workload.Opgen.Multifinds 16 } ];
    duration = 0.3;
    repeats = 1;
    seed = 42;
    lat_sample = 0;
    census = false;
    census_interval = 0.;
  }

(* Cooperative external stop: the CLIs' SIGINT/SIGTERM handlers call
   [request_stop]; the measurement sleep is sliced so the run winds down
   early but {e completely} — workers and the sweep join, the
   final census, space measurement and report still happen, nothing dies
   mid-write. *)
let external_stop = Atomic.make false

let request_stop () = Atomic.set external_stop true

let interrupted () = Atomic.get external_stop

type result = {
  total_mops : float;
  group_mops : float list;
  aborts : int;
  increments : int;
  final_size : int;
  obs : Verlib.Obs.report;
  space_bytes_per_entry : float;
  census : Verlib.Chainscan.census option;
  census_series : (float * Verlib.Chainscan.census) list;
  alloc_bytes_per_op : float;
  gc_minor : int;
  gc_major : int;
}

let run_once spec =
  let module M = (val spec.map : Dstruct.Map_intf.MAP) in
  Verlib.reset ~scheme:spec.scheme ~lock_mode:spec.lock_mode
    ~direct_stores:spec.direct_stores ();
  let mode = if M.supports_mode spec.mode then spec.mode else Verlib.Vptr.Plain in
  let t = M.create ~mode ~lock_mode:spec.lock_mode ~n_hint:spec.n () in
  let fill_gen =
    Workload.Opgen.create ~theta:spec.theta ~seed:spec.seed ~n:spec.n
      ~update_percent:100 ~query:Workload.Opgen.Finds ()
  in
  Workload.Opgen.fill fill_gen
    (Workload.Splitmix.create (spec.seed + 1))
    ~insert:(fun k v -> M.insert t k v);
  (* per-group generators share universe parameters through the seed *)
  let mk_gen g =
    Workload.Opgen.create ~theta:spec.theta ~seed:spec.seed ~n:spec.n
      ~update_percent:g.g_update_percent ~query:g.g_query ()
  in
  let gens = List.map mk_gen spec.groups in
  let stop = Atomic.make false in
  let go = Atomic.make false in
  let counts =
    List.map (fun g -> Array.init g.g_count (fun _ -> Atomic.make 0)) spec.groups
  in
  let allocs =
    List.map (fun g -> Array.init g.g_count (fun _ -> Atomic.make 0.)) spec.groups
  in
  let exec op =
    match op with
    | Workload.Opgen.Insert (k, v) -> ignore (M.insert t k v)
    | Workload.Opgen.Delete k -> ignore (M.delete t k)
    | Workload.Opgen.Find k -> ignore (M.find t k)
    | Workload.Opgen.Range (a, b) -> ignore (M.range_count t a b)
    | Workload.Opgen.Multifind ks -> ignore (M.multifind t ks)
  in
  let lat_hist op =
    match op with
    | Workload.Opgen.Insert _ -> Verlib.Obs.lat_insert
    | Workload.Opgen.Delete _ -> Verlib.Obs.lat_delete
    | Workload.Opgen.Find _ -> Verlib.Obs.lat_find
    | Workload.Opgen.Range _ -> Verlib.Obs.lat_range
    | Workload.Opgen.Multifind _ -> Verlib.Obs.lat_multifind
  in
  let worker gen cnt alloc tid () =
    let rng = Workload.Splitmix.create ((tid * 7919) + spec.seed + 100) in
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    (* Per-worker allocation accounting: [Gc.allocated_bytes] reads the
       calling domain's own counters (unlike [Gc.quick_stat], which is
       process-wide and backs the [gc_*] gauges), so the delta over the
       measured loop is exactly this worker's allocation — summed and
       divided by ops for the alloc-bytes-per-op figure. *)
    let a0 = Gc.allocated_bytes () in
    let ops = ref 0 in
    if spec.lat_sample > 0 then begin
      (* Sampled per-op latencies: an independent splitmix stream decides
         1-in-[lat_sample] (power of two) whether to bracket the op with
         hardware clock reads, keeping the un-sampled path identical to
         the plain loop apart from one RNG step and branch. *)
      let mask = spec.lat_sample - 1 in
      let srng = Workload.Splitmix.create ((tid * 104729) + spec.seed + 7) in
      while not (Atomic.get stop) do
        let op = Workload.Opgen.next gen rng in
        if Workload.Splitmix.next srng land mask = 0 then begin
          let t0 = Verlib.Hwclock.now () in
          exec op;
          Verlib.Obs.Hist.observe (lat_hist op) (Verlib.Hwclock.now () - t0)
        end
        else exec op;
        incr ops;
        if !ops land 15 = 0 then Atomic.set cnt !ops
      done
    end
    else
      while not (Atomic.get stop) do
        exec (Workload.Opgen.next gen rng);
        incr ops;
        (* amortise the flag check *)
        if !ops land 15 = 0 then Atomic.set cnt !ops
      done;
    Atomic.set cnt !ops;
    Atomic.set alloc (Gc.allocated_bytes () -. a0)
  in
  let iter_targets emit = M.iter_vptrs t emit in
  let series = ref [] in
  (* The run's one background domain, while the workers run: the census
     series (a walk every [census_interval] seconds recording
     (elapsed, census) — chain growth and reclamation lag over time,
     not just the final state) and the profiler's tick when it is
     running. *)
  let sweep_jobs t0 =
    [
      ( (if spec.census then spec.census_interval else 0.),
        fun () ->
          let c = Verlib.Chainscan.census_of_iter iter_targets in
          series := (Unix.gettimeofday () -. t0, c) :: !series );
      ( (if Verlib.Obs.Profile.running () then
           1. /. float_of_int (Verlib.Obs.Profile.hz ())
         else 0.),
        Verlib.Obs.Profile.tick );
    ]
  in
  let domains =
    List.concat
      (List.map2
         (fun ((g, gen), cnts) als ->
           List.init g.g_count (fun i ->
               Domain.spawn
                 (worker gen cnts.(i) als.(i) ((g.g_update_percent * 1000) + i))))
         (List.combine (List.combine spec.groups gens) counts)
         allocs)
  in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  Atomic.set go true;
  let sweep_domain = Sweep.spawn ~stop (sweep_jobs t0) in
  let deadline = t0 +. spec.duration in
  let rec measure () =
    let now = Unix.gettimeofday () in
    if now < deadline && not (Atomic.get external_stop) then begin
      (try Unix.sleepf (Float.min 0.05 (deadline -. now))
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      measure ()
    end
  in
  measure ();
  Atomic.set stop true;
  (* Stamp the end of the measurement window the instant the stop flag is
     raised: workers cease counting as soon as they observe it, so
     including their wind-down (and [Domain.join] scheduling noise) in
     the denominator would deflate throughput. *)
  let t1 = Unix.gettimeofday () in
  List.iter Domain.join domains;
  Option.iter Domain.join sweep_domain;
  let gc1 = Gc.quick_stat () in
  let elapsed = t1 -. t0 in
  let alloc_total =
    List.fold_left
      (fun a als -> Array.fold_left (fun a c -> a +. Atomic.get c) a als)
      0. allocs
  in
  let group_ops =
    List.map (fun cnts -> Array.fold_left (fun a c -> a + Atomic.get c) 0 cnts) counts
  in
  let total_ops = List.fold_left ( + ) 0 group_ops in
  M.check t;
  let entries = M.size t in
  (* Quiescent space measurement: workers are joined, so reachable_words
     sees the settled structure (chains may still hold old versions that
     the next update would truncate — that retained tail is part of the
     cost being measured). *)
  let space = Space.bytes_per_entry ~root:(Obj.repr t) ~entries in
  (* Final census is taken quiescently too, so its audit is exact: any
     violation it reports is a real invariant break, not a race artifact. *)
  let final_census =
    if spec.census then Some (Verlib.Chainscan.census_of_iter iter_targets)
    else None
  in
  {
    total_mops = Float.of_int total_ops /. elapsed /. 1e6;
    group_mops = List.map (fun o -> Float.of_int o /. elapsed /. 1e6) group_ops;
    aborts = Verlib.Stats.total Verlib.Stats.snapshot_aborts;
    increments = Verlib.Stamp.increments ();
    final_size = entries;
    (* Workers are joined, so the capture is exact; counters were reset
       at the top of the run, so totals are per-run deltas. *)
    obs = Verlib.Obs.capture ();
    space_bytes_per_entry = space;
    census = final_census;
    census_series = List.rev !series;
    alloc_bytes_per_op =
      (if total_ops > 0 then alloc_total /. Float.of_int total_ops else 0.);
    (* Collection deltas over the run, read from the spawning domain:
       major collections are a global counter in OCaml 5; the minor
       figure under-counts (domain-local) and is informational. *)
    gc_minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

let run spec =
  (* Stop repeating (but keep every completed run) once an external stop
     is requested. *)
  let reps = max 1 spec.repeats in
  let rec collect acc i =
    if i >= reps then List.rev acc
    else if acc <> [] && interrupted () then List.rev acc
    else collect (run_once spec :: acc) (i + 1)
  in
  let results = collect [] 0 in
  let avg f = List.fold_left (fun a r -> a +. f r) 0. results /. Float.of_int (List.length results) in
  let last = List.nth results (List.length results - 1) in
  {
    total_mops = avg (fun r -> r.total_mops);
    group_mops =
      List.mapi
        (fun i _ -> avg (fun r -> List.nth r.group_mops i))
        (List.hd results).group_mops;
    aborts = last.aborts;
    increments = last.increments;
    final_size = last.final_size;
    obs = last.obs;
    space_bytes_per_entry = last.space_bytes_per_entry;
    census = last.census;
    census_series = last.census_series;
    alloc_bytes_per_op = avg (fun r -> r.alloc_bytes_per_op);
    gc_minor = last.gc_minor;
    gc_major = last.gc_major;
  }
