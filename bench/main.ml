(* Benchmark harness reproducing every figure and table of the paper's
   evaluation (§8), scaled to this machine.  See EXPERIMENTS.md for the
   mapping and for paper-vs-measured discussion.

   Usage:  main.exe [--full|--ci] [--json FILE] [--label TEXT] [section ...]
   Sections: fig8a fig8b fig8c fig8d fig8dlist fig9 fig10 fig11 fig12
             direct_stores extra_skiplist shard_sweep txn micro
             (default: all)

   --json FILE additionally records one machine-readable row per
   benchmark cell (throughput, latency percentiles, chain census, space)
   and writes a Harness.Bench_json document — the BENCH_PR7.json format
   that `make bench-check` diffs against the committed baseline.  --ci is
   a deliberately tiny scale for that gating run. *)

module D = Harness.Driver
module T = Harness.Table
module V = Verlib

type scale = {
  n : int;
  n_dlist : int;
  threads : int;
  duration : float;
  repeats : int;
}

let quick = { n = 10_000; n_dlist = 500; threads = 4; duration = 0.25; repeats = 1 }

let full = { n = 100_000; n_dlist = 1_000; threads = 4; duration = 1.0; repeats = 3 }

(* Regression-gate scale: small enough that the JSON subset finishes in
   well under a minute on one core, large enough that chains actually
   form and the census has something to audit. *)
let ci = { n = 2_000; n_dlist = 300; threads = 2; duration = 0.08; repeats = 1 }

let scale = ref quick

(* --- machine-readable rows (BENCH json) -------------------------------- *)

let json_path : string option ref = ref None

let json_label = ref ""

let json_rows : Harness.Bench_json.row list ref = ref []

let recording () = !json_path <> None

(* Representative per-op latency: the lat_* histogram with the most
   samples (the dominant operation of the mix), as microseconds. *)
let lat_percentiles (r : D.result) =
  let module H = Verlib.Obs.Hist in
  let best =
    List.fold_left
      (fun acc (s : H.summary) ->
        let is_lat =
          String.length s.H.s_name >= 4 && String.sub s.H.s_name 0 4 = "lat_"
        in
        if not (is_lat && s.H.s_count > 0) then acc
        else
          match acc with
          | Some (b : H.summary) when b.H.s_count >= s.H.s_count -> acc
          | _ -> Some s)
      None r.D.obs.Verlib.Obs.hists
  in
  match best with
  | None -> (0., 0.)
  | Some s ->
      (Verlib.Hwclock.to_us s.H.s_p50, Verlib.Hwclock.to_us s.H.s_p99)

let row_of_result ~figure ~label (r : D.result) =
  let p50, p99 = lat_percentiles r in
  let ci_ f = match r.D.census with Some c -> f c | None -> 0 in
  {
    Harness.Bench_json.r_figure = figure;
    r_label = label;
    r_mops = r.D.total_mops;
    r_p50_us = p50;
    r_p99_us = p99;
    r_chain_max = ci_ (fun c -> c.Verlib.Chainscan.c_max_chain);
    r_chain_p99 = ci_ Verlib.Chainscan.chain_p99;
    r_indirect_links = ci_ (fun c -> c.Verlib.Chainscan.c_indirect_links);
    r_reclaimable = ci_ (fun c -> c.Verlib.Chainscan.c_reclaimable);
    r_violations = ci_ (fun c -> c.Verlib.Chainscan.c_violation_count);
    r_space_bytes = r.D.space_bytes_per_entry;
    r_retries = 0;
    r_giveups = 0;
    r_alloc_bytes_per_op = r.D.alloc_bytes_per_op;
    r_gc_minor = r.D.gc_minor;
    r_gc_major = r.D.gc_major;
  }

let record ~figure ~label r =
  if recording () then json_rows := row_of_result ~figure ~label r :: !json_rows

let base_spec map =
  let s = !scale in
  {
    (D.default_spec map) with
    n = s.n;
    duration = s.duration;
    repeats = s.repeats;
    groups =
      [ { D.g_count = s.threads; g_update_percent = 20; g_query = Workload.Opgen.Multifinds 16 } ];
    (* When emitting JSON rows, every run also samples latencies and
       takes a quiescent final census so the rows carry the §4-§5
       mechanism numbers, not just Mops. *)
    lat_sample = (if recording () then 64 else 0);
    census = recording ();
  }

let with_updates spec pct =
  {
    spec with
    D.groups = List.map (fun g -> { g with D.g_update_percent = pct }) spec.D.groups;
  }

(* The versioned-pointer implementation series of Figure 8. *)
let vptr_series =
  V.Vptr.[ Plain; Indirect; No_shortcut; Ind_on_need; Rec_once ]

let series_for (module M : Dstruct.Map_intf.MAP) =
  List.filter M.supports_mode vptr_series

let run_row ?figure ?label spec =
  let r = D.run spec in
  (match (figure, label) with
   | Some figure, Some label -> record ~figure ~label r
   | _ -> ());
  r.D.total_mops

(* --- Figure 8: versioned pointer implementations ----------------------- *)

let fig8_panel ~figure ~title ~map ~xs ~make_spec ~xlabel =
  let module M = (val map : Dstruct.Map_intf.MAP) in
  let series = series_for map in
  let header = xlabel :: List.map V.Vptr.mode_name series in
  let rows =
    List.map
      (fun x ->
        string_of_int x
        :: List.map
             (fun mode ->
               T.mops
                 (run_row ~figure
                    ~label:(Printf.sprintf "%s%d %s" xlabel x (V.Vptr.mode_name mode))
                    { (make_spec x) with D.mode = mode }))
             series)
      xs
  in
  T.print ~title ~header rows

let fig8a () =
  let spec = base_spec (module Dstruct.Btree) in
  fig8_panel ~figure:"fig8a" ~title:"Figure 8a: btree, throughput (Mop/s) vs update %"
    ~map:(module Dstruct.Btree)
    ~xs:[ 0; 5; 20; 50; 100 ]
    ~make_spec:(fun pct -> with_updates spec pct)
    ~xlabel:"update%"

let fig8b () =
  let spec = base_spec (module Dstruct.Btree) in
  (* --full reaches 4M keys: a working set of hundreds of MB, well past
     L3, where a direct load's saved cache miss should show. *)
  let sizes =
    if !scale == full then [ 1_000; 10_000; 100_000; 1_000_000; 4_000_000 ]
    else [ 1_000; 10_000; 100_000 ]
  in
  fig8_panel ~figure:"fig8b" ~title:"Figure 8b: btree, throughput (Mop/s) vs size"
    ~map:(module Dstruct.Btree)
    ~xs:sizes
    ~make_spec:(fun n -> { spec with D.n })
    ~xlabel:"size"

let fig8c () =
  let spec = base_spec (module Dstruct.Arttree) in
  fig8_panel ~figure:"fig8c" ~title:"Figure 8c: arttree, throughput (Mop/s) vs update %"
    ~map:(module Dstruct.Arttree)
    ~xs:[ 0; 5; 20; 50; 100 ]
    ~make_spec:(fun pct -> with_updates spec pct)
    ~xlabel:"update%"

let fig8d () =
  let spec = base_spec (module Dstruct.Btree) in
  let module M = Dstruct.Btree in
  let thetas = [ (0, 0.); (50, 0.5); (75, 0.75); (90, 0.9); (99, 0.99) ] in
  let series = series_for (module Dstruct.Btree) in
  let header = "zipf(%)" :: List.map V.Vptr.mode_name series in
  let rows =
    List.map
      (fun (label, theta) ->
        Printf.sprintf "0.%02d" label
        :: List.map
             (fun mode -> T.mops (run_row { spec with D.mode; theta }))
             series)
      thetas
  in
  T.print ~title:"Figure 8d: btree, throughput (Mop/s) vs Zipfian parameter" ~header rows

let fig8dlist () =
  let spec = { (base_spec (module Dstruct.Dlist)) with D.n = !scale.n_dlist } in
  fig8_panel ~figure:"fig8dlist"
    ~title:"Figure 8 (dlist panel): dlist, throughput (Mop/s) vs update %"
    ~map:(module Dstruct.Dlist)
    ~xs:[ 0; 20; 50 ]
    ~make_spec:(fun pct -> with_updates spec pct)
    ~xlabel:"update%"

(* --- Figure 9: timestamp schemes on the hash table --------------------- *)

let fig9 () =
  let spec = base_spec (module Dstruct.Hashtable) in
  let schemes = V.Stamp.all_schemes in
  let header = "update%" :: List.map V.Stamp.scheme_name schemes in
  let rows =
    List.map
      (fun pct ->
        string_of_int pct
        :: List.map
             (fun scheme ->
               T.mops
                 (run_row ~figure:"fig9"
                    ~label:(Printf.sprintf "update%%%d %s" pct (V.Stamp.scheme_name scheme))
                    { (with_updates spec pct) with D.scheme }))
             schemes)
      [ 0; 5; 20; 50; 100 ]
  in
  T.print
    ~title:"Figure 9: hashtable, timestamp schemes, throughput (Mop/s) vs update %"
    ~header rows;
  (* companion: clock increments per scheme at 50% updates, showing the
     contention each scheme induces *)
  let rows2 =
    List.map
      (fun scheme ->
        let r = D.run { (with_updates spec 50) with D.scheme } in
        [
          V.Stamp.scheme_name scheme;
          T.mops r.D.total_mops;
          string_of_int r.D.increments;
          string_of_int r.D.aborts;
        ])
      schemes
  in
  T.print ~title:"Figure 9 companion: scheme behaviour at 50% updates"
    ~header:[ "scheme"; "Mop/s"; "clock increments"; "optimistic aborts" ] rows2

(* --- Figure 10: range queries vs other range-queriable structures ------ *)

let fig10 () =
  let s = !scale in
  let groups rq_size =
    [
      { D.g_count = 1; g_update_percent = 100; g_query = Workload.Opgen.Finds };
      {
        D.g_count = max 1 (s.threads - 1);
        g_update_percent = 0;
        g_query = Workload.Opgen.Ranges rq_size;
      };
    ]
  in
  let contenders =
    [
      ("btree (Verlib)", Harness.Registry.find "btree", V.Vptr.Ind_on_need);
      ("btree (non-vers.)", Harness.Registry.find "btree", V.Vptr.Plain);
      ("arttree (Verlib)", Harness.Registry.find "arttree", V.Vptr.Ind_on_need);
      ("vbst (validated RQ)", Harness.Registry.find "vbst", V.Vptr.Plain);
      ("coarse (RW-locked)", Harness.Registry.find "coarse", V.Vptr.Plain);
    ]
  in
  (* Dispatch on the typed capability: only Ordered_range structures can
     sit in a range-query figure (an Unordered contender would raise). *)
  let contenders =
    List.filter
      (fun (_, map, _) ->
        let module M = (val map : Dstruct.Map_intf.MAP) in
        match M.range_capability with
        | Dstruct.Map_intf.Ordered_range -> true
        | Dstruct.Map_intf.Unordered -> false)
      contenders
  in
  List.iter
    (fun rq_size ->
      let rows =
        List.map
          (fun (label, map, mode) ->
            let spec =
              { (base_spec map) with D.mode; groups = groups rq_size }
            in
            let r = D.run spec in
            let upd, rq =
              match r.D.group_mops with [ u; q ] -> (u, q) | _ -> (0., 0.)
            in
            [ label; T.mops (upd *. 1000.); T.mops (rq *. 1000.); T.mops r.D.total_mops ])
          contenders
      in
      T.print
        ~title:
          (Printf.sprintf
             "Figure 10: range queries of expected size %d (1 update thread, %d RQ threads)"
             rq_size (max 1 (s.threads - 1)))
        ~header:[ "structure"; "updates Kop/s"; "RQs Kop/s"; "total Mop/s" ]
        rows)
    [ 16; 256; 4096 ]

(* --- Figure 11: scalability / oversubscription ------------------------- *)

let fig11 () =
  let thread_counts = [ 1; 2; 4; 8 ] in
  let make map label mode lock_mode =
    ( label,
      fun threads ->
        let spec =
          {
            (base_spec map) with
            D.mode;
            lock_mode;
            theta = 0.99;
            groups =
              [ { D.g_count = threads; g_update_percent = 5; g_query = Workload.Opgen.Finds } ];
          }
        in
        run_row spec )
  in
  let series =
    [
      make (module Dstruct.Btree) "btree lock-free" V.Vptr.Ind_on_need Flock.Lock.Lock_free;
      make (module Dstruct.Btree) "btree blocking" V.Vptr.Ind_on_need Flock.Lock.Blocking;
      make (module Dstruct.Arttree) "arttree lock-free" V.Vptr.Ind_on_need Flock.Lock.Lock_free;
      make (module Dstruct.Arttree) "arttree blocking" V.Vptr.Ind_on_need Flock.Lock.Blocking;
      make (module Dstruct.Vbst) "vbst (blocking baseline)" V.Vptr.Plain Flock.Lock.Blocking;
    ]
  in
  let header = "threads" :: List.map fst series in
  let rows =
    List.map
      (fun th -> string_of_int th :: List.map (fun (_, f) -> T.mops (f th)) series)
      thread_counts
  in
  T.print
    ~title:
      "Figure 11: scalability, 5% updates 95% finds, Zipf 0.99 (1 hardware core: >1 \
       thread is oversubscribed)"
    ~header rows

(* --- Figure 12: space --------------------------------------------------- *)

let fig12 () =
  let n = min !scale.n 50_000 in
  let structures =
    [ "arttree"; "btree"; "hashtable"; "dlist"; "vbst"; "coarse" ]
  in
  let measure name mode =
    let map = Harness.Registry.find name in
    let module M = (val map : Dstruct.Map_intf.MAP) in
    if not (M.supports_mode mode) then None
    else begin
      V.reset ();
      let n = if name = "dlist" then min n 2_000 else n in
      let t = M.create ~mode ~n_hint:n () in
      let gen =
        Workload.Opgen.create ~n ~update_percent:100 ~query:Workload.Opgen.Finds ()
      in
      Workload.Opgen.fill gen (Workload.Splitmix.create 7) ~insert:(fun k v ->
          M.insert t k v);
      let entries = M.size t in
      let bytes = Harness.Space.bytes_per_entry ~root:(Obj.repr t) ~entries in
      if recording () then
        json_rows :=
          {
            Harness.Bench_json.r_figure = "fig12";
            r_label = Printf.sprintf "%s %s" name (V.Vptr.mode_name mode);
            r_mops = 0.;
            r_p50_us = 0.;
            r_p99_us = 0.;
            r_chain_max = 0;
            r_chain_p99 = 0;
            r_indirect_links = 0;
            r_reclaimable = 0;
            r_violations = 0;
            r_space_bytes = bytes;
            r_retries = 0;
            r_giveups = 0;
            r_alloc_bytes_per_op = 0.;
            r_gc_minor = 0;
            r_gc_major = 0;
          }
          :: !json_rows;
      Some bytes
    end
  in
  let fmt = function Some b -> Printf.sprintf "%.1f" b | None -> "-" in
  let rows =
    List.map
      (fun name ->
        [
          name;
          fmt (measure name V.Vptr.Plain);
          fmt (measure name V.Vptr.Ind_on_need);
        ])
      structures
  in
  T.print
    ~title:(Printf.sprintf "Figure 12: space, bytes per entry (n = %d)" n)
    ~header:[ "structure"; "Non-versioned"; "Versioned" ]
    rows

(* --- §8.1 Direct stores ablation ---------------------------------------- *)

let direct_stores () =
  let spec = with_updates (base_spec (module Dstruct.Btree)) 50 in
  let on = run_row { spec with D.direct_stores = true } in
  let off = run_row { spec with D.direct_stores = false } in
  T.print ~title:"Direct stores (§8.1): btree, 50% updates"
    ~header:[ "store implementation"; "Mop/s" ]
    [
      [ "store_norace (direct)"; T.mops on ];
      [ "load-then-CAS"; T.mops off ];
      [ "improvement"; Printf.sprintf "%.1f%%" ((on -. off) /. off *. 100.) ];
    ]

(* --- Extra: skiplist, where indirection-on-need earns its keep ---------- *)

(* Linking a node into an upper skip-list level stores an already-claimed
   object — Figure 1's metadata-sharing situation — so unlike the other
   structures, this one creates indirect links on inserts, not just
   deletes.  The table shows throughput alongside the §5 mechanism
   counters: links created, links shortcut out, chains truncated. *)
let extra_skiplist () =
  let spec = base_spec (module Dstruct.Skiplist) in
  let series = series_for (module Dstruct.Skiplist) in
  let rows =
    List.map
      (fun mode ->
        let r = D.run { spec with D.mode } in
        record ~figure:"extra_skiplist" ~label:(V.Vptr.mode_name mode) r;
        [
          V.Vptr.mode_name mode;
          T.mops r.D.total_mops;
          string_of_int (V.Stats.total V.Stats.indirect_created);
          string_of_int (V.Stats.total V.Stats.shortcuts);
          string_of_int (V.Stats.total V.Stats.truncations);
        ])
      series
  in
  T.print
    ~title:"Extra: skiplist (fully versioned towers), 20% updates + multifinds"
    ~header:[ "mode"; "Mop/s"; "links created"; "shortcuts"; "truncations" ]
    rows

(* --- Shard sweep: partitioned maps, snapshot-atomic cross-shard reads --- *)

(* The scale-out figure: one logical map over 1/2/4/8 shards
   ([Dstruct.Sharded]), same mixed workload as Figure 8 (20% updates +
   multifinds).  Every multifind crosses shards under ONE snapshot, so
   the sweep measures what partitioning costs when atomicity is an O(1)
   timestamp read — the row set `make bench-check` gates, and the gate
   for sharded maps (a served mount routes through the same maps).
   Shard count 1 is the bare base structure (the combinator absent, not
   merely degenerate), making the x1 column a direct overhead
   reference. *)
let shard_sweep () =
  let bases = [ "btree"; "hashtable" ] in
  let counts = [ 1; 2; 4; 8 ] in
  let header = "shards" :: bases in
  let rows =
    List.map
      (fun c ->
        string_of_int c
        :: List.map
             (fun base ->
               let spec_name =
                 if c = 1 then base else Printf.sprintf "sharded-%s:%d" base c
               in
               let map = Harness.Registry.find spec_name in
               T.mops
                 (run_row ~figure:"shard_sweep"
                    ~label:(Printf.sprintf "%s x%d" base c)
                    (base_spec map)))
             bases)
      counts
  in
  T.print
    ~title:
      "Shard sweep: throughput (Mop/s) vs shard count, 20% updates + multifinds \
       (cross-shard multi-point reads under one snapshot)"
    ~header rows

(* --- Bechamel microbenchmarks ------------------------------------------- *)

type uobj = Obj of { v : int; meta : uobj V.Vtypes.meta } | Ulink of uobj V.Vtypes.link | Unull

(* --- Transactions: OCC commit throughput --------------------------------- *)

(* Multi-domain transaction throughput over a btree-backed Txn.Store:
   each domain runs back-to-back read-modify-write transactions of
   [tsize] ops (DEL+PUT rewrite pairs over distinct random keys, the
   bank transfer shape).  Contention is set by the key universe — "low"
   spreads the transactions over the full scale-n key space, "high"
   packs them onto 64 keys so write sets collide constantly.  Per cell:
   r_mops = committed transactions (in Mops units, to match the shared
   row schema), r_retries = validation conflicts the retry loop
   absorbed, r_giveups = aborts past the retry budget.  The figure
   gates through bench_diff like the structural ones: an OCC regression
   shows up either as a commit-rate collapse or as a retry explosion. *)
let txn_fig () =
  let module M = Dstruct.Btree in
  let threads = !scale.threads and duration = !scale.duration in
  let cell ~label ~universe ~tsize =
    V.reset ();
    let h = M.create ~n_hint:universe () in
    let store = Txn.Store.create (module M) h in
    for k = 1 to universe do
      ignore (M.insert h k k)
    done;
    let r0 = Txn.validation_retries () and a0 = Txn.aborts () in
    let stop = Atomic.make false in
    let committed = Atomic.make 0 and aborted = Atomic.make 0 in
    let worker wid () =
      let rng = Workload.Splitmix.create (0x7a11 + (wid * 7919)) in
      let rec distinct acc n =
        if n = 0 then acc
        else
          let k = 1 + Workload.Splitmix.below rng universe in
          if List.mem k acc then distinct acc n
          else distinct (k :: acc) (n - 1)
      in
      while not (Atomic.get stop) do
        let ops =
          distinct [] (tsize / 2)
          |> List.concat_map (fun k ->
                 [ Txn.Del k; Txn.Put (k, Workload.Splitmix.below rng 1_000) ])
        in
        match Txn.exec store ops with
        | Txn.Committed _ -> Atomic.incr committed
        | Txn.Aborted _ -> Atomic.incr aborted
      done
    in
    let t0 = Unix.gettimeofday () in
    let ds = List.init threads (fun w -> Domain.spawn (worker w)) in
    Unix.sleepf duration;
    Atomic.set stop true;
    List.iter Domain.join ds;
    let elapsed = Unix.gettimeofday () -. t0 in
    let commits = Atomic.get committed in
    let retries = Txn.validation_retries () - r0 in
    let aborts = Txn.aborts () - a0 in
    if recording () then
      json_rows :=
        {
          Harness.Bench_json.r_figure = "txn";
          r_label = label;
          r_mops = float_of_int commits /. elapsed /. 1e6;
          r_p50_us = 0.;
          r_p99_us = 0.;
          r_chain_max = 0;
          r_chain_p99 = 0;
          r_indirect_links = 0;
          r_reclaimable = 0;
          r_violations = 0;
          r_space_bytes = 0.;
          r_retries = retries;
          r_giveups = aborts;
          r_alloc_bytes_per_op = 0.;
          r_gc_minor = 0;
          r_gc_major = 0;
        }
        :: !json_rows;
    [
      label;
      Printf.sprintf "%.1f" (float_of_int commits /. elapsed /. 1e3);
      string_of_int retries;
      string_of_int (Atomic.get aborted);
    ]
  in
  let rows =
    [
      cell ~label:"t2-low" ~universe:!scale.n ~tsize:2;
      cell ~label:"t2-high" ~universe:64 ~tsize:2;
      cell ~label:"t8-low" ~universe:!scale.n ~tsize:8;
      cell ~label:"t8-high" ~universe:64 ~tsize:8;
    ]
  in
  T.print
    ~title:
      (Printf.sprintf
         "Transactions: OCC commit rate, %d domain(s) (t<N> = ops/txn; \
          low/high = contention)"
         threads)
    ~header:[ "cell"; "kcommit/s"; "val retries"; "aborts" ]
    rows

(* Cache-cold btree finds: 100k keys, and between batches of 16 finds a
   2 MB buffer is streamed through the cache so every batch starts cold,
   the way a served request finds the tree behind the client.  Reports
   ns per find for one mode. *)
let cold_find_ns mode =
  let module M = Dstruct.Btree in
  V.reset ();
  let n = 100_000 and batch = 16 and batches = 2_000 in
  let h = M.create ~mode ~n_hint:n () in
  for k = 1 to n do
    ignore (M.insert h k k)
  done;
  let junk = Bytes.create (2 * 1024 * 1024) in
  let stream () =
    (* one write per cache line *)
    let i = ref 0 in
    while !i < Bytes.length junk do
      Bytes.unsafe_set junk !i 'x';
      i := !i + 64
    done
  in
  let rng = Workload.Splitmix.create 0xc01d in
  let keys = Array.init (batch * batches) (fun _ -> 1 + Workload.Splitmix.below rng n) in
  let found = ref 0 and ticks = ref 0 in
  for b = 0 to batches - 1 do
    stream ();
    let t0 = V.Hwclock.now () in
    for j = 0 to batch - 1 do
      if M.find h keys.((b * batch) + j) <> None then incr found
    done;
    ticks := !ticks + (V.Hwclock.now () - t0)
  done;
  if !found <> batch * batches then failwith "micro: cold find lost a key";
  V.Hwclock.to_us !ticks *. 1e3 /. float_of_int (batch * batches)

(* Btree writes on a 100k-key tree, ns per op (best of 3 passes over
   100k keys in scrambled order): [insert] and [upsert] of absent keys
   (shed again untimed after each pass), and an overwrite of present
   keys as [delete] then [insert] or as one [upsert].  An upsert of an
   absent key makes one descent, so it should cost what an insert does. *)
let btree_writes_ns () =
  let module M = Dstruct.Btree in
  V.reset ();
  let n = 100_000 in
  let h = M.create ~n_hint:(2 * n) () in
  for k = 1 to n do
    ignore (M.insert h (2 * k) k)
  done;
  let keys = Array.init n (fun i -> 1 + (2 * (i * 7919 mod n))) in
  let best f ~shed =
    let b = ref infinity in
    for _ = 1 to 3 do
      let t0 = V.Hwclock.now () in
      Array.iter f keys;
      b := Float.min !b (V.Hwclock.to_us (V.Hwclock.now () - t0) *. 1e3 /. float_of_int n);
      if shed then Array.iter (fun k -> ignore (M.delete h k)) keys
    done;
    !b
  in
  [
    ("insert, absent key", best (fun k -> ignore (M.insert h k k)) ~shed:true);
    ("upsert, absent key", best (fun k -> ignore (M.upsert h k k)) ~shed:true);
    ( "delete+insert, present key",
      best (fun k -> ignore (M.delete h (k + 1)); ignore (M.insert h (k + 1) k)) ~shed:false );
    ("upsert, present key", best (fun k -> ignore (M.upsert h (k + 1) k)) ~shed:false);
  ]

(* One served GET's request span, driven the way the server drives it
   ([Server.step], [exec_line], [emit]): start backdated to the batch
   mark with [parse] open, the [queue] credit, the verb, [op] before the
   mount call, [reply] before rendering, finish with an outcome.
   Returns ns and minor-heap words per command. *)
let span_lifecycle () =
  let module Span = V.Obs.Span in
  V.reset ();
  let n = 1_000_000 in
  let mark = ref (V.Hwclock.now ()) and outcome = ref "ok" in
  let once () =
    let sp = Span.start ~begin_ticks:!mark ~cmd:"?" in
    Span.add_to sp Span.Queue (sp.Span.sp_last - sp.Span.sp_begin);
    Span.set_cmd sp "GET";
    Span.switch sp Span.Op;
    Span.switch sp Span.Reply;
    Span.finish sp ~outcome:!outcome;
    mark := sp.Span.sp_end
  in
  for _ = 1 to 10_000 do
    once ()
  done;
  let w0 = Gc.minor_words () and t0 = V.Hwclock.now () in
  for _ = 1 to n do
    once ()
  done;
  let ticks = V.Hwclock.now () - t0 and words = Gc.minor_words () -. w0 in
  (V.Hwclock.to_us ticks *. 1e3 /. float_of_int n, words /. float_of_int n)

let micro () =
  let open Bechamel in
  let mk v = Obj { v; meta = V.Vtypes.fresh_meta Unull } in
  let desc mode =
    V.Vptr.make_desc
      ~meta_of:(function
        | Obj o -> o.meta
        | Ulink l -> l.lmeta
        | Unull -> invalid_arg "micro: null has no metadata")
      ~null:Unull
      ~link:(fun l -> Ulink l)
      ~link_of:(function Ulink l -> l | _ -> invalid_arg "micro: not a link")
      ~value_of:(function Ulink l -> l.lvalue | o -> o)
      ~mode
  in
  V.reset ();
  let mk_ptr mode =
    let d = desc mode in
    (d, V.Vptr.make d (mk 1))
  in
  let load_test mode =
    let d, p = mk_ptr mode in
    Test.make ~name:("load " ^ V.Vptr.mode_name mode) (Staged.stage (fun () -> V.Vptr.load d p))
  in
  let store_test mode =
    let d, p = mk_ptr mode in
    Test.make
      ~name:("store " ^ V.Vptr.mode_name mode)
      (Staged.stage (fun () -> V.Vptr.store_norace d p (mk 2)))
  in
  let cas_test mode =
    let d, p = mk_ptr mode in
    Test.make
      ~name:("cas " ^ V.Vptr.mode_name mode)
      (Staged.stage (fun () ->
           let cur = V.Vptr.load d p in
           ignore (V.Vptr.cas d p cur (mk 2))))
  in
  let snapshot_test scheme =
    V.Stamp.set_scheme scheme;
    let d, p = mk_ptr V.Vptr.Ind_on_need in
    Test.make
      ~name:("with_snapshot " ^ V.Stamp.scheme_name scheme)
      (Staged.stage (fun () -> V.with_snapshot (fun () -> V.Vptr.load d p)))
  in
  let modes = V.Vptr.[ Plain; Indirect; Ind_on_need ] in
  let tests =
    Test.make_grouped ~name:"vptr" ~fmt:"%s %s"
      (List.map load_test modes @ List.map store_test modes @ List.map cas_test modes)
  in
  let snap_tests =
    Test.make_grouped ~name:"snapshot" ~fmt:"%s %s"
      (List.map snapshot_test V.Stamp.[ Query_ts; Hw_ts; Opt_ts ])
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let report title test =
    let raw = Benchmark.all cfg [ instance ] test in
    let res = Analyze.all ols instance raw in
    let rows = ref [] in
    Hashtbl.iter
      (fun name o ->
        let est =
          match Analyze.OLS.estimates o with
          | Some [ e ] -> Printf.sprintf "%.1f" e
          | Some _ | None -> "-"
        in
        rows := [ name; est ] :: !rows)
      res;
    T.print ~title ~header:[ "operation"; "ns/op" ]
      (List.sort compare !rows)
  in
  report "Microbenchmark: versioned pointer primitive operations" tests;
  report "Microbenchmark: with_snapshot overhead by scheme" snap_tests;
  V.Stamp.set_scheme V.Stamp.Query_ts;
  T.print
    ~title:
      "Microbenchmark: cache-cold btree find, 100k keys, 2 MB streamed between \
       batches of 16"
    ~header:[ "mode"; "ns/find" ]
    (List.map
       (fun m -> [ V.Vptr.mode_name m; Printf.sprintf "%.0f" (cold_find_ns m) ])
       V.Vptr.[ Ind_on_need; Indirect; Plain ]);
  T.print ~title:"Microbenchmark: btree writes, 100k keys"
    ~header:[ "operation"; "ns/op" ]
    (List.map (fun (op, ns) -> [ op; Printf.sprintf "%.0f" ns ]) (btree_writes_ns ()));
  let ns, words = span_lifecycle () in
  T.print ~title:"Microbenchmark: request telemetry per served command"
    ~header:[ "path"; "ns/cmd"; "words/cmd" ]
    [
      [ "span lifecycle (served GET)"; Printf.sprintf "%.0f" ns;
        Printf.sprintf "%.1f" words ];
    ]

(* --- main ---------------------------------------------------------------- *)

let sections =
  [
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("fig8c", fig8c);
    ("fig8d", fig8d);
    ("fig8dlist", fig8dlist);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("direct_stores", direct_stores);
    ("extra_skiplist", extra_skiplist);
    ("shard_sweep", shard_sweep);
    ("txn", txn_fig);
    ("micro", micro);
  ]

let scale_name () =
  if !scale == full then "full" else if !scale == ci then "ci" else "quick"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse wanted = function
    | [] -> List.rev wanted
    | "--full" :: rest ->
        scale := full;
        parse wanted rest
    | "--ci" :: rest ->
        scale := ci;
        parse wanted rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse wanted rest
    | "--label" :: l :: rest ->
        json_label := l;
        parse wanted rest
    | ("--json" | "--label") :: [] ->
        prerr_endline "--json/--label need an argument";
        exit 2
    | a :: rest -> parse (a :: wanted) rest
  in
  let wanted = parse [] args in
  let wanted = if wanted = [] then List.map fst sections else wanted in
  Printf.printf
    "VERLIB reproduction benchmarks (%s scale: n=%d, %d threads, %.2fs/run, %d repeat(s))\n"
    (scale_name ())
    !scale.n !scale.threads !scale.duration !scale.repeats;
  Printf.printf "Machine: %d recommended domain(s) — see EXPERIMENTS.md for scaling notes.\n"
    (Domain.recommended_domain_count ());
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f ->
          let t0 = Unix.gettimeofday () in
          f ();
          (* Mechanism trail: counter/histogram deltas of the section's
             last run (counters are reset per run), so the recorded
             benchmark output carries the quantities the paper's claims
             are actually about, not just Mops. *)
          Printf.printf "[obs %s] %s\n" name
            (Harness.Obs_report.one_line (V.Obs.capture ()));
          Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t0)
      | None -> Printf.eprintf "unknown section %S\n" name)
    wanted;
  match !json_path with
  | None -> ()
  | Some path ->
      let doc =
        Harness.Bench_json.make_doc ~label:!json_label ~scale:(scale_name ())
          (List.rev !json_rows)
      in
      Harness.Bench_json.write_file path doc;
      Printf.printf "[json] %d row(s) written to %s\n%!"
        (List.length doc.Harness.Bench_json.d_rows)
        path
