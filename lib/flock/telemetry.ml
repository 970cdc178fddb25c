(* Generic observability machinery shared by Flock and the layers above
   it (Verlib's [Obs] module builds its instrument catalogue on top).

   Two primitives live here because Flock is the bottom of the stack and
   its own hot paths (lock acquisition, epoch advance) want to record
   into them:

   - {!Hist}: per-domain sharded, power-of-two-bucketed histograms, the
     distribution-valued sibling of [Verlib.Stats]' flat counters.
   - a fixed-size per-domain event ring for typed trace events with
     caller-supplied integer codes, exported by higher layers (Chrome
     trace-event JSON in [Verlib.Obs]).

   Both follow the same discipline as [Stats]: writes are plain stores
   into a slot owned exclusively by the writing domain (slots come from
   {!Registry.my_id}), and aggregate reads are only exact when the
   writers are quiesced (e.g. after [Domain.join]).  Concurrent reads
   are safe but may miss in-flight updates. *)

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

module Hist = struct
  let nbuckets = 64

  (* Per-slot block: 64 buckets + count + sum + max, padded to a
     multiple of 8 words so no two domains share a cache line. *)
  let off_count = nbuckets

  let off_sum = nbuckets + 1

  let off_max = nbuckets + 2

  let block = nbuckets + 8

  type t = { hname : string; cells : int array }

  let registry : t list ref = ref []

  let registry_mutex = Mutex.create ()

  let make hname =
    let h = { hname; cells = Array.make (Registry.max_slots * block) 0 } in
    Mutex.lock registry_mutex;
    registry := h :: !registry;
    Mutex.unlock registry_mutex;
    h

  let name h = h.hname

  let all () =
    Mutex.lock registry_mutex;
    let l = !registry in
    Mutex.unlock registry_mutex;
    List.rev l

  (* Bucket [i] holds the values with [i] significant bits: bucket 0 is
     [v <= 0], bucket i (i >= 1) is [2^(i-1) <= v < 2^i].  OCaml ints
     have at most 63 significant bits, so 64 buckets always suffice.
     Constant time: halve the shift until one bit is left. *)
  let bucket_of v =
    if v <= 0 then 0
    else begin
      let n = ref 1 and v = ref v in
      if !v lsr 32 <> 0 then begin n := !n + 32; v := !v lsr 32 end;
      if !v lsr 16 <> 0 then begin n := !n + 16; v := !v lsr 16 end;
      if !v lsr 8 <> 0 then begin n := !n + 8; v := !v lsr 8 end;
      if !v lsr 4 <> 0 then begin n := !n + 4; v := !v lsr 4 end;
      if !v lsr 2 <> 0 then begin n := !n + 2; v := !v lsr 2 end;
      if !v lsr 1 <> 0 then n := !n + 1;
      !n
    end

  (* Inclusive upper bound of bucket [i] (used for percentile reports). *)
  let bucket_bound i = if i <= 0 then 0 else if i >= 62 then max_int else (1 lsl i) - 1

  let observe_slot h slot v =
    let base = slot * block in
    let c = h.cells in
    let b = base + bucket_of v in
    c.(b) <- c.(b) + 1;
    c.(base + off_count) <- c.(base + off_count) + 1;
    c.(base + off_sum) <- c.(base + off_sum) + v;
    if v > c.(base + off_max) then c.(base + off_max) <- v

  let observe h v = observe_slot h (Registry.my_id ()) v

  let reset h = Array.fill h.cells 0 (Array.length h.cells) 0

  type summary = {
    s_name : string;
    s_count : int;
    s_sum : int;
    s_max : int;  (** exact maximum observed value *)
    s_p50 : int;  (** bucket upper bounds: <= a factor of 2 above truth *)
    s_p90 : int;
    s_p99 : int;
  }

  let mean s = if s.s_count = 0 then 0. else Float.of_int s.s_sum /. Float.of_int s.s_count

  let percentile buckets count q =
    if count = 0 then 0
    else begin
      let target = Float.to_int (Float.round (q *. Float.of_int count)) in
      let target = max 1 (min count target) in
      let res = ref 0 in
      let cum = ref 0 in
      (try
         for i = 0 to nbuckets - 1 do
           cum := !cum + buckets.(i);
           if !cum >= target then begin
             res := bucket_bound i;
             raise Exit
           end
         done
       with Exit -> ());
      !res
    end

  (* Aggregate the per-domain shards.  Exact only when writers are
     quiesced; see the module comment. *)
  let summary h =
    let buckets = Array.make nbuckets 0 in
    let count = ref 0 and sum = ref 0 and mx = ref 0 in
    for slot = 0 to Registry.max_slots - 1 do
      let base = slot * block in
      for i = 0 to nbuckets - 1 do
        buckets.(i) <- buckets.(i) + h.cells.(base + i)
      done;
      count := !count + h.cells.(base + off_count);
      sum := !sum + h.cells.(base + off_sum);
      if h.cells.(base + off_max) > !mx then mx := h.cells.(base + off_max)
    done;
    {
      s_name = h.hname;
      s_count = !count;
      s_sum = !sum;
      s_max = !mx;
      s_p50 = percentile buckets !count 0.50;
      s_p90 = percentile buckets !count 0.90;
      s_p99 = percentile buckets !count 0.99;
    }

  (* Aggregated raw buckets, for tests that check exact bucket sums. *)
  let buckets h =
    let buckets = Array.make nbuckets 0 in
    for slot = 0 to Registry.max_slots - 1 do
      let base = slot * block in
      for i = 0 to nbuckets - 1 do
        buckets.(i) <- buckets.(i) + h.cells.(base + i)
      done
    done;
    buckets
end

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)

(* A gauge is a named instantaneous reading — a closure evaluated at
   report-capture time, not a stored value.  Reclamation health lives
   here: epoch lag, deferred-callback queue depth (registered by
   [Epoch]), and the verlib layer adds stamp lag.  Reading a gauge is
   as racy as its closure; captures happen at (or near) quiescence. *)

module Gauge = struct
  type t = { gname : string; gread : unit -> int }

  let registry : t list ref = ref []

  let registry_mutex = Mutex.create ()

  let make gname gread =
    let g = { gname; gread } in
    Mutex.lock registry_mutex;
    registry := g :: !registry;
    Mutex.unlock registry_mutex;
    g

  let name g = g.gname

  (* A gauge closure that raises would poison every capture; clamp to 0
     instead (gauges are diagnostics, not control flow). *)
  let read g = try g.gread () with _ -> 0

  let all () =
    Mutex.lock registry_mutex;
    let l = !registry in
    Mutex.unlock registry_mutex;
    List.rev l

  let capture () = List.map (fun g -> (g.gname, read g)) (all ())
end

(* ------------------------------------------------------------------ *)
(* Activity publication (the sampling profiler's write side)           *)

(* Each domain publishes what it is doing right now — the lock site it
   holds / waits on, an injected stall — as interned integer ids in
   slot-private cells (the op it serves is its live request span's).
   The profiler (Verlib.Obs.Profile) reads the cells at its own
   cadence; the published path is one atomic load (the gate) plus
   plain stores, so the cost on workers is near zero and exactly zero
   allocation.  Names are interned once (registration
   time, or first use) under a mutex; the hot path never touches it. *)

module Activity = struct
  let dim_lock_hold = 0

  let dim_lock_wait = 1

  let dim_stall = 2

  (* Padded so no two slots share a cache line. *)
  let stride = 8

  let cells = Array.make (Registry.max_slots * stride) 0

  let enabled = Atomic.make false

  let set_enabled b =
    Atomic.set enabled b;
    if not b then Array.fill cells 0 (Array.length cells) 0

  let on () = Atomic.get enabled

  (* Intern table: id 0 is reserved for "" (no activity).  Appends only;
     ids stay valid for the process lifetime so samplers can resolve
     them without holding the mutex. *)
  let names = ref [| "" |]

  let names_mutex = Mutex.create ()

  let intern s =
    Mutex.lock names_mutex;
    let arr = !names in
    let n = Array.length arr in
    let rec find i = if i >= n then -1 else if arr.(i) = s then i else find (i + 1) in
    let id =
      match find 0 with
      | -1 ->
          let arr' = Array.make (n + 1) s in
          Array.blit arr 0 arr' 0 n;
          names := arr';
          n
      | i -> i
    in
    Mutex.unlock names_mutex;
    id

  let name_of id =
    let arr = !names in
    if id >= 0 && id < Array.length arr then arr.(id) else ""

  let set dim id =
    if Atomic.get enabled then
      cells.((Registry.my_id () * stride) + dim) <- id

  let get slot dim = cells.((slot * stride) + dim)

  let clear_my_slot () =
    let base = Registry.my_id () * stride in
    for d = 0 to stride - 1 do
      cells.(base + d) <- 0
    done
end

(* ------------------------------------------------------------------ *)
(* Event tracing                                                       *)

(* Event codes are small ints; the catalogue (names, Chrome phases)
   lives in the exporting layer.  Flock reserves 32.. for its own
   events; Verlib uses 1..31. *)

let ev_lock_acquire = 32

let ev_lock_help = 33

let ev_epoch_advance = 34

(* Power of two so the ring index is a mask. *)
let ring_capacity = 8192

type ring = {
  r_ts : int array;
  r_code : int array;
  r_arg : int array;
  mutable r_n : int;  (** total events ever emitted (wraps the ring) *)
}

(* One ring per registry slot, allocated lazily by the owning domain the
   first time it emits — so tracing costs no memory until enabled. *)
let rings : ring option array = Array.make Registry.max_slots None

let tracing = Atomic.make false

let set_tracing b = Atomic.set tracing b

let tracing_on () = Atomic.get tracing

(* Timestamp source for events.  Defaults to a zero clock; [Verlib.Obs]
   installs [Hwclock.now] at module initialisation, which happens before
   any instrumented Verlib code runs (it depends on [Obs]). *)
let clock : (unit -> int) ref = ref (fun () -> 0)

let set_clock f = clock := f

let now () = !clock ()

let my_ring () =
  let i = Registry.my_id () in
  match rings.(i) with
  | Some r -> r
  | None ->
      let r =
        {
          r_ts = Array.make ring_capacity 0;
          r_code = Array.make ring_capacity 0;
          r_arg = Array.make ring_capacity 0;
          r_n = 0;
        }
      in
      rings.(i) <- Some r;
      r

(* The single branch-predictable gate of the whole tracing subsystem:
   when disabled this is one atomic load and a not-taken branch. *)
let emit code arg =
  if Atomic.get tracing then begin
    let r = my_ring () in
    let i = r.r_n land (ring_capacity - 1) in
    r.r_ts.(i) <- !clock ();
    r.r_code.(i) <- code;
    r.r_arg.(i) <- arg;
    r.r_n <- r.r_n + 1
  end

(* Events of slot [i] in emission order, oldest first.  When the ring
   wrapped, only the newest [ring_capacity] events survive. *)
let events_of_slot i =
  match rings.(i) with
  | None -> []
  | Some r ->
      let total = r.r_n in
      let len = min total ring_capacity in
      let start = total - len in
      List.init len (fun k ->
          let j = (start + k) land (ring_capacity - 1) in
          (r.r_ts.(j), r.r_code.(j), r.r_arg.(j)))

let dropped_of_slot i =
  match rings.(i) with None -> 0 | Some r -> max 0 (r.r_n - ring_capacity)

let reset_traces () =
  Array.iter (function Some r -> r.r_n <- 0 | None -> ()) rings

(* Reset histograms and trace rings.  Same quiescence contract as
   [Stats.reset_all]. *)
let reset_all () =
  List.iter Hist.reset (Hist.all ());
  reset_traces ()
