(* verlib-obs — the observability layer of the reproduction.

   The paper's claims are mechanism claims (indirection avoided in the
   common case, links shortcut before snapshots need them, timestamp CAS
   contention bounded), and on a one-core box we verify mechanisms by
   counting and by distributions, not by raw Mops.  This module owns:

   - the instrument catalogue: latency / chain-length / dwell-time
     histograms layered on {!Flock.Telemetry.Hist};
   - the trace-event catalogue (codes, names, Chrome phases) for the
     per-domain rings in [Flock.Telemetry], plus the Chrome trace-event
     JSON exporter (load the file in Perfetto / chrome://tracing);
   - the cheap per-domain sampling ticks used by always-on instruments
     so the hot paths stay store-bounded;
   - [capture]: a structured report (counter totals + histogram
     summaries) the harness embeds in every driver result.

   Everything here follows the [Stats] quiescence contract: aggregate
   reads and resets are exact only between runs. *)

module Hist = Flock.Telemetry.Hist

(* Install the hardware clock as the trace timestamp source.  This
   module is a dependency of every instrumented call site, so the
   side effect runs before any event can be emitted. *)
let () = Flock.Telemetry.set_clock Hwclock.now

(* Resilience gauges: process-lifetime fault-injection totals ([Fault]
   sits below Flock and cannot register gauges itself).  The server and
   client wire layers register their own shed/retry gauges alongside. *)
let (_ : Flock.Telemetry.Gauge.t) =
  Flock.Telemetry.Gauge.make "faults_fired" Fault.fired_total

let (_ : Flock.Telemetry.Gauge.t) =
  Flock.Telemetry.Gauge.make "faults_stalled" Fault.stalled_now

(* ------------------------------------------------------------------ *)
(* Event catalogue.  Verlib owns codes 1..31; Flock reserves 32..
   (see Flock.Telemetry).                                              *)

let ev_snap_begin = 1

let ev_snap_end = 2

let ev_snap_abort = 3

let ev_indirect_create = 4

let ev_shortcut = 5

let ev_truncate = 6

let ev_stamp_incr = 7

let ev_census = 8

let ev_census_violation = 9

type phase = Instant | Span_begin | Span_end

let describe code =
  if code = ev_snap_begin then ("snapshot", Span_begin)
  else if code = ev_snap_end then ("snapshot", Span_end)
  else if code = ev_snap_abort then ("snapshot_abort", Instant)
  else if code = ev_indirect_create then ("indirect_create", Instant)
  else if code = ev_shortcut then ("shortcut", Instant)
  else if code = ev_truncate then ("truncate", Instant)
  else if code = ev_stamp_incr then ("stamp_incr", Instant)
  else if code = ev_census then ("census", Instant)
  else if code = ev_census_violation then ("census_violation", Instant)
  else if code = Flock.Telemetry.ev_lock_acquire then ("lock_acquire", Instant)
  else if code = Flock.Telemetry.ev_lock_help then ("lock_help", Instant)
  else if code = Flock.Telemetry.ev_epoch_advance then ("epoch_advance", Instant)
  else ("ev" ^ string_of_int code, Instant)

let emit = Flock.Telemetry.emit

let set_tracing = Flock.Telemetry.set_tracing

let tracing_on = Flock.Telemetry.tracing_on

(* ------------------------------------------------------------------ *)
(* Instruments                                                         *)

(* Per-operation latencies in hardware ticks, recorded by the harness
   driver (sampled 1-in-N via splitmix; see Harness.Driver).           *)
let lat_find = Hist.make "lat_find_cycles"

let lat_insert = Hist.make "lat_insert_cycles"

let lat_delete = Hist.make "lat_delete_cycles"

let lat_range = Hist.make "lat_range_cycles"

let lat_multifind = Hist.make "lat_multifind_cycles"

(* Version-chain length observed at truncation/shortcut time — the
   quantity the multiversion-GC line of work bounds.                   *)
let chain_len = Hist.make "chain_len"

(* Wall time spent inside [with_snapshot], in hardware ticks.          *)
let snap_dwell = Hist.make "snap_dwell_cycles"

(* ------------------------------------------------------------------ *)
(* Cheap per-domain sampling for always-on instruments: one private
   counter per (domain, instrument), no RNG on the hot path.           *)

let tick_stride = 16

let ticks = Array.make (Flock.Registry.max_slots * tick_stride) 0

let sample_tick ~off ~mask =
  let i = (Flock.Registry.my_id () * tick_stride) + off in
  let v = ticks.(i) + 1 in
  ticks.(i) <- v;
  v land mask = 0

(* 1-in-16 each. *)
let chain_sample () = sample_tick ~off:0 ~mask:15

let dwell_sample () = sample_tick ~off:1 ~mask:15

(* ------------------------------------------------------------------ *)
(* Request spans                                                       *)

(* One span per served request, decomposed into named phases.  The
   accounting is EXCLUSIVE: a span keeps a stack of open phases and
   every tick between two transitions is booked to the phase on top, so
   nested attributions (a snapshot inside an op, a per-shard fan-out
   call inside a snapshot, an injected stall inside anything) subtract
   from their parent instead of double-counting — which is what makes
   [sum over phases <= end - begin] hold by construction, the property
   the loadgen's RTT-vs-phase-sum join relies on.

   A span costs what it reports: each registry slot owns one span
   record that every [start] resets, a phase boundary is one clock read
   ([start] opens [parse], [switch] moves the top of the stack, [finish]
   closes it), and the histograms are fed through the slot the span
   already knows.  Finishing copies the span into a preallocated entry
   of the slot's ring, so readers on other domains never see the record
   that the next [start] reuses.

   The current span is registry-slot-private (the [ticks] discipline
   above): instrumented call sites ([Snapshot.with_snapshot],
   [Dstruct.Sharded]'s fan-out, the [Fault] blocking observer) attribute
   into whatever span their domain currently carries, and are single
   atomic-load no-ops when no span exists anywhere in the process. *)

module Span = struct
  type phase =
    | Accept  (** the connection's accept handler, booked to its first command *)
    | Queue  (** the poll round that read the chunk until its first command started *)
    | Parse  (** wire line to command, and dispatch up to its execution *)
    | Shed  (** admission-control evaluation (terminal when shed) *)
    | Route  (** per-shard fan-out work ([Dstruct.Sharded] sub-calls) *)
    | Snapshot  (** inside [with_snapshot], net of nested phases *)
    | Op  (** command execution, net of nested phases *)
    | Reply  (** reply rendering *)
    | Stall  (** injected fault stalls ([Fault] blocking actions) *)
    | Validate  (** transaction read-set validation ([Txn]) *)
    | Install  (** transaction write install + stripe release ([Txn]) *)

  let nphases = 11

  let phase_index = function
    | Accept -> 0
    | Queue -> 1
    | Parse -> 2
    | Shed -> 3
    | Route -> 4
    | Snapshot -> 5
    | Op -> 6
    | Reply -> 7
    | Stall -> 8
    | Validate -> 9
    | Install -> 10

  let phase_names =
    [| "accept"; "queue"; "parse"; "shed"; "route"; "snapshot"; "op"; "reply";
       "stall"; "validate"; "install" |]

  let phase_name p = phase_names.(phase_index p)

  let phases =
    [ Accept; Queue; Parse; Shed; Route; Snapshot; Op; Reply; Stall;
      Validate; Install ]

  type t = {
    mutable sp_trace_id : int;  (** 0 = untraced *)
    mutable sp_cmd : string;
    mutable sp_begin : int;  (** ticks *)
    mutable sp_end : int;  (** 0 until finished *)
    sp_phase : int array;  (** accumulated ticks per phase index *)
    mutable sp_fanout : int;  (** per-shard sub-calls performed *)
    mutable sp_outcome : string;  (** ok | shed | error | killed *)
    mutable sp_stack : int;  (** open phases, see [push_phase] *)
    mutable sp_last : int;  (** tick of the last transition *)
    sp_slot : int;
  }

  let blank slot =
    {
      sp_trace_id = 0;
      sp_cmd = "";
      sp_begin = 0;
      sp_end = 0;
      sp_phase = Array.make nphases 0;
      sp_fanout = 0;
      sp_outcome = "ok";
      sp_stack = 0;
      sp_last = 0;
      sp_slot = slot;
    }

  (* Cheap global gate: instrumented hot paths shared with the
     in-process harness (snapshots, sharded fan-out) pay one atomic load
     while no span has ever been started in this process. *)
  let any = Atomic.make false

  (* The slot's span record, and whether it is the slot's current span
     (between [start] and [finish]/[abandon]). *)
  let spans = Array.init Flock.Registry.max_slots blank

  let live = Array.make Flock.Registry.max_slots false

  (* Per-slot rings of recently finished spans, for the flight recorder
     and the Chrome exporter, allocated by the slot's first [finish].
     Entry [j] is a seqlock: its sequence word is odd while the owning
     domain copies a span in, and a reader keeps its own copy of the
     entry only if the word was even and unchanged around the copy.
     Sequence 0 marks an entry never written. *)
  let ring_capacity = 64

  type ring = {
    entries : t array;
    seqs : int Atomic.t array;
    mutable cursor : int;  (** spans ever retired into this ring *)
  }

  let no_ring = { entries = [||]; seqs = [||]; cursor = 0 }

  let rings = Array.make Flock.Registry.max_slots no_ring

  let ring_of slot =
    let r = rings.(slot) in
    if r != no_ring then r
    else begin
      let r =
        {
          entries = Array.init ring_capacity (fun _ -> blank slot);
          seqs = Array.init ring_capacity (fun _ -> Atomic.make 0);
          cursor = 0;
        }
      in
      rings.(slot) <- r;
      r
    end

  (* Phase-latency histograms (ticks; the [_cycles] suffix makes every
     report render them in µs) plus whole-request latency. *)
  let phase_hists =
    Array.map (fun n -> Hist.make ("phase_" ^ n ^ "_cycles")) phase_names

  let span_total = Hist.make "span_total_cycles"

  let phase_hist p = phase_hists.(phase_index p)

  (* The stack of open phases, packed into one int so that entering a
     phase allocates nothing: 4 bits per level holding [phase_index + 1]
     (0 = no entry), the top in the low bits.  Fifteen levels fit; the
     deepest nesting the server produces is five. *)
  let push_phase stack i = (stack lsl 4) lor (i + 1)

  let top_phase stack = (stack land 15) - 1

  let pop_phase stack = stack lsr 4

  (* No optional arguments here or in [finish]: passing one allocates
     its [Some] box on every served command. *)
  let start ~begin_ticks ~cmd =
    if not (Atomic.get any) then Atomic.set any true;
    let slot = Flock.Registry.my_id () in
    let sp = spans.(slot) in
    let now = Hwclock.now () in
    sp.sp_trace_id <- 0;
    sp.sp_cmd <- cmd;
    sp.sp_begin <- (if begin_ticks > 0 then begin_ticks else now);
    sp.sp_end <- 0;
    for i = 0 to nphases - 1 do
      sp.sp_phase.(i) <- 0
    done;
    sp.sp_fanout <- 0;
    sp.sp_stack <- push_phase 0 (phase_index Parse);
    sp.sp_last <- now;
    live.(slot) <- true;
    sp

  let set_cmd sp cmd = sp.sp_cmd <- cmd

  let set_trace_id sp id = sp.sp_trace_id <- id

  (* Book the segment since the last transition to the open phase.  The
     comparisons are on ints: [Stdlib.max] is polymorphic and would cost a
     C call per boundary. *)
  let account sp now =
    let p = top_phase sp.sp_stack and d = now - sp.sp_last in
    if p >= 0 && d > 0 then sp.sp_phase.(p) <- sp.sp_phase.(p) + d;
    sp.sp_last <- now

  let switch sp p =
    account sp (Hwclock.now ());
    sp.sp_stack <- push_phase (pop_phase sp.sp_stack) (phase_index p)

  let enter sp p =
    account sp (Hwclock.now ());
    sp.sp_stack <- push_phase sp.sp_stack (phase_index p)

  let leave sp =
    account sp (Hwclock.now ());
    sp.sp_stack <- pop_phase sp.sp_stack

  (* The calling domain's current span, for call sites that are not
     handed one: the gate, one domain-local lookup and the live flag. *)
  let current_slot () =
    if not (Atomic.get any) then -1
    else
      let slot = Flock.Registry.my_id () in
      if live.(slot) then slot else -1

  let in_phase p f =
    let slot = current_slot () in
    if slot < 0 then f ()
    else begin
      let sp = spans.(slot) in
      enter sp p;
      (* Not [Fun.protect]: its [finally] closure would be allocated
         on every bracket of the served path. *)
      match f () with
      | v ->
          leave sp;
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          leave sp;
          Printexc.raise_with_backtrace e bt
    end

  let add_to sp p ticks =
    let i = phase_index p in
    if ticks > 0 then sp.sp_phase.(i) <- sp.sp_phase.(i) + ticks

  let add p ticks =
    let slot = current_slot () in
    if slot >= 0 then add_to spans.(slot) p ticks

  let note_fanout () =
    let slot = current_slot () in
    if slot >= 0 then
      let sp = spans.(slot) in
      sp.sp_fanout <- sp.sp_fanout + 1

  let copy_into dst src =
    dst.sp_trace_id <- src.sp_trace_id;
    dst.sp_cmd <- src.sp_cmd;
    dst.sp_begin <- src.sp_begin;
    dst.sp_end <- src.sp_end;
    for i = 0 to nphases - 1 do
      dst.sp_phase.(i) <- src.sp_phase.(i)
    done;
    dst.sp_fanout <- src.sp_fanout;
    dst.sp_outcome <- src.sp_outcome;
    dst.sp_stack <- src.sp_stack;
    dst.sp_last <- src.sp_last

  (* Copy a finished span into the next entry of its slot's ring; only
     the owning domain writes a ring. *)
  let retire sp =
    let r = ring_of sp.sp_slot in
    let j = r.cursor land (ring_capacity - 1) in
    let seq = r.seqs.(j) in
    let s = Atomic.get seq in
    Atomic.set seq (s + 1);
    copy_into r.entries.(j) sp;
    Atomic.set seq (s + 2);
    r.cursor <- r.cursor + 1

  let finish sp ~outcome =
    let now = Hwclock.now () in
    account sp now;
    sp.sp_stack <- 0;
    sp.sp_end <- now;
    sp.sp_outcome <- outcome;
    let slot = sp.sp_slot in
    Hist.observe_slot span_total slot (now - sp.sp_begin);
    for i = 0 to nphases - 1 do
      let v = sp.sp_phase.(i) in
      if v > 0 then Hist.observe_slot phase_hists.(i) slot v
    done;
    retire sp;
    live.(slot) <- false

  let abandon sp = live.(sp.sp_slot) <- false

  let total_ticks sp = if sp.sp_end = 0 then 0 else sp.sp_end - sp.sp_begin

  let phase_ticks sp p = sp.sp_phase.(phase_index p)

  (* A reader's own copy of ring entry [j], or [None] when the entry is
     empty or its owner was writing it. *)
  let read_entry r j =
    let seq = r.seqs.(j) in
    let s = Atomic.get seq in
    if s = 0 || s land 1 = 1 then None
    else begin
      let e = r.entries.(j) in
      let c = blank e.sp_slot in
      copy_into c e;
      if Atomic.get seq = s then Some c else None
    end

  (* All finished spans currently retained, oldest first per slot; an
     entry being overwritten while it is read is skipped. *)
  let recent () =
    let acc = ref [] in
    for slot = Flock.Registry.max_slots - 1 downto 0 do
      let r = rings.(slot) in
      let cur = r.cursor in
      for i = min cur ring_capacity - 1 downto 0 do
        match read_entry r ((cur - 1 - i) land (ring_capacity - 1)) with
        | Some sp -> acc := sp :: !acc
        | None -> ()
      done
    done;
    List.rev !acc

  let reset () =
    Array.iter
      (fun r ->
        Array.iter (fun seq -> Atomic.set seq 0) r.seqs;
        r.cursor <- 0)
      rings
end

(* Attribute injected blocking faults (pause / stall / yield storms) to
   the current request span's [stall] phase — this is what makes a chaos
   plan legible in a request trace ("the op was fine; the stall was
   injected") instead of a mystery-slow op phase.  The same bracket
   publishes a [stall] activity frame so the sampling profiler sees the
   parked domain even where no span exists (e.g. harness workers). *)
let stall_activity = Flock.Telemetry.Activity.intern "stall"

let () =
  Fault.set_blocking_observer (fun f ->
      Span.in_phase Span.Stall (fun () ->
          if Flock.Telemetry.Activity.on () then begin
            Flock.Telemetry.Activity.set Flock.Telemetry.Activity.dim_stall
              stall_activity;
            Fun.protect
              ~finally:(fun () ->
                Flock.Telemetry.Activity.set
                  Flock.Telemetry.Activity.dim_stall 0)
              f
          end
          else f ()))

(* ------------------------------------------------------------------ *)
(* GC / allocation telemetry                                           *)

(* Read on demand: [Gc.quick_stat] is process-wide in OCaml 5 (other
   live domains as of their last minor collection, exited domains in
   full), so one call per gauge read counts every word once and nothing
   on a serving path publishes anything.  Version-chain growth is
   fundamentally a memory story — reclamation tuning needs allocation
   visible next to the chain census. *)
let gc_gauge name f =
  ignore (Flock.Telemetry.Gauge.make name (fun () -> f (Gc.quick_stat ())))

(* Bytes of minor plus major words, 8 bytes per word on 64-bit. *)
let alloc_bytes s = 8 * int_of_float (s.Gc.minor_words +. s.Gc.major_words)

let () =
  gc_gauge "gc_minor_words" (fun s -> int_of_float s.Gc.minor_words);
  gc_gauge "gc_promoted_words" (fun s -> int_of_float s.Gc.promoted_words);
  gc_gauge "gc_major_words" (fun s -> int_of_float s.Gc.major_words);
  gc_gauge "gc_minor_collections" (fun s -> s.Gc.minor_collections);
  gc_gauge "gc_major_collections" (fun s -> s.Gc.major_collections);
  gc_gauge "gc_heap_words" (fun s -> s.Gc.heap_words);
  gc_gauge "gc_alloc_bytes" alloc_bytes

(* 1 when timestamps come from the invariant TSC; reports carry the
   string form as [clock_source]. *)
let (_ : Flock.Telemetry.Gauge.t) =
  Flock.Telemetry.Gauge.make "clock_is_tsc" (fun () ->
      if Hwclock.source () = "rdtsc" then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Continuous sampling profiler                                        *)

(* The read side of [Flock.Telemetry.Activity]: every [tick] folds,
   for every registry slot with a live span or published activity, one
   weighted stack

     domain-<slot>;<op>;<span phase>;<lock frame>[;stall]

   into an accumulation table.  The profiler owns no domain: the
   process's sweep calls [tick] every [1/hz] seconds.  Exports:
   collapsed-stack text (flamegraph.pl / speedscope), a JSON snapshot
   (the PROFILE wire command), and per-slot "current activity" lines
   for dashboards. *)

module Profile = struct
  module A = Flock.Telemetry.Activity

  let default_hz = 97

  let mutex = Mutex.create ()

  let table : (string, int ref) Hashtbl.t = Hashtbl.create 512

  let samples = Atomic.make 0

  let running_a = Atomic.make false

  let hz_a = Atomic.make 0

  (* Last sampled stack per slot; plain writes by [tick], racy reads by
     dashboards. *)
  let last_stack = Array.make Flock.Registry.max_slots ""

  let running () = Atomic.get running_a

  let hz () = Atomic.get hz_a

  let samples_total () = Atomic.get samples

  let (_ : Flock.Telemetry.Gauge.t) =
    Flock.Telemetry.Gauge.make "profile_samples" samples_total

  (* Compose one collapsed stack for a slot, "" when idle.  Reads of
     another domain's span record are racy by design (same contract as
     every cross-slot read in the stack). *)
  let stack_of_slot slot =
    let live = Span.live.(slot) and sp = Span.spans.(slot) in
    let op = if live then sp.Span.sp_cmd else "" in
    let phase =
      let p = Span.top_phase sp.Span.sp_stack in
      if live && p >= 0 && p < Span.nphases then Span.phase_names.(p) else ""
    in
    let hold = A.name_of (A.get slot A.dim_lock_hold) in
    let wait = A.name_of (A.get slot A.dim_lock_wait) in
    let stall = A.name_of (A.get slot A.dim_stall) in
    if op = "" && phase = "" && hold = "" && wait = "" && stall = "" then ""
    else begin
      let b = Buffer.create 64 in
      Buffer.add_string b "domain-";
      Buffer.add_string b (string_of_int slot);
      let frame s =
        if s <> "" then begin
          Buffer.add_char b ';';
          Buffer.add_string b s
        end
      in
      frame op;
      frame phase;
      frame hold;
      (if wait <> "" then frame ("wait:" ^ wait));
      frame stall;
      Buffer.contents b
    end

  let tick () =
    if running () then
      for slot = 0 to Flock.Registry.max_slots - 1 do
        let s = stack_of_slot slot in
        last_stack.(slot) <- s;
        if s <> "" then begin
          Mutex.lock mutex;
          (match Hashtbl.find_opt table s with
           | Some r -> incr r
           | None -> Hashtbl.add table s (ref 1));
          Mutex.unlock mutex;
          Atomic.incr samples
        end
      done

  let start ?(hz = default_hz) () =
    Atomic.set hz_a (max 1 hz);
    A.set_enabled true;
    Atomic.set running_a true

  let stop () =
    if Atomic.exchange running_a false then A.set_enabled false

  let reset () =
    Mutex.lock mutex;
    Hashtbl.reset table;
    Mutex.unlock mutex;
    Atomic.set samples 0;
    Array.fill last_stack 0 (Array.length last_stack) ""

  (* Accumulated stacks, heaviest first. *)
  let stacks () =
    Mutex.lock mutex;
    let l = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) table [] in
    Mutex.unlock mutex;
    List.sort (fun (_, a) (_, b) -> compare b a) l

  (* Per-slot activity as last sampled, for dashboards. *)
  let activity () =
    let acc = ref [] in
    for slot = Flock.Registry.max_slots - 1 downto 0 do
      if last_stack.(slot) <> "" then acc := (slot, last_stack.(slot)) :: !acc
    done;
    !acc

  (* flamegraph.pl / speedscope collapsed-stack text: "frames count". *)
  let collapsed () =
    let b = Buffer.create 4096 in
    List.iter
      (fun (s, n) ->
        Buffer.add_string b s;
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int n);
        Buffer.add_char b '\n')
      (stacks ());
    Buffer.contents b

  let write_collapsed path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (collapsed ()))

  let json_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 32 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* A windowed PROFILE: the stacks and sample count at the window's
     start, so the payload can report only what accumulated inside. *)
  type window = {
    w_stacks : (string * int) list;
    w_samples : int;
    w_start : float;
  }

  let open_window () =
    {
      w_stacks = stacks ();
      w_samples = samples_total ();
      w_start = Unix.gettimeofday ();
    }

  (* JSON profile snapshot: the PROFILE wire payload.  With [window],
     only the stack deltas accumulated since [open_window]. *)
  let json ?window () =
    let cur = stacks () in
    let stacks_out, nsamples, window_ms =
      match window with
      | None -> (cur, samples_total (), 0)
      | Some w ->
          let d =
            List.filter_map
              (fun (k, n) ->
                let n0 =
                  match List.assoc_opt k w.w_stacks with
                  | Some n0 -> n0
                  | None -> 0
                in
                if n - n0 > 0 then Some (k, n - n0) else None)
              cur
          in
          ( List.sort (fun (_, a) (_, b) -> compare b a) d,
            samples_total () - w.w_samples,
            int_of_float ((Unix.gettimeofday () -. w.w_start) *. 1000.) )
    in
    let b = Buffer.create 4096 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"clock_source\":\"%s\",\"running\":%b,\"hz\":%d,\"samples\":%d,\
          \"window_ms\":%d"
         (Hwclock.source ()) (running ()) (hz ()) nsamples window_ms);
    Buffer.add_string b ",\"stacks\":[";
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    List.iteri
      (fun i (s, n) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"stack\":\"%s\",\"count\":%d}" (json_escape s) n))
      (take 200 stacks_out);
    Buffer.add_string b "],\"activity\":[";
    List.iteri
      (fun i (slot, s) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"slot\":%d,\"stack\":\"%s\"}" slot (json_escape s)))
      (activity ());
    Buffer.add_string b "],\"lock_sites\":[";
    List.iteri
      (fun i sm ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "{\"site\":\"%s\",\"acquires\":%d,\"contended\":%d,\
              \"wait_us\":%.1f,\"helps\":%d,\"edges\":["
             (json_escape sm.Flock.Lock.sm_site)
             sm.Flock.Lock.sm_acquires sm.Flock.Lock.sm_contended
             (Hwclock.to_us sm.Flock.Lock.sm_wait_cycles)
             sm.Flock.Lock.sm_helps);
        List.iteri
          (fun j (holder, waits) ->
            if j > 0 then Buffer.add_char b ',';
            Buffer.add_string b
              (Printf.sprintf "{\"holder\":%d,\"waits\":%d}" holder waits))
          sm.Flock.Lock.sm_edges;
        Buffer.add_string b "]}")
      (Flock.Lock.site_summaries ());
    let gc = Gc.quick_stat () in
    Buffer.add_string b
      (Printf.sprintf
         "],\"gc\":{\"minor_words\":%d,\"promoted_words\":%d,\
          \"major_words\":%d,\"minor_collections\":%d,\
          \"major_collections\":%d,\"heap_words\":%d,\"alloc_bytes\":%d}}"
         (int_of_float gc.Gc.minor_words)
         (int_of_float gc.Gc.promoted_words)
         (int_of_float gc.Gc.major_words)
         gc.Gc.minor_collections gc.Gc.major_collections gc.Gc.heap_words
         (alloc_bytes gc));
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Structured report                                                   *)

type report = {
  counters : (string * int) list;  (** every [Stats] counter, by name *)
  hists : Hist.summary list;  (** every registered histogram *)
  gauges : (string * int) list;
      (** every [Flock.Telemetry.Gauge], read at capture time *)
}

let capture () =
  {
    counters =
      List.map (fun c -> (Stats.name c, Stats.total c)) (Stats.all ())
      @ [ ("lock_helps", Flock.Lock.help_count ()) ];
    hists = List.map Hist.summary (Hist.all ());
    gauges = Flock.Telemetry.Gauge.capture ();
  }

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)

(* Emit one complete JSON trace usable in Perfetto / chrome://tracing:
   snapshot begin/end become "B"/"E" duration events, everything else
   an instant ("i").  Per-domain streams are emitted in ring order
   (which is timestamp order — the clock is globally monotone), with
   two repairs for ring wrap-around: unmatched "E" at the head of a
   stream are dropped and unmatched "B" at the tail are closed at the
   stream's last timestamp, so the file always balances. *)
let export_trace path =
  let cpus = Hwclock.cycles_per_us () in
  let slots = List.init Flock.Registry.max_slots Fun.id in
  let streams =
    List.filter_map
      (fun i ->
        match Flock.Telemetry.events_of_slot i with
        | [] -> None
        | evs -> Some (i, evs))
      slots
  in
  let spans = Span.recent () in
  let base =
    List.fold_left
      (fun acc (_, evs) ->
        List.fold_left (fun acc (ts, _, _) -> min acc ts) acc evs)
      max_int streams
  in
  let base =
    List.fold_left (fun acc sp -> min acc sp.Span.sp_begin) base spans
  in
  let base = if base = max_int then 0 else base in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let add_event ~name ~ph ~tid ~ts_us ~arg =
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_string buf
      (Printf.sprintf
         "{\"name\":%S,\"cat\":\"verlib\",\"ph\":%S,\"pid\":1,\"tid\":%d,\"ts\":%.3f"
         name ph tid ts_us);
    if ph = "i" then Buffer.add_string buf ",\"s\":\"t\"";
    (match arg with
     | None -> ()
     | Some v -> Buffer.add_string buf (Printf.sprintf ",\"args\":{\"v\":%d}" v));
    Buffer.add_char buf '}'
  in
  List.iter
    (fun (tid, evs) ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain-%d\"}}"
           tid tid);
      let depth = ref 0 in
      let last_ts = ref 0. in
      List.iter
        (fun (ts, code, arg) ->
          let name, kind = describe code in
          let ts_us = Float.of_int (ts - base) /. cpus in
          last_ts := ts_us;
          match kind with
          | Span_begin ->
              incr depth;
              add_event ~name ~ph:"B" ~tid ~ts_us ~arg:(Some arg)
          | Span_end ->
              (* A span whose begin fell off the ring: drop the end. *)
              if !depth > 0 then begin
                decr depth;
                add_event ~name ~ph:"E" ~tid ~ts_us ~arg:None
              end
          | Instant -> add_event ~name ~ph:"i" ~tid ~ts_us ~arg:(Some arg))
        evs;
      (* Close spans left open (export raced no one — the domain simply
         stopped emitting, e.g. the ring wrapped past the end event). *)
      while !depth > 0 do
        decr depth;
        add_event ~name:"snapshot" ~ph:"E" ~tid ~ts_us:!last_ts ~arg:None
      done;
      let dropped = Flock.Telemetry.dropped_of_slot tid in
      if dropped > 0 then
        add_event ~name:"ring_dropped" ~ph:"i" ~tid ~ts_us:!last_ts
          ~arg:(Some dropped))
    streams;
  (* Finished request spans ride along as "X" complete events on their
     own track family ([requests-domain-N]), with the exclusive
     per-phase breakdown in µs as args — one row per served request,
     next to the instrument stream of the domain that served it. *)
  let span_tids = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      let tid = 1000 + sp.Span.sp_slot in
      if not (Hashtbl.mem span_tids tid) then begin
        Hashtbl.add span_tids tid ();
        if not !first then Buffer.add_char buf ',';
        first := false;
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"requests-domain-%d\"}}"
             tid sp.Span.sp_slot)
      end;
      let ts_us = Float.of_int (sp.Span.sp_begin - base) /. cpus in
      let dur_us = Float.of_int (Span.total_ticks sp) /. cpus in
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":%S,\"cat\":\"request\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%d,\"outcome\":%S,\"fanout\":%d"
           sp.Span.sp_cmd tid ts_us dur_us sp.Span.sp_trace_id
           sp.Span.sp_outcome sp.Span.sp_fanout);
      Array.iteri
        (fun i v ->
          if v > 0 then
            Buffer.add_string buf
              (Printf.sprintf ",\"%s_us\":%.3f" Span.phase_names.(i)
                 (Float.of_int v /. cpus)))
        sp.Span.sp_phase;
      Buffer.add_string buf "}}")
    spans;
  Buffer.add_string buf "]}";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf);
  List.length streams + Hashtbl.length span_tids
