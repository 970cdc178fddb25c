(* Anomaly flight recorder: when the serving stack detects something it
   considers an incident — a connection killed at its deadline, hard
   shedding engaging, a census invariant violation, a phase p99 through
   its SLO — dump the evidence to disk NOW, while the recent-span rings
   still hold the requests that suffered.  A post-hoc STATS call shows
   aggregate damage; the flight dump shows the per-request phase
   decomposition of the victims, which is what makes a chaos-smoke
   failure self-diagnosing.

   The recorder is deliberately boring: a mutex, a cooldown, a dump cap,
   and one JSON file per incident
   ([flight-<epoch-ms>-<seq>-<trigger>.json] — the monotonic sequence
   number disambiguates dumps landing in the same millisecond and makes
   lexicographic order match dump order within a run).
   Everything interesting is in what it snapshots: the caller's STATS
   object (its own figures, the full counter, histogram and gauge
   capture, the latest chain census), and every finished span from
   [Verlib.Obs.Span.recent] with per-phase µs and a computed dominant
   phase. *)

module Obs = Verlib.Obs
module Span = Verlib.Obs.Span

type trigger =
  | Deadline_kill
  | Hard_shed
  | Census_violation
  | Slo_breach of string  (* offending phase name *)

let trigger_name = function
  | Deadline_kill -> "deadline-kill"
  | Hard_shed -> "hard-shed"
  | Census_violation -> "census-violation"
  | Slo_breach _ -> "slo-breach"

type t = {
  dir : string;
  min_interval : float;
  max_dumps : int;
  mutable dumps : int;  (** filed: reserved under the cap *)
  mutable suppressed : int;
  mutable last_at : float;
  mutable last_path : string option;
  lock : Mutex.t;
}

let create ?(min_interval = 5.0) ?(max_dumps = 16) ~dir () =
  {
    dir;
    min_interval;
    max_dumps;
    dumps = 0;
    suppressed = 0;
    last_at = neg_infinity;
    last_path = None;
    lock = Mutex.create ();
  }

let dump_count t = Mutex.protect t.lock (fun () -> t.dumps)

let suppressed_count t = t.suppressed

let last_path t = Mutex.protect t.lock (fun () -> t.last_path)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Dominant phase of one span (ticks already exclusive, so a plain
   argmax) — ties break toward the earlier pipeline phase. *)
let dominant_phase (sp : Span.t) =
  let best = ref (-1) and best_v = ref 0 in
  Array.iteri
    (fun i v -> if v > !best_v then begin best := i; best_v := v end)
    sp.Span.sp_phase;
  if !best < 0 then None
  else
    List.find_opt (fun p -> Span.phase_index p = !best) Span.phases
    |> Option.map Span.phase_name

let json_of_span (sp : Span.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"trace_id\":%d,\"cmd\":\"%s\",\"outcome\":\"%s\",\"fanout\":%d,\"total_us\":%.3f"
       sp.Span.sp_trace_id (Jsonlite.escape sp.Span.sp_cmd)
       (Jsonlite.escape sp.Span.sp_outcome)
       sp.Span.sp_fanout
       (Verlib.Hwclock.to_us (Span.total_ticks sp)));
  (match dominant_phase sp with
   | Some d -> Buffer.add_string b (Printf.sprintf ",\"dominant\":\"%s\"" d)
   | None -> ());
  Buffer.add_string b ",\"phases\":{";
  let first = ref true in
  List.iter
    (fun p ->
      let v = Span.phase_ticks sp p in
      if v > 0 then begin
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b
          (Printf.sprintf "\"%s\":%.3f" (Span.phase_name p)
             (Verlib.Hwclock.to_us v))
      end)
    Span.phases;
  Buffer.add_string b "}}";
  Buffer.contents b

(* Aggregate dominant phase over a set of spans: argmax of summed
   exclusive ticks — the headline the trace-smoke gate matches against
   the injected fault. *)
let aggregate_dominant spans =
  let totals = Array.make Span.nphases 0 in
  List.iter
    (fun (sp : Span.t) ->
      Array.iteri (fun i v -> totals.(i) <- totals.(i) + v) sp.Span.sp_phase)
    spans;
  let best = ref (-1) and best_v = ref 0 in
  Array.iteri
    (fun i v -> if v > !best_v then begin best := i; best_v := v end)
    totals;
  if !best < 0 then None
  else
    List.find_opt (fun p -> Span.phase_index p = !best) Span.phases
    |> Option.map Span.phase_name

let render ~trigger ~stats =
  let spans = Span.recent () in
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf "{\"time\":%.3f,\"trigger\":\"%s\"" (Unix.gettimeofday ())
       (trigger_name trigger));
  (match trigger with
   | Slo_breach phase ->
       Buffer.add_string b
         (Printf.sprintf ",\"slo_phase\":\"%s\"" (Jsonlite.escape phase))
   | _ -> ());
  (match aggregate_dominant spans with
   | Some d -> Buffer.add_string b (Printf.sprintf ",\"dominant_phase\":\"%s\"" d)
   | None -> ());
  Buffer.add_string b ",\"stats\":";
  Buffer.add_string b (stats ());
  Buffer.add_string b ",\"spans\":[";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (json_of_span sp))
    spans;
  (* The profiler's cumulative snapshot (stacks, lock contention, GC):
     when the sampler is running this is what the victims' domains were
     actually doing — the dump's "where was the time going" section. *)
  Buffer.add_string b "],\"profile\":";
  Buffer.add_string b (Obs.Profile.json ());
  Buffer.add_char b '}';
  Buffer.contents b

let record t ~trigger ~stats =
  Mutex.lock t.lock;
  let now = Unix.gettimeofday () in
  let allowed =
    t.dumps < t.max_dumps && now -. t.last_at >= t.min_interval
  in
  if allowed then begin
    t.dumps <- t.dumps + 1;
    t.last_at <- now
  end
  else t.suppressed <- t.suppressed + 1;
  let seq = t.dumps in
  Mutex.unlock t.lock;
  if not allowed then None
  else begin
    (* Render and write outside the lock: dumps are rare (cooldown) and
       rendering walks shared-but-stable state. *)
    let body = render ~trigger ~stats in
    mkdir_p t.dir;
    let path =
      Filename.concat t.dir
        (Printf.sprintf "flight-%.0f-%d-%s.json" (now *. 1000.) seq
           (trigger_name trigger))
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc body);
    Mutex.lock t.lock;
    t.last_path <- Some path;
    Mutex.unlock t.lock;
    Some path
  end
