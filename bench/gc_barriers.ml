(* gc_barriers: run a command with OCaml runtime events switched on for
   it and every OCaml process it starts, and report per process the CPU
   it used and the time its domains spent in the two stop-the-world
   barriers of a minor collection: [minor_leave_barrier] (a domain done
   with its minor heap waits for the others) and [stw_api_barrier] (a
   domain waits for all to enter a stop-the-world section).  Every minor
   collection synchronises every domain of the process, so the barriers
   grow with the domain count.

     dune exec bench/gc_barriers.exe -- python3 perfbench/run.py \
       --workload txn-feed --seed 1 --seconds 10 --trace 0

   The rings live in a fresh directory ([OCAML_RUNTIME_EVENTS_DIR]),
   are kept after exit ([OCAML_RUNTIME_EVENTS_PRESERVE]) and are sized
   at 2^20 words per domain; each is read whole once its process has
   exited (a cursor attached while the process runs missed domain 0's
   events on this runtime), then deleted.  CPU is utime + stime from
   /proc/PID/stat at 100 ticks/s, read until the process is gone;
   [hwm_mb] is the last [VmHWM] (peak resident set) read from
   /proc/PID/status while it ran, so a perfbench run's [rss_mb] (the
   sum over its servers) splits per process.  Output: one line per
   process that used at least 0.5 CPU seconds; [lost] counts events the
   ring overwrote before they were read.  The exit status is the
   command's. *)

module Re = Runtime_events

type proc = {
  pid : int;
  role : string;
  mutable cpu_ticks : int;
  mutable hwm_kb : int;  (** last [VmHWM] read; 0 before the first *)
  mutable done_ : bool;
}

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* A verlib_serve following a primary is a replica; other processes are
   named by their executable. *)
let role_of pid =
  let args = String.split_on_char '\000' (read_file (Printf.sprintf "/proc/%d/cmdline" pid)) in
  match args with
  | exe :: _ when List.mem "--replica-of" args && Filename.basename exe = "verlib_serve.exe" ->
      "replica"
  | exe :: _ when Filename.basename exe = "verlib_serve.exe" -> "primary"
  | exe :: _ when exe <> "" -> Filename.basename exe
  | _ -> "?"

(* The state letter and utime + stime in clock ticks; [None] once the
   process is reaped. *)
let stat pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  match String.rindex_opt s ')' with
  | None -> None
  | Some i -> (
      let fields = String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) in
      (* fields.(0) is the state; utime and stime are stat fields 14, 15 *)
      match (fields, List.nth_opt fields 11, List.nth_opt fields 12) with
      | st :: _, Some u, Some sy -> Some (st, int_of_string u + int_of_string sy)
      | _ -> None)

(* The [VmHWM:] line of /proc/PID/status, in kB; [None] once the
   process is gone or a zombie (whose status has no memory lines). *)
let hwm_kb pid =
  String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid))
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] -> Scanf.sscanf_opt v " %d kB" Fun.id
         | _ -> None)

(* Read a finished process's rings whole: minor collections and the
   time inside each barrier, summed over its domains. *)
let barriers dir pid =
  let cursor = Re.create_cursor (Some (dir, pid)) in
  let open_at = Hashtbl.create 16 in
  let minors = ref 0 and leave = ref 0L and stw = ref 0L and lost = ref 0 in
  let runtime_begin ring ts phase =
    Hashtbl.replace open_at (ring, phase) (Re.Timestamp.to_int64 ts)
  in
  let runtime_end ring ts phase =
    match Hashtbl.find_opt open_at (ring, phase) with
    | None -> ()
    | Some t0 -> (
        Hashtbl.remove open_at (ring, phase);
        let d = Int64.sub (Re.Timestamp.to_int64 ts) t0 in
        match phase with
        | Re.EV_MINOR -> incr minors
        | Re.EV_MINOR_LEAVE_BARRIER -> leave := Int64.add !leave d
        | Re.EV_STW_API_BARRIER -> stw := Int64.add !stw d
        | _ -> ())
  in
  let cb =
    Re.Callbacks.create ~runtime_begin ~runtime_end
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  while Re.read_poll cursor cb None > 0 do
    ()
  done;
  Re.free_cursor cursor;
  (!minors, Int64.to_float !leave /. 1e6, Int64.to_float !stw /. 1e6, !lost)

let () =
  let cmd = Array.sub Sys.argv 1 (Array.length Sys.argv - 1) in
  if Array.length cmd = 0 then begin
    prerr_endline "usage: gc_barriers COMMAND [ARGS...]";
    exit 2
  end;
  let dir = Filename.temp_dir "gc_barriers" "" in
  let env =
    Array.append
      [|
        "OCAML_RUNTIME_EVENTS_START=1"; "OCAML_RUNTIME_EVENTS_DIR=" ^ dir;
        "OCAML_RUNTIME_EVENTS_PRESERVE=1"; "OCAML_RUNTIME_EVENTS_LOG_WSIZE=20";
      |]
      (Unix.environment ())
  in
  let child = Unix.create_process_env cmd.(0) cmd env Unix.stdin Unix.stdout Unix.stderr in
  let procs : (int, proc) Hashtbl.t = Hashtbl.create 8 in
  Printf.printf "%-10s %8s %8s %8s %10s %10s %8s %6s %8s\n%!" "process" "pid"
    "cpu_s" "minors" "leave_ms" "stw_api_ms" "barr_%" "lost" "hwm_mb";
  let report p =
    p.done_ <- true;
    let file = Filename.concat dir (Printf.sprintf "%d.events" p.pid) in
    let minors, leave, stw, lost = barriers dir p.pid in
    Sys.remove file;
    let cpu_s = float_of_int p.cpu_ticks /. 100. in
    if cpu_s >= 0.5 then
      Printf.printf "%-10s %8d %8.2f %8d %10.1f %10.1f %8.1f %6d %8.1f\n%!"
        p.role p.pid cpu_s minors leave stw
        (100. *. (leave +. stw) /. 1000. /. cpu_s)
        lost
        (float_of_int p.hwm_kb /. 1024.)
  in
  (* Track every ring's process; report it once it has exited. *)
  let poll () =
    Array.iter
      (fun f ->
        match Option.bind (Filename.chop_suffix_opt ~suffix:".events" f) int_of_string_opt with
        | Some pid ->
            let p =
              match Hashtbl.find_opt procs pid with
              | Some p -> p
              | None ->
                  let p =
                    { pid; role = role_of pid; cpu_ticks = 0; hwm_kb = 0; done_ = false }
                  in
                  Hashtbl.replace procs pid p;
                  p
            in
            if not p.done_ then begin
              Option.iter (fun kb -> p.hwm_kb <- kb) (hwm_kb pid);
              match stat pid with
              | Some (st, ticks) ->
                  p.cpu_ticks <- ticks;
                  if st = "Z" then report p
              | None -> report p
            end
        | None -> ())
      (Sys.readdir dir)
  in
  let rec wait () =
    poll ();
    match Unix.waitpid [ Unix.WNOHANG ] child with
    | 0, _ ->
        Unix.sleepf 0.02;
        wait ()
    | _, status -> status
  in
  let status = wait () in
  poll ();
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  exit (match status with Unix.WEXITED c -> c | _ -> 1)
