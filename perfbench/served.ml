(* Served runs: fresh verlib_serve processes, driven over loopback by
   closed-loop lanes (one connection each, at most two, one domain
   each) through [Server.Client]. *)

module P = Server.Protocol
module C = Server.Client
module J = Harness.Jsonlite
module Rng = Workload.Splitmix

(* --- server processes ----------------------------------------------------- *)

type server = { pid : int; port : int; out : in_channel }

(* Every process started and not yet reaped, for [kill_all]. *)
let live : int list ref = ref []

let serve_exe = ref "verlib_serve"

(* Pinned flags: census, metrics plane, profiler and flight recorder
   off in measured runs; [census] turns the census on for traced runs. *)
let serve_args ~threads ~census extra =
  [
    "-s"; "btree"; "-m"; "indonneed"; "--locks"; "lockfree"; "-p"; "0";
    "-t"; string_of_int threads; "-n"; string_of_int Ops.n;
    "--census-interval"; (if census then "1" else "0");
    "--metrics-interval"; "0"; "--profile-hz"; "0"; "--stats"; "none";
  ]
  @ extra

let rec reap pid =
  try ignore (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

let spawn args =
  let exe = !serve_exe in
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) null w null in
  Unix.close w;
  Unix.close null;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  (* The server prints its port once it has prefilled and bound. *)
  match Option.bind (In_channel.input_line out) (fun l -> Scanf.sscanf_opt l "PORT %d" Fun.id) with
  | Some port -> { pid; port; out }
  | None ->
      reap pid;
      live := List.filter (( <> ) pid) !live;
      failwith "verlib_serve did not report a port"

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap s.pid;
  close_in_noerr s.out;
  live := List.filter (( <> ) s.pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try reap pid with Unix.Unix_error _ -> ())
    !live;
  live := []

(* --- wire helpers --------------------------------------------------------- *)

let request c cmd =
  match C.request c cmd with
  | Ok r -> r
  | Error e -> failwith (P.command_line cmd ^ ": " ^ e)

let json c cmd =
  match request c cmd with
  | P.Bulk s -> J.parse s
  | r -> failwith ("expected a JSON bulk, got " ^ P.pp_reply r)

let num j path =
  let v = List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path in
  match Option.bind v J.to_number with
  | Some x -> x
  | None -> failwith ("missing " ^ String.concat "." path)

let gauge stats name = num stats [ "gauges"; name ]

(* Every binding in 1..2n, by chunked RANGE. *)
let dump c =
  let chunk = 4096 in
  let rec go lo acc =
    if lo > 2 * Ops.n then List.concat (List.rev acc)
    else
      match request c (P.Range (lo, lo + chunk - 1)) with
      | P.Arr l -> (
          match Ops.flat_pairs l with
          | Some ps -> go (lo + chunk) (ps :: acc)
          | None -> failwith "malformed RANGE reply")
      | r -> failwith ("RANGE: " ^ P.pp_reply r)
  in
  go 1 []

(* --- clusters ------------------------------------------------------------- *)

type cluster = {
  primary : server;
  replica : server option;
  cp : C.t;  (** the writer's connection, to the primary *)
  cr : C.t option;  (** the reader's connection, to the replica *)
}

let servers cl = cl.primary :: Option.to_list cl.replica

(* Until the replica has bootstrapped (its stream is registered on the
   primary) and applied up to the primary's tail stamp. *)
let wait_replica cp cr ~timeout =
  let give_up = Unix.gettimeofday () +. timeout in
  let rec go () =
    let p = json cp P.Replstats and r = json cr P.Replstats in
    if num p [ "subscribers" ] >= 1. && num r [ "watermark" ] >= num p [ "tail_stamp" ] then ()
    else if Unix.gettimeofday () > give_up then failwith "replica did not catch up"
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

(* Spawn until the first measured op could be sent: server start and
   prefill, connect, and for a replica its bootstrap and catch-up. *)
let start ~threads ~replica ~census =
  let t0 = Unix.gettimeofday () in
  let primary = spawn (serve_args ~threads ~census [ "--prefill"; string_of_int Ops.n ]) in
  let cp = C.connect ~read_timeout:30. ~port:primary.port () in
  let replica, cr =
    if not replica then (None, None)
    else
      let r =
        spawn (serve_args ~threads:1 ~census [ "--replica-of"; Printf.sprintf "127.0.0.1:%d" primary.port ])
      in
      let cr = C.connect ~read_timeout:30. ~port:r.port () in
      wait_replica cp cr ~timeout:60.;
      (match request cr P.Size with
       | P.Int k when k = Ops.n -> ()
       | rep -> failwith ("replica SIZE after bootstrap: " ^ P.pp_reply rep));
      (Some r, Some cr)
  in
  List.iter (fun c -> if request c P.Ping <> P.Pong then failwith "PING") (cp :: Option.to_list cr);
  ({ primary; replica; cp; cr }, Unix.gettimeofday () -. t0)

let stop cl =
  C.close cl.cp;
  Option.iter C.close cl.cr;
  List.iter kill (servers cl)

(* --- lanes ---------------------------------------------------------------- *)

type lane = {
  conn : C.t;
  depth : int;
  next : unit -> Ops.req;
  lat : Stats.samples;  (** per-request latency in the window, us *)
  spans : (Spans.t * int array) option;  (** span log, and a name id per verb *)
  out : Buffer.t;
  mutable sent : int;  (** requests sent in the window *)
  mutable reqs : int;  (** requests answered in the window *)
  mutable failed : int;  (** window requests refused or lost *)
  mutable commits : int;  (** state-changing requests, warm-up included *)
  mutable error : string option;  (** first failure or wrong reply *)
  mutable token : int;
  mutable last_reply : float;
  mutable slice : int;  (** window slice the next batch's samples are tagged with *)
}

let verbs = [| "GET"; "PUT"; "DEL"; "MGET"; "RANGE"; "UPDATE"; "TRANSFER" |]

let verb_id (op : Ops.op) =
  match op with
  | Get _ -> 0
  | Put _ -> 1
  | Del _ -> 2
  | Mget _ -> 3
  | Range _ -> 4
  | Update _ -> 5
  | Transfer _ -> 6

let lane ?spans ~prefix conn ~depth ~cap next =
  let spans =
    Option.map (fun s -> (s, Array.map (fun v -> Spans.intern s (prefix ^ "." ^ v)) verbs)) spans
  in
  {
    conn; depth; next; lat = Stats.samples cap; spans; out = Buffer.create 4096;
    sent = 0; reqs = 0; failed = 0; commits = 0; error = None; token = 0; last_reply = 0.;
    slice = 0;
  }

let rec read_n c k acc =
  if k = 0 then Ok (List.rev acc)
  else match C.read_reply c with Ok r -> read_n c (k - 1) (r :: acc) | Error e -> Error e

let fail l ~measure msg =
  if measure then l.failed <- l.failed + 1;
  if l.error = None then l.error <- Some msg

(* One pipelined batch.  A request's latency runs from the send of its
   batch to the arrival of its own reply. *)
let run_batch l ~measure =
  let reqs = Array.init l.depth (fun _ -> l.next ()) in
  let cmds =
    Array.map
      (fun (r : Ops.req) ->
        l.token <- l.token + 1;
        Ops.commands ~token:l.token r.op)
      reqs
  in
  Buffer.clear l.out;
  Array.iter (List.iter (P.render_command l.out)) cmds;
  let wire = Buffer.contents l.out in
  if measure then l.sent <- l.sent + l.depth;
  let t0 = Verlib.Hwclock.now () in
  match C.send_raw l.conn wire with
  | exception e -> Array.iter (fun _ -> fail l ~measure ("send: " ^ Printexc.to_string e)) reqs
  | () ->
      (* After a wrong reply the rest of the batch is still read, so the
         connection stays in step for the checks that follow. *)
      let lost = ref false in
      Array.iteri
        (fun i r ->
          if !lost then fail l ~measure "batch abandoned"
          else
            match read_n l.conn (List.length cmds.(i)) [] with
            | Error e ->
                lost := true;
                fail l ~measure ("lost on the wire: " ^ e)
            | Ok replies -> (
                let t1 = Verlib.Hwclock.now () in
                if measure then begin
                  Stats.add ~tag:l.slice l.lat (Verlib.Hwclock.to_us (t1 - t0));
                  l.reqs <- l.reqs + 1;
                  match l.spans with
                  | Some (s, ids) -> Spans.add s ~name:ids.(verb_id r.Ops.op) ~req:l.reqs t0 t1
                  | None -> ()
                end;
                match Ops.check r replies with
                | Pass -> if Ops.changes_state r then l.commits <- l.commits + 1
                | Failed m -> fail l ~measure m
                | Wrong m -> if l.error = None then l.error <- Some ("wrong reply: " ^ m)))
        reqs;
      l.last_reply <- Unix.gettimeofday ()

let warm l batches =
  for _ = 1 to batches do
    if l.error = None then run_batch l ~measure:false
  done

(* A window is cut into slices of [slice_s]; each records what the writer
   completed in it and how much CPU the host stole meanwhile.  The
   writer's latency samples are tagged with their slice's index. *)
type slice = {
  dur : float;  (** seconds *)
  done_ : int;  (** writer requests answered *)
  cpu_s : float;  (** user+sys of every server process *)
  steal : float;  (** share of host CPU time stolen, 0..1 *)
}

let slice_s = 0.1

type window = {
  elapsed : float;  (** seconds the writer lane ran *)
  server_cpu_s : float;  (** user+sys of every server process *)
  client_cpu_s : float;
  steal_pct : float;
  slices : slice array;
}

let steal_share (t0, s0) (t1, s1) = if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.

(* The writer runs on this domain until the deadline.  A reader runs on
   its own domain, one batch per [every] writer batches: left free, it would take
   whatever CPU share the writer leaves on a two-core host, and the mix
   of the window (and the server CPU per writer op) would drift from
   run to run. *)
let window cl ~writer ~reader ~every ~seconds =
  let cpu () = List.fold_left (fun a s -> a +. Procfs.cpu_s s.pid) 0. (servers cl) in
  let client () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let mu = Mutex.create () and cv = Condition.create () in
  let batches = ref 0 and finished = ref false in
  let paced l () =
    let mine = ref 0 in
    let rec go () =
      Mutex.lock mu;
      while !batches < (!mine + 1) * every && not !finished do
        Condition.wait cv mu
      done;
      let stop = !finished in
      Mutex.unlock mu;
      if (not stop) && l.error = None && not (Stats.full l.lat) then begin
        run_batch l ~measure:true;
        incr mine;
        go ()
      end
    in
    go ()
  in
  let signal f =
    Mutex.lock mu;
    f ();
    Condition.broadcast cv;
    Mutex.unlock mu
  in
  let host0 = Procfs.host_cpu () in
  let cpu0 = cpu () and cl0 = client () in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  let slices = ref [] and mark = ref (t0, writer.reqs, cpu0, host0) in
  let cut now =
    let ts, d0, c0, h0 = !mark in
    let c = cpu () and h = Procfs.host_cpu () in
    slices := { dur = now -. ts; done_ = writer.reqs - d0; cpu_s = c -. c0; steal = steal_share h0 h } :: !slices;
    mark := (now, writer.reqs, c, h);
    writer.slice <- writer.slice + 1
  in
  writer.slice <- 0;
  let other = Option.map (fun l -> Domain.spawn (paced l)) reader in
  let rec go next_cut =
    let now = Unix.gettimeofday () in
    if writer.error = None && (not (Stats.full writer.lat)) && now < deadline then begin
      let next_cut = if now >= next_cut then (cut now; next_cut +. slice_s) else next_cut in
      run_batch writer ~measure:true;
      signal (fun () -> incr batches);
      go next_cut
    end
  in
  go (t0 +. slice_s);
  let t1 = Unix.gettimeofday () in
  cut t1;
  signal (fun () -> finished := true);
  Option.iter Domain.join other;
  let _, _, cpu1, host1 = !mark in
  {
    elapsed = t1 -. t0;
    server_cpu_s = cpu1 -. cpu0;
    client_cpu_s = client () -. cl0;
    steal_pct = 100. *. steal_share host0 host1;
    slices = Array.of_list (List.rev !slices);
  }

let rss_mb cl =
  List.fold_left (fun a s -> a +. float_of_int (Procfs.hwm_kb s.pid)) 0. (servers cl) /. 1024.

(* Milliseconds from [since] until the replica's watermark reaches the
   primary's tail stamp (no writer is running). *)
let catch_up cl ~since =
  match cl.cr with
  | None -> None
  | Some cr ->
      let tail = num (json cl.cp P.Replstats) [ "tail_stamp" ] in
      let give_up = Unix.gettimeofday () +. 30. in
      let rec go () =
        if num (json cr P.Replstats) [ "watermark" ] >= tail then ()
        else if Unix.gettimeofday () > give_up then failwith "replica did not catch up"
        else begin
          Unix.sleepf 0.0005;
          go ()
        end
      in
      go ();
      Some ((Unix.gettimeofday () -. since) *. 1000.)
