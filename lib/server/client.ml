(* Wire-layer fault points (docs/RESILIENCE.md).  [io_check] returns the
   I/O actions for interpretation against the live socket; injected
   resets surface as the same [Unix.Unix_error] a real peer reset
   produces, so the retry layer cannot tell them apart — which is the
   point. *)
let fp_read = Fault.Point.make "client.read"

let fp_write = Fault.Point.make "client.write"

(* Process-wide retry accounting, exported as gauges so every
   [Verlib.Obs] report carries them next to [shed_total] /
   [faults_fired]. *)
let retry_total_a = Atomic.make 0

let reconnect_total_a = Atomic.make 0

let failover_total_a = Atomic.make 0

let (_ : Flock.Telemetry.Gauge.t) =
  Flock.Telemetry.Gauge.make "retry_total" (fun () -> Atomic.get retry_total_a)

let (_ : Flock.Telemetry.Gauge.t) =
  Flock.Telemetry.Gauge.make "reconnect_total" (fun () ->
      Atomic.get reconnect_total_a)

let (_ : Flock.Telemetry.Gauge.t) =
  Flock.Telemetry.Gauge.make "failover_total" (fun () ->
      Atomic.get failover_total_a)

let retry_total () = Atomic.get retry_total_a

let reconnect_total () = Atomic.get reconnect_total_a

let failover_total () = Atomic.get failover_total_a

type t = {
  fd : Unix.file_descr;
  reader : Protocol.Reader.t;
  out : Buffer.t;
}

(* EINTR-immune read for the reply reader.  Anything else —
   EOF, a real or injected reset, or EAGAIN from an expired
   SO_RCVTIMEO — propagates into [Protocol.Reader.refill], which maps
   any exception to a framing error ("connection closed mid-reply"):
   exactly the ambiguous-failure shape the retry layer handles. *)
let read_fd fd b p l =
  (match Fault.io_check fp_read with
   | Some Fault.Econnreset ->
       raise (Unix.Unix_error (Unix.ECONNRESET, "read", "fault"))
   | Some _ | None -> ());
  let rec go () =
    match Unix.read fd b p l with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let connect ?(host = "127.0.0.1") ?(retries = 0) ?read_timeout ~port () =
  (* Mirror the server: a reset peer must cost an exception, never a
     process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let rec dial attempt =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENETUNREACH), _, _)
      when attempt < retries ->
        (try Unix.close fd with _ -> ());
        Unix.sleepf 0.1;
        dial (attempt + 1)
    | exception e ->
        (try Unix.close fd with _ -> ());
        raise e
  in
  let fd = dial 0 in
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
  (match read_timeout with
   | Some s when s > 0. ->
       (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s with _ -> ())
   | Some _ | None -> ());
  { fd; reader = Protocol.Reader.create (read_fd fd); out = Buffer.create 4096 }

let close t = try Unix.close t.fd with _ -> ()

(* Push the whole out-buffer, surviving EINTR and partial writes.
   Injected [Short_write] caps one syscall; injected [Econnreset] (and
   real EPIPE/ECONNRESET) raise to the caller. *)
let flush t =
  let s = Buffer.contents t.out in
  Buffer.clear t.out;
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then begin
      let cap =
        match Fault.io_check fp_write with
        | Some (Fault.Short_write n) -> max 1 (min n (len - off))
        | Some Fault.Econnreset ->
            raise (Unix.Unix_error (Unix.ECONNRESET, "write", "fault"))
        | Some (Fault.Eagain_burst _) | Some _ | None -> len - off
      in
      match Unix.write t.fd b off cap with
      | n -> go (off + n)
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
          go off
    end
  in
  go 0

let send_raw t s =
  Buffer.add_string t.out s;
  flush t

let read_reply t = Protocol.Reader.reply t.reader

let request t c =
  Protocol.render_command t.out c;
  flush t;
  read_reply t

(* One traced command: the [TRACE <id>] prefix asks the server for an
   [@]-framed phase decomposition ahead of the data reply; the reader
   parses and stashes it, and we hand it back next to the reply.  A
   [None] trace against an old server (which echoes the unknown verb as
   an error) or a shed connection is not a transport failure — callers
   treat it as "this request was not decomposed". *)
let request_traced t ~trace_id c =
  Protocol.render_command ~trace_id t.out c;
  flush t;
  let r = read_reply t in
  (r, Protocol.Reader.last_trace t.reader)

let pipeline t cs =
  List.iter (Protocol.render_command t.out) cs;
  flush t;
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | _ :: rest -> (
        match read_reply t with
        | Ok r -> go (r :: acc) rest
        | Error e -> Error e)
  in
  go [] cs

(* --- retrying transport --------------------------------------------------- *)

type rt = {
  rt_eps : (string * int) array;  (* endpoint ring; index 0 is preferred *)
  mutable rt_ep : int;
  rt_read_timeout : float;
  rt_max_attempts : int;
  rt_retry_busy : bool;
  rt_rng : Workload.Splitmix.t;
  mutable rt_conn : t option;
  mutable rt_dialed : bool;  (* first dial is not a "reconnect" *)
  mutable rt_retries : int;
  mutable rt_busy : int;
}

let connect_rt ?(host = "127.0.0.1") ?(read_timeout = 2.) ?(max_attempts = 10)
    ?(retry_busy = true) ?(seed = 1) ?(endpoints = []) ~port () =
  {
    rt_eps = Array.of_list ((host, port) :: endpoints);
    rt_ep = 0;
    rt_read_timeout = read_timeout;
    rt_max_attempts = max max_attempts 1;
    rt_retry_busy = retry_busy;
    rt_rng = Workload.Splitmix.create (seed lxor 0x7e57c0de);
    rt_conn = None;
    rt_dialed = false;
    rt_retries = 0;
    rt_busy = 0;
  }

let rt_stats rt = (rt.rt_retries, rt.rt_busy)

let rt_drop rt =
  match rt.rt_conn with
  | Some c ->
      close c;
      rt.rt_conn <- None
  | None -> ()

let rt_close = rt_drop

(* Rotate to the next endpoint in the ring (no-op with a single one).
   Called on transport failure and on [-ERR READONLY]: a demoted or
   stale endpoint stops receiving this client's traffic until the ring
   wraps back to it. *)
let rt_rotate rt =
  if Array.length rt.rt_eps > 1 then begin
    rt_drop rt;
    rt.rt_ep <- (rt.rt_ep + 1) mod Array.length rt.rt_eps;
    Atomic.incr failover_total_a
  end

let ensure rt =
  match rt.rt_conn with
  | Some c -> c
  | None ->
      let host, port = rt.rt_eps.(rt.rt_ep) in
      (* With failover candidates, give up on a dead endpoint quickly
         and let the retry ladder rotate; alone, keep knocking. *)
      let retries = if Array.length rt.rt_eps > 1 then 3 else 50 in
      let c = connect ~host ~retries ~read_timeout:rt.rt_read_timeout ~port () in
      if rt.rt_dialed then Atomic.incr reconnect_total_a;
      rt.rt_dialed <- true;
      rt.rt_conn <- Some c;
      c

let is_readonly msg =
  String.length msg >= 8 && String.sub msg 0 8 = "READONLY"

(* Full jitter on a doubling base, capped at ~128 ms — the
   [Flock.Backoff] shape, in wall-clock seconds. *)
let backoff rt attempt =
  let base = 0.001 *. Float.of_int (1 lsl min attempt 7) in
  Unix.sleepf (base *. (0.5 +. Workload.Splitmix.float rt.rt_rng))

let busy_wait rt ms =
  let s = Float.of_int (max ms 1) /. 1000. in
  Unix.sleepf (s *. (0.5 +. Workload.Splitmix.float rt.rt_rng))

let count_retry rt =
  rt.rt_retries <- rt.rt_retries + 1;
  Atomic.incr retry_total_a

(* One command with transparent recovery; [once] sends it on a live
   connection.  Ambiguous transport failures (reset, EOF mid-reply,
   read timeout) are retried only for [Protocol.idempotent] commands —
   the reply may have been lost after execution.  [-BUSY] is shed
   {e before} execution, so it is retried (after the server's hinted
   delay, jittered) regardless of idempotency, as long as [retry_busy]
   is set.  A trace frame rides with its own attempt's reply: a retried
   attempt discards both, so the pair returned always describes one
   server-side execution. *)
let rt_ladder rt c once =
  let retryable = Protocol.idempotent c in
  let rec go attempt =
    let fail_retry e =
      rt_drop rt;
      if retryable && attempt + 1 < rt.rt_max_attempts then begin
        rt_rotate rt;
        count_retry rt;
        backoff rt attempt;
        go (attempt + 1)
      end
      else (Error e, None)
    in
    match once (ensure rt) with
    | (Ok (Protocol.Busy ms), _) as r ->
        rt.rt_busy <- rt.rt_busy + 1;
        if rt.rt_retry_busy && attempt + 1 < rt.rt_max_attempts then begin
          count_retry rt;
          busy_wait rt ms;
          go (attempt + 1)
        end
        else r
    | Ok (Protocol.Err msg), _
      when is_readonly msg
           && Array.length rt.rt_eps > 1
           && attempt + 1 < rt.rt_max_attempts ->
        (* A replica refused the write before executing anything:
           always safe to re-issue against the next endpoint. *)
        rt_rotate rt;
        count_retry rt;
        backoff rt attempt;
        go (attempt + 1)
    | (Ok _, _) as r -> r
    | Error e, _ -> fail_retry e
    | exception Unix.Unix_error (err, _, _) ->
        fail_retry (Unix.error_message err)
  in
  go 0

let rt_request rt c = fst (rt_ladder rt c (fun t -> (request t c, None)))

let rt_request_traced rt ~trace_id c =
  rt_ladder rt c (fun t -> request_traced t ~trace_id c)

(* Pipelined batch with recovery.  The whole batch is re-sent on a
   transport failure only when {e every} command is idempotent (replies
   are only handed back once all have arrived, so a retry can't
   double-report).  [-BUSY] entries in a successful batch are re-issued
   individually through {!rt_request}. *)
let rt_pipeline rt cs =
  let retryable = List.for_all Protocol.idempotent cs in
  let fix_busy rs =
    let rec go acc cs rs =
      match (cs, rs) with
      | [], [] -> Ok (List.rev acc)
      | c :: cs', Protocol.Busy ms :: rs' when rt.rt_retry_busy -> (
          rt.rt_busy <- rt.rt_busy + 1;
          count_retry rt;
          busy_wait rt ms;
          match rt_request rt c with
          | Ok r -> go (r :: acc) cs' rs'
          | Error e -> Error e)
      | _ :: cs', r :: rs' -> go (r :: acc) cs' rs'
      | _ -> Error "pipeline reply arity mismatch"
    in
    go [] cs rs
  in
  let rec attempt_loop attempt =
    let fail_retry e =
      rt_drop rt;
      if retryable && attempt + 1 < rt.rt_max_attempts then begin
        rt_rotate rt;
        count_retry rt;
        backoff rt attempt;
        attempt_loop (attempt + 1)
      end
      else Error e
    in
    match pipeline (ensure rt) cs with
    | Ok rs -> fix_busy rs
    | Error e -> fail_retry e
    | exception Unix.Unix_error (err, _, _) ->
        fail_retry (Unix.error_message err)
  in
  attempt_loop 0

(* --- transactions --------------------------------------------------------- *)

(* One server-side transaction: [MULTI; <ops>; EXEC <token>] pipelined,
   with abort-aware retry.  The token (fresh per logical transaction,
   reused across every retry of it) makes the commit exactly-once: any
   ambiguous wire failure — reply lost after the server committed —
   resolves on retry to the cached result instead of a second commit,
   so the caller needs no settling/read-back pass.  Validation aborts
   ([-ABORT]) and shed commits ([-BUSY] on EXEC, which keeps the queued
   transaction server-side) retry with jittered backoff.  An [EXEC
   without MULTI] error means a reconnect dropped the queue between
   queueing and committing; the whole sequence is simply re-sent. *)
let rt_txn rt ?token cs =
  let token =
    match token with
    | Some tk when tk > 0 -> tk
    | Some _ | None -> 1 + Workload.Splitmix.below rt.rt_rng (max_int - 1)
  in
  let seq = (Protocol.Multi :: cs) @ [ Protocol.Exec token ] in
  let max_attempts = max rt.rt_max_attempts 16 in
  let rec go attempt =
    let retry e =
      if attempt + 1 < max_attempts then begin
        count_retry rt;
        backoff rt attempt;
        go (attempt + 1)
      end
      else Error e
    in
    match rt_pipeline rt seq with
    | Error e -> Error e
    | Ok rs -> (
        match List.rev rs with
        | [] -> Error "transaction: empty pipeline reply"
        | last :: _ -> (
            match last with
            | Protocol.Arr (Protocol.Int vs :: steps) -> Ok (vs, steps)
            | Protocol.Aborted n ->
                retry
                  (Printf.sprintf
                     "transaction aborted after %d validation attempts" n)
            | Protocol.Busy _ -> retry "transaction: EXEC shed"
            | Protocol.Err msg
              when String.length msg >= 4 && String.sub msg 0 4 = "EXEC" ->
                (* "EXEC without MULTI": a reconnect inside the pipeline
                   lost the queued transaction — re-send it whole. *)
                retry msg
            | Protocol.Err msg
              when is_readonly msg && Array.length rt.rt_eps > 1 ->
                (* A replica refused the commit (nothing executed):
                   re-send the whole transaction to the next endpoint. *)
                rt_rotate rt;
                retry msg
            | Protocol.Err msg -> Error msg
            | r -> Error ("transaction: unexpected EXEC reply " ^ Protocol.pp_reply r)))
  in
  go 0
