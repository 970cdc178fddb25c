(* The poll-backed connection multiplexer (docs/ASYNC.md).

   One net domain owns every registered socket.  Per iteration it:
   polls for readiness; drains worker completions; accepts a burst from
   the nonblocking listener; reads ready connections, reassembling
   '\n'-framed lines ([Protocol.Linebuf]) and handing each chunk's
   complete lines to [h_dispatch] as one batch; flushes pending reply
   bytes nonblockingly; and sweeps idle/write deadlines.  Workers never
   touch a registered fd — they append reply bytes with {!output} and
   report batch completion with {!complete}, which wakes the loop
   through a self-pipe.

   A connection is a state machine:

     reading --dispatch--> busy --complete--> reading
         |                   |      `Close -> closing --flushed--> closed
         |                   `----- `Detach -> detaching --flushed+
         |                                     deregistered--> worker-owned
         `-- EOF/error/deadline --> closing/closed

   Backpressure is structural: while a batch is in flight ([busy]) the
   connection's read interest is off, so a pipelining peer queues in
   the kernel, not in us; a peer that stops reading accumulates outbuf
   until [out_hwm] pauses reads and [write_timeout] kills the
   connection.  The same one-batch-per-connection rule bounds the
   worker queue (one batch per registered connection, plus one per
   connection killed while its batch still waited), so handing a batch
   over never blocks or fails for capacity. *)

type action = [ `Continue | `Close | `Detach ]

type 'a conn = {
  fd : Unix.file_descr;
  mutable slot : int;  (** poll-set slot; -1 once deregistered *)
  inbuf : Protocol.Linebuf.t;  (** loop-only *)
  m : Mutex.t;  (** guards [out] and the detach handshake *)
  out : Buffer.t;  (** reply bytes not yet written (under [m]) *)
  mutable out_off : int;  (** written prefix of [out]; loop-only *)
  mutable busy : bool;  (** a batch is with a worker; loop-only *)
  mutable closing : bool;  (** flush what we owe, then close *)
  mutable detaching : bool;  (** flush, deregister, hand fd to worker *)
  mutable detached : bool;  (** handshake flag (under [m]) *)
  mutable dead : bool;  (** loop abandoned the connection *)
  peer_gone : bool Atomic.t;
      (** the peer departed (FIN/RST) while a batch was in flight — its
          not-yet-executed commands must be dropped, not run with stale
          arguments long after the client gave up and replayed
          elsewhere (see {!peer_gone}) *)
  cv : Condition.t;  (** signals [detached] *)
  mutable last_act : float;  (** last byte read (idle deadline) *)
  mutable out_since : float;  (** outbuf first went nonempty; 0 = empty *)
  mutable accept_ticks : int;  (** accept-to-register cost, for spans *)
  data : 'a;  (** the server's session state *)
}

type 'a handlers = {
  h_accept : Unix.file_descr -> [ `Admit of 'a | `Reject of 'a * string ];
      (** admission decision; [`Reject] still registers the connection,
          pre-loaded with refusal bytes and marked closing *)
  h_dispatch : 'a conn -> string list -> mark:int -> [ `Ok | `Closed ];
      (** hand one chunk's complete lines to the workers *)
  h_overflow : 'a -> string;  (** reply bytes for an over-long line *)
  h_kill : [ `Idle | `Write ] -> unit;  (** deadline-kill accounting *)
  h_close : 'a -> unit;  (** fired once when the loop closes the fd *)
}

type 'a t = {
  lsock : Unix.file_descr;
  handlers : 'a handlers;
  stop_flag : bool Atomic.t;
  idle_timeout : float;
  write_timeout : float;
  max_line : int;
  drain_timeout : float;
  set : Evpoll.Set.t;
  mutable conns : 'a conn option array;  (** index = poll slot *)
  wake_rd : Unix.file_descr;
  wake_wr : Unix.file_descr;
  wake_pending : bool Atomic.t;
  mutable wake_open : bool;  (* loop-side; complete() rechecks under cm *)
  cm : Mutex.t;
  completions : ('a conn * action) Queue.t;
  chunk : Bytes.t;
  fp_read : Fault.Point.t;
  fp_write : Fault.Point.t;
}

(* Poll-set slot 0 is the wake pipe, slot 1 the listener; connections
   occupy slots 2.. and swap-remove among themselves. *)
let wake_slot = 0

let listen_slot = 1

(* Per-iteration accept burst cap: keeps one thundering herd from
   starving reads/flushes of already-admitted connections. *)
let accept_burst = 256

(* Stop reading from a connection whose unflushed replies exceed this;
   reads resume once the peer drains its side. *)
let out_hwm = 1 lsl 20

let create ~lsock ~handlers ~stop_flag ~idle_timeout ~write_timeout ~max_line
    ?(drain_timeout = 5.) ~fp_read ~fp_write () =
  let wake_rd, wake_wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_rd;
  Unix.set_nonblock wake_wr;
  Unix.set_nonblock lsock;
  let set = Evpoll.Set.create ~capacity:256 () in
  let s = Evpoll.Set.add set wake_rd ~interest:Evpoll.ev_in in
  assert (s = wake_slot);
  let s = Evpoll.Set.add set lsock ~interest:Evpoll.ev_in in
  assert (s = listen_slot);
  {
    lsock;
    handlers;
    stop_flag;
    idle_timeout;
    write_timeout;
    max_line;
    drain_timeout;
    set;
    conns = Array.make 256 None;
    wake_rd;
    wake_wr;
    wake_pending = Atomic.make false;
    wake_open = true;
    cm = Mutex.create ();
    completions = Queue.create ();
    chunk = Bytes.create 65536;
    fp_read;
    fp_write;
  }

(* --- worker-facing API ---------------------------------------------------- *)

let output conn s =
  Mutex.lock conn.m;
  Buffer.add_string conn.out s;
  Mutex.unlock conn.m

let wake t =
  if not (Atomic.exchange t.wake_pending true) then begin
    (* The pipe may already be closed during teardown; losing the wake
       is fine then — the loop is gone. *)
    Mutex.lock t.cm;
    (try
       if t.wake_open then ignore (Unix.write t.wake_wr (Bytes.make 1 '!') 0 1)
     with Unix.Unix_error _ -> ());
    Mutex.unlock t.cm
  end

let complete t conn action =
  Mutex.lock t.cm;
  Queue.push (conn, action) t.completions;
  Mutex.unlock t.cm;
  wake t

(* Parks the worker until the loop has flushed the connection's pending
   replies and deregistered the fd ([`Ok] — the worker now owns it and
   must eventually close it), or killed the connection ([`Dead] — the
   loop already closed the fd and fired [h_close]; the worker must not
   touch it). *)
let wait_detached conn =
  Mutex.lock conn.m;
  while not conn.detached do
    Condition.wait conn.cv conn.m
  done;
  let dead = conn.dead in
  Mutex.unlock conn.m;
  if dead then `Dead else `Ok

(* Worker-side liveness check, consulted between the commands of a
   batch.  True once the loop has observed the peer's departure
   (POLLRDHUP/POLLERR/POLLHUP while the batch was in flight):
   the reply is undeliverable and the client's retry layer treats the
   connection as ambiguous-and-replayed, so executing the remaining
   commands anyway risks zombie writes — stale-argument mutations
   landing arbitrarily late, e.g. when a chaos stall releases — that
   break the replay-convergence contract (docs/RESILIENCE.md).  The
   command in flight when the peer left still completes (it cannot be
   recalled); everything after it is dropped. *)
let peer_gone conn = Atomic.get conn.peer_gone

(* --- loop internals ------------------------------------------------------- *)

let conn_at t slot = t.conns.(slot)

let store_conn t slot conn =
  if slot >= Array.length t.conns then begin
    let a = Array.make (max (slot + 1) (2 * Array.length t.conns)) None in
    Array.blit t.conns 0 a 0 (Array.length t.conns);
    t.conns <- a
  end;
  t.conns.(slot) <- conn

(* Removes [conn] from the poll set, keeping the conns mirror in sync
   with the set's swap-remove. *)
let deregister t conn =
  let slot = conn.slot in
  if slot >= 0 then begin
    conn.slot <- -1;
    (match Evpoll.Set.remove t.set slot with
     | None -> t.conns.(slot) <- None
     | Some moved ->
         let m = t.conns.(moved) in
         t.conns.(slot) <- m;
         (match m with Some c -> c.slot <- slot | None -> ());
         t.conns.(moved) <- None)
  end

(* The loop kills a connection: close the fd, fire [h_close], and
   release any worker parked in [wait_detached] with [`Dead] (the
   detach handshake is signalled unconditionally — for a connection
   nobody is adopting, the extra flag is inert).  The fd has exactly
   one closer: the loop here, or — after a successful detach — the
   adopting worker. *)
let close_conn t conn =
  if not conn.dead then begin
    deregister t conn;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Mutex.lock conn.m;
    conn.dead <- true;
    conn.detached <- true;
    Condition.broadcast conn.cv;
    Mutex.unlock conn.m;
    t.handlers.h_close conn.data
  end

let finish_detach t conn =
  deregister t conn;
  Mutex.lock conn.m;
  conn.detached <- true;
  Condition.broadcast conn.cv;
  Mutex.unlock conn.m

let set_read_interest t conn on =
  if conn.slot >= 0 then begin
    let i = Evpoll.Set.interest t.set conn.slot in
    let i' = if on then i lor Evpoll.ev_in else i land lnot Evpoll.ev_in in
    Evpoll.Set.set_interest t.set conn.slot i'
  end

let set_write_interest t conn on =
  if conn.slot >= 0 then begin
    let i = Evpoll.Set.interest t.set conn.slot in
    let i' = if on then i lor Evpoll.ev_out else i land lnot Evpoll.ev_out in
    Evpoll.Set.set_interest t.set conn.slot i'
  end

let out_pending conn =
  Mutex.lock conn.m;
  let n = Buffer.length conn.out - conn.out_off in
  Mutex.unlock conn.m;
  n

(* Collect every complete line currently buffered. *)
let take_lines conn =
  let rec go acc =
    match Protocol.Linebuf.next conn.inbuf with
    | Some l -> go (l :: acc)
    | None -> List.rev acc
  in
  go []

(* Hand a batch to the workers; reads stay off until it completes. *)
let dispatch t conn lines ~mark =
  if lines <> [] && not conn.dead then begin
    match t.handlers.h_dispatch conn lines ~mark with
    | `Ok ->
        conn.busy <- true;
        set_read_interest t conn false
    | `Closed -> conn.closing <- true
  end

(* Nonblocking flush of up to one 64K slice.  Returns [`Empty] when the
   outbuf fully drained, [`More] when bytes remain (write interest is
   armed), [`Closed] when the flush killed the connection. *)
let rec flush_conn t conn =
  Mutex.lock conn.m;
  let len = Buffer.length conn.out in
  let off = conn.out_off in
  let slice =
    if len > off then Buffer.sub conn.out off (min 65536 (len - off)) else ""
  in
  Mutex.unlock conn.m;
  if slice = "" then begin
    (* Fully written: reclaim the buffer (workers may have appended
       since the length read above — recheck under the lock). *)
    Mutex.lock conn.m;
    if Buffer.length conn.out = conn.out_off then begin
      Buffer.clear conn.out;
      conn.out_off <- 0
    end;
    let more = Buffer.length conn.out > conn.out_off in
    Mutex.unlock conn.m;
    if more then `More
    else begin
      conn.out_since <- 0.;
      if conn.slot >= 0 then set_write_interest t conn false;
      `Empty
    end
  end
  else begin
    if conn.out_since = 0. then conn.out_since <- Unix.gettimeofday ();
    let cap =
      match Fault.io_check t.fp_write with
      | Some (Fault.Short_write n) -> max 1 (min n (String.length slice))
      | Some Fault.Econnreset -> -1
      | Some (Fault.Eagain_burst _) | Some _ | None -> String.length slice
    in
    if cap < 0 then begin
      close_conn t conn;
      `Closed
    end
    else
      match
        Unix.write conn.fd (Bytes.unsafe_of_string slice) 0 cap
      with
      | n ->
          conn.out_off <- conn.out_off + n;
          if n < String.length slice then begin
            set_write_interest t conn true;
            `More
          end
          else flush_conn t conn
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> `More
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          set_write_interest t conn true;
          if
            t.write_timeout > 0. && conn.out_since > 0.
            && Unix.gettimeofday () -. conn.out_since > t.write_timeout
          then begin
            (* Peer stopped reading: reclaim the connection. *)
            t.handlers.h_kill `Write;
            close_conn t conn;
            `Closed
          end
          else `More
      | exception Unix.Unix_error _ ->
          close_conn t conn;
          `Closed
  end

(* A connection that owes nothing and has nothing in flight can finish
   its terminal state. *)
let try_finish t conn =
  if not conn.busy then begin
    if conn.detaching then begin
      match flush_conn t conn with
      | `Empty -> finish_detach t conn
      | `More | `Closed -> ()
    end
    else if conn.closing then
      match flush_conn t conn with
      | `Empty -> close_conn t conn
      | `More | `Closed -> ()
  end

let process_completions t =
  Mutex.lock t.cm;
  let pending = Queue.create () in
  Queue.transfer t.completions pending;
  Mutex.unlock t.cm;
  Queue.iter
    (fun (conn, action) ->
      if not conn.dead then begin
        conn.busy <- false;
        (match action with
         | `Close -> conn.closing <- true
         | `Detach -> conn.detaching <- true
         | `Continue -> ());
        if Atomic.get conn.peer_gone && not conn.detaching then
          conn.closing <- true;
        if not (conn.closing || conn.detaching) then
          set_read_interest t conn true;
        (match flush_conn t conn with
         | `Closed -> ()
         | `Empty | `More -> try_finish t conn)
      end)
    pending

(* Empty the pipe, and only then clear [wake_pending]: a wake that
   lands in between sees the flag still set and skips its write, but its
   completion is already queued for the processing that follows.
   Clearing first would let a racing wake's byte be swallowed here and
   leave the flag stuck set, so every later wake would skip the pipe and
   wait out the poll timeout.  Only a false-to-true flip writes, so the
   pipe holds at most one byte per clear. *)
let drain_wake t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_rd b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
  in
  go ();
  Atomic.set t.wake_pending false

let register t fd data ~accept_ticks ~closing ~preload =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  Unix.set_nonblock fd;
  let conn =
    {
      fd;
      slot = -1;
      inbuf = Protocol.Linebuf.create ();
      m = Mutex.create ();
      out = Buffer.create 512;
      out_off = 0;
      busy = false;
      closing;
      detaching = false;
      detached = false;
      dead = false;
      peer_gone = Atomic.make false;
      cv = Condition.create ();
      last_act = Unix.gettimeofday ();
      out_since = 0.;
      accept_ticks;
      data;
    }
  in
  Buffer.add_string conn.out preload;
  (* rdhup is armed for the connection's whole life: read interest
     toggles off while a batch is in flight, and this is exactly when a
     departing peer must still be noticed (see [peer_gone]). *)
  let interest =
    if closing then Evpoll.ev_out else Evpoll.ev_in lor Evpoll.ev_rdhup
  in
  let slot = Evpoll.Set.add t.set fd ~interest in
  conn.slot <- slot;
  store_conn t slot (Some conn);
  (* A rejected connection only owes its refusal bytes; push them now
     and close if the write completes immediately. *)
  if closing then try_finish t conn

let accept_pass t =
  let continue = ref true in
  let budget = ref accept_burst in
  while !continue && !budget > 0 do
    decr budget;
    match Unix.accept ~cloexec:true t.lsock with
    | fd, _ -> (
        let a_ticks = Verlib.Hwclock.now () in
        match t.handlers.h_accept fd with
        | `Admit data ->
            register t fd data
              ~accept_ticks:(max 0 (Verlib.Hwclock.now () - a_ticks))
              ~closing:false ~preload:""
        | `Reject (data, bytes) ->
            register t fd data ~accept_ticks:0 ~closing:true ~preload:bytes)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        (* A connection that died in the backlog is not an accept-loop
           fatality; keep accepting. *)
        ()
    | exception Unix.Unix_error _ ->
        (* EMFILE/ENFILE and friends: back off until the next poll
           round rather than spinning. *)
        continue := false
  done

let read_conn t conn =
  if not (conn.busy || conn.closing || conn.detaching) then begin
    let cap =
      match Fault.io_check t.fp_read with
      | Some Fault.Econnreset -> -1
      | Some (Fault.Eagain_burst _) -> 0 (* injected spurious wakeup *)
      | Some (Fault.Short_write n) -> max 1 n
      | Some _ | None -> Bytes.length t.chunk
    in
    if cap < 0 then close_conn t conn
    else if cap = 0 then ()
    else
      match Unix.read conn.fd t.chunk 0 cap with
      | 0 ->
          (* EOF.  Anything already read and parseable is still
             answered; the partial tail dies with the peer. *)
          conn.closing <- true;
          (match take_lines conn with
           | [] -> ()
           | lines -> dispatch t conn lines ~mark:(Verlib.Hwclock.now ()));
          try_finish t conn
      | n ->
          conn.last_act <- Unix.gettimeofday ();
          let mark = Verlib.Hwclock.now () in
          Protocol.Linebuf.feed conn.inbuf t.chunk 0 n;
          let lines = take_lines conn in
          if Protocol.Linebuf.pending conn.inbuf > t.max_line then begin
            output conn (t.handlers.h_overflow conn.data);
            conn.closing <- true;
            (* The over-long tail is unparseable; drop buffered lines
               that preceded it?  No — answer them, then refuse. *)
            dispatch t conn lines ~mark;
            try_finish t conn
          end
          else begin
            dispatch t conn lines ~mark;
            ignore (flush_conn t conn)
          end
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error _ -> close_conn t conn
  end

let sweep_deadlines t now conn =
  if not conn.dead then begin
    if
      t.idle_timeout > 0.
      && (not (conn.busy || conn.closing || conn.detaching))
      && out_pending conn = 0
      && now -. conn.last_act > t.idle_timeout
    then begin
      (* The client connected and went silent. *)
      t.handlers.h_kill `Idle;
      close_conn t conn
    end
    else if
      t.write_timeout > 0. && conn.out_since > 0.
      && now -. conn.out_since > t.write_timeout
    then begin
      t.handlers.h_kill `Write;
      close_conn t conn
    end
  end

let live_conns t =
  let n = ref 0 in
  for i = 2 to Evpoll.Set.length t.set - 1 do
    match t.conns.(i) with Some _ -> incr n | None -> ()
  done;
  !n

(* Graceful drain: stop accepting; let every in-flight batch complete
   (a read dispatches all the complete lines it finds, so a connection
   with nothing in flight owes no further batch); flush what we owe;
   close everything.  Connections stuck on a dead worker queue or an
   unreadable peer are force-closed at the drain deadline, and workers
   parked in [wait_detached] are released with [`Dead]. *)
let drain t =
  let deadline = Unix.gettimeofday () +. t.drain_timeout in
  Evpoll.Set.set_interest t.set listen_slot 0;
  let finish_idle () =
    for i = Evpoll.Set.length t.set - 1 downto 2 do
      match t.conns.(i) with
      | None -> ()
      | Some conn ->
          if not (conn.busy || conn.closing || conn.detaching) then
            conn.closing <- true;
          try_finish t conn
    done
  in
  finish_idle ();
  while live_conns t > 0 && Unix.gettimeofday () < deadline do
    ignore (Evpoll.Set.poll t.set ~timeout_ms:20);
    if Evpoll.has (Evpoll.Set.revents t.set wake_slot) Evpoll.ev_in then
      drain_wake t;
    process_completions t;
    finish_idle ()
  done;
  (* Force-close survivors.  [close_conn] also releases any worker
     parked in [wait_detached] with [`Dead], and late completions from
     still-running workers find [conn.dead] and do nothing. *)
  for i = Evpoll.Set.length t.set - 1 downto 2 do
    match t.conns.(i) with
    | None -> ()
    | Some conn -> close_conn t conn
  done;
  Mutex.lock t.cm;
  t.wake_open <- false;
  Mutex.unlock t.cm;
  (try Unix.close t.wake_rd with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_wr with Unix.Unix_error _ -> ())

let run t =
  while not (Atomic.get t.stop_flag) do
    ignore (Evpoll.Set.poll t.set ~timeout_ms:200);
    if Evpoll.has (Evpoll.Set.revents t.set wake_slot) Evpoll.ev_in then
      drain_wake t;
    process_completions t;
    if Evpoll.has (Evpoll.Set.revents t.set listen_slot) Evpoll.ev_in then
      accept_pass t;
    let now = Unix.gettimeofday () in
    (* Downward scan: a swap-remove pulls an already-visited entry into
       the hole, so removal during iteration never skips a live conn. *)
    for i = Evpoll.Set.length t.set - 1 downto 2 do
      match t.conns.(i) with
      | None -> ()
      | Some conn ->
          if conn.slot >= 0 && not conn.dead then begin
            let r = Evpoll.Set.revents t.set conn.slot in
            if Evpoll.has r Evpoll.ev_nval then close_conn t conn
            else begin
              (* The peer left while its batch was in flight (read
                 interest is off then, so this FIN/RST would otherwise
                 stay invisible until completion): flag it so the
                 worker stops before the not-yet-executed commands.  A
                 [closing] connection is exempt — its final
                 (EOF-dispatched) lines are still answered politely. *)
              if
                Evpoll.has r
                  (Evpoll.ev_rdhup lor Evpoll.ev_err lor Evpoll.ev_hup)
                && conn.busy && not conn.closing
              then Atomic.set conn.peer_gone true;
              if
                Evpoll.has r Evpoll.ev_in
                && out_pending conn < out_hwm
              then read_conn t conn;
              if
                (not conn.dead)
                && (Evpoll.has r Evpoll.ev_out || out_pending conn > 0)
              then ignore (flush_conn t conn);
              if (not conn.dead) && Evpoll.has r (Evpoll.ev_err lor Evpoll.ev_hup)
              then begin
                (* Half-closed peers still get their replies; a HUP with
                   nothing owed and nothing in flight is just a close. *)
                if
                  (not conn.busy)
                  && out_pending conn = 0
                  && Protocol.Linebuf.pending conn.inbuf = 0
                  && not (conn.closing || conn.detaching)
                then close_conn t conn
              end;
              if not conn.dead then begin
                try_finish t conn;
                if not conn.dead then sweep_deadlines t now conn
              end
            end
          end
    done
  done;
  drain t
