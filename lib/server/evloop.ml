(* The poll-backed connection multiplexer (docs/ASYNC.md).

   A server runs one loop per domain, each owning its share of the
   connections.  Per iteration a loop: polls; adopts connections other
   loops handed over; accepts from the shared listener, handing each
   connection to the least-loaded loop; reads ready connections,
   reassembling '\n'-framed lines ([Protocol.Linebuf]) and executing
   each chunk's lines inline as one batch ([h_exec]) whose replies land
   in the connection's outbuf; flushes; and, in one pass over its
   connections, sweeps idle/write deadlines and re-checks the parked
   and streaming ones ([h_resume]).  Outbuf, session and poll set are
   loop-only, and the loop is the fd's only closer.

   A connection is a state machine:

     connecting --connected--> reading      (a [dial]ed connection)
     reading --exec--> reading
         |       `Park -> parked --resume--> reading (or again parked)
         |       `Stream -> streaming --resume--> streaming
         |       `Close -> closing --flushed--> closed
         `-- EOF/error/deadline --> closing/closed

   A parked connection (a WATCH, a windowed PROFILE) is not read, so a
   pipelining peer queues in the kernel.  A streaming connection (a
   SUBSCRIBE) is read on the loop's tick, not on readiness: each
   re-check reads its peer's ACK lines, then pumps the feed into its
   outbuf.  (Read on readiness, every ACK a replica sends would wake
   the loop.)  The loop re-checks both every
   iteration, polling with a 1 ms timeout while any exists.  A peer
   that stops reading accumulates outbuf until [out_hwm] pauses reads
   (and a stream's pump) and [write_timeout] kills the connection.

   A loop can also [dial] out: the connection starts [connecting] with
   only write interest, its preloaded bytes go out once the connect
   completes, and from then on it is read on readiness like an accepted
   one; a failed connect closes it.  The replica's follow connection is
   one (docs/REPLICATION.md).  Each iteration ends with [h_tick], which
   may cap the next poll's timeout. *)

type action = [ `Continue | `Close | `Park | `Stream ]

type 'a conn = {
  fd : Unix.file_descr;
  mutable slot : int;  (** poll-set slot; -1 once deregistered *)
  inbuf : Protocol.Linebuf.t;
  out : Buffer.t;  (** reply bytes not yet written *)
  mutable out_off : int;  (** written prefix of [out] *)
  mutable parked : bool;  (** a command waits on [h_resume]; reads off *)
  mutable streaming : bool;
      (** [h_resume] pumps a push stream; read on the tick, not on
          readiness *)
  mutable connecting : bool;
      (** a [dial] in progress: write interest only, nothing flushed *)
  mutable closing : bool;  (** flush what we owe, then close *)
  mutable dead : bool;  (** closed *)
  mutable last_act : float;  (** last byte read (idle deadline) *)
  mutable out_since : float;  (** outbuf first went nonempty; 0 = empty *)
  mutable accept_ticks : int;  (** accept-to-register cost, for spans *)
  data : 'a;  (** the server's session state *)
}

type 'a handlers = {
  h_accept : Unix.file_descr -> [ `Admit of 'a | `Reject of 'a * string ];
      (** admission decision; [`Reject] still registers the connection,
          pre-loaded with refusal bytes and marked closing *)
  h_exec : 'a t -> 'a conn -> string list -> mark:int -> action;
      (** execute one chunk's complete lines, appending replies to
          [conn.out]; [mark] is the tick stamp of the poll round that
          reported the chunk readable *)
  h_resume : 'a t -> 'a conn -> now:float -> action;
      (** re-check a parked connection ([`Park] keeps it parked) or pump
          a streaming one ([`Stream] keeps it streaming); not called
          while a stream's outbuf is at [out_hwm] *)
  h_overflow : 'a -> string;  (** reply bytes for an over-long line *)
  h_kill : [ `Idle | `Write ] -> unit;
      (** deadline-kill accounting, once the killed connection is closed *)
  h_tick : 'a t -> now:float -> int;
      (** once per iteration, after the sweep; returns the longest the
          next poll may sleep, in ms ([max_int]: no cap) *)
  h_close : 'a -> graceful:bool -> unit;
      (** fired once when the connection's fd closes; [graceful] when it
          was closing (EOF, a [`Close] verdict, the drain), not cut by
          an error, a deadline or a handler's own [close_conn] *)
}

(* Every loop of one server, for connection handoff.  [gm] serializes
   the pick-and-count of an accepted connection, so concurrent
   acceptors never both fill the same hole. *)
and 'a group = {
  mutable loops : 'a t array;
  gm : Mutex.t;
  mutable next_pick : int;  (** round-robin tie-break cursor *)
}

and 'a t = {
  group : 'a group;
  lsock : Unix.file_descr;  (** shared by every loop of the group *)
  handlers : 'a handlers;
  stop_flag : bool Atomic.t;
  idle_timeout : float;
  write_timeout : float;
  max_line : int;
  drain_timeout : float;
  set : Evpoll.Set.t;
  mutable conns : 'a conn option array;  (** index = poll slot *)
  mutable ready : 'a conn option array;  (** this round's ready conns *)
  mutable rotor : int;  (** where the next round starts serving *)
  mutable rechecks : int;
      (** parked or streaming connections at the last pass; while any,
          the loop polls with a 1 ms timeout *)
  mutable waiting : int;
      (** connections this poll round reported readable that the loop
          has not executed yet — the admission-control signal *)
  mutable tick_cap : int;  (** the last [h_tick]'s poll-timeout cap *)
  load : int Atomic.t;  (** connections owned *)
  wake_rd : Unix.file_descr;
  wake_wr : Unix.file_descr;
  im : Mutex.t;  (** guards [inbox] and [inbox_open] *)
  inbox : (Unix.file_descr * 'a * int) Queue.t;
      (** accepted connections handed to this loop *)
  mutable inbox_open : bool;
  chunk : Bytes.t;  (** read buffer, and the staging slice of a flush *)
  scratch : Buffer.t;  (** per-loop render buffer for [h_exec] *)
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

(* Outbufs that grew past this are shrunk back once flushed. *)
let out_keep = 65536

(* [n] loops sharing one listener.  Every loop accepts from it: a loop
   held by a long command (a stall, a big SYNC) must not hold up
   admission for the others. *)
let create ~n ~lsock ~handlers ~stop_flag ~idle_timeout ~write_timeout ~max_line
    ?(drain_timeout = 5.) ~fp_read ~fp_write () =
  Unix.set_nonblock lsock;
  let group = { loops = [||]; gm = Mutex.create (); next_pick = 0 } in
  let make _ =
    let wake_rd, wake_wr = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock wake_rd;
    Unix.set_nonblock wake_wr;
    let set = Evpoll.Set.create ~capacity:256 () in
    let s = Evpoll.Set.add set wake_rd ~interest:Evpoll.ev_in in
    assert (s = wake_slot);
    let s = Evpoll.Set.add set lsock ~interest:Evpoll.ev_in in
    assert (s = listen_slot);
    {
      group;
      lsock;
      handlers;
      stop_flag;
      idle_timeout;
      write_timeout;
      max_line;
      drain_timeout;
      set;
      conns = Array.make 256 None;
      ready = Array.make 256 None;
      rotor = 0;
      rechecks = 0;
      waiting = 0;
      tick_cap = max_int;
      load = Atomic.make 0;
      wake_rd;
      wake_wr;
      im = Mutex.create ();
      inbox = Queue.create ();
      inbox_open = true;
      chunk = Bytes.create 65536;
      scratch = Buffer.create 256;
      fp_read;
      fp_write;
    }
  in
  group.loops <- Array.init (max 1 n) make;
  group.loops

(* One byte on the pipe makes the loop's next poll return.  A full pipe
   already guarantees that, so EAGAIN is fine; a closed one means the
   loop is gone. *)
let wake_locked t =
  if t.inbox_open then
    try ignore (Unix.write_substring t.wake_wr "!" 0 1)
    with Unix.Unix_error _ -> ()

let wake t =
  Mutex.lock t.im;
  wake_locked t;
  Mutex.unlock t.im

(* One read empties the pipe: it never holds more than a chunk. *)
let drain_wake t =
  try ignore (Unix.read t.wake_rd t.chunk 0 (Bytes.length t.chunk))
  with Unix.Unix_error _ -> ()

(* --- loop internals ------------------------------------------------------- *)

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

(* [h_close] runs before the fd closes, so a peer that sees its EOF
   also sees the session's end (a stream's cursor dropped or
   orphaned). *)
let close_conn t conn =
  if not conn.dead then begin
    conn.dead <- true;
    deregister t conn;
    t.handlers.h_close conn.data ~graceful:conn.closing;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Atomic.decr t.load
  end

let set_interest t conn bit on =
  if conn.slot >= 0 then begin
    let i = Evpoll.Set.interest t.set conn.slot in
    Evpoll.Set.set_interest t.set conn.slot
      (if on then i lor bit else i land lnot bit)
  end

let out_pending conn = Buffer.length conn.out - conn.out_off

(* Collect every complete line currently buffered. *)
let take_lines conn =
  let rec go acc =
    match Protocol.Linebuf.next conn.inbuf with
    | Some l -> go (l :: acc)
    | None -> List.rev acc
  in
  go []

(* A closing connection reads nothing more; dropping rdhup too keeps a
   departed peer's level-triggered FIN from spinning the poll while the
   last replies flush. *)
let stop_reading t conn =
  set_interest t conn (Evpoll.ev_in lor Evpoll.ev_rdhup) false

let apply t conn (a : action) =
  match a with
  | `Continue -> ()
  | `Close ->
      conn.closing <- true;
      stop_reading t conn
  | `Park ->
      conn.parked <- true;
      set_interest t conn Evpoll.ev_in false
  | `Stream ->
      conn.streaming <- true;
      set_interest t conn Evpoll.ev_in false

let exec t conn lines ~mark =
  if lines <> [] && not conn.dead then
    apply t conn (t.handlers.h_exec t conn lines ~mark)

(* Nonblocking flush of up to one chunk-sized slice at a time, blitted
   into the loop's read [chunk] (free whenever a flush runs: a read's
   bytes are fed to the inbox before anything flushes), so a flush
   allocates nothing however large the outbuf.  Returns [`Empty] when
   the outbuf fully drained, [`More] when bytes remain (write interest
   is armed), [`Closed] when the flush killed the connection. *)
let rec flush_conn t conn =
  let len = out_pending conn in
  if len = 0 then begin
    if Buffer.length conn.out > out_keep then Buffer.reset conn.out
    else Buffer.clear conn.out;
    conn.out_off <- 0;
    conn.out_since <- 0.;
    set_interest t conn Evpoll.ev_out false;
    `Empty
  end
  else begin
    if conn.out_since = 0. then conn.out_since <- Unix.gettimeofday ();
    let slice = min (Bytes.length t.chunk) len in
    Buffer.blit conn.out conn.out_off t.chunk 0 slice;
    let cap =
      match Fault.io_check t.fp_write with
      | Some (Fault.Short_write n) -> max 1 (min n slice)
      | Some Fault.Econnreset -> -1
      | Some (Fault.Eagain_burst _) | Some _ | None -> slice
    in
    if cap < 0 then begin
      close_conn t conn;
      `Closed
    end
    else
      match Unix.write conn.fd t.chunk 0 cap with
      | n ->
          conn.out_off <- conn.out_off + n;
          if n < slice then begin
            set_interest t conn Evpoll.ev_out true;
            `More
          end
          else flush_conn t conn
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> `More
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          set_interest t conn Evpoll.ev_out true;
          if
            t.write_timeout > 0. && conn.out_since > 0.
            && Unix.gettimeofday () -. conn.out_since > t.write_timeout
          then begin
            (* Peer stopped reading: reclaim the connection. *)
            close_conn t conn;
            t.handlers.h_kill `Write;
            `Closed
          end
          else `More
      | exception Unix.Unix_error _ ->
          close_conn t conn;
          `Closed
  end

(* A closing connection that owes nothing and waits on nothing is
   done; one still connecting owes nothing it could send. *)
let try_finish t conn =
  if conn.closing && conn.connecting then close_conn t conn
  else if conn.closing && not (conn.dead || conn.parked) then
    match flush_conn t conn with
    | `Empty -> close_conn t conn
    | `More | `Closed -> ()

let register ?(connecting = false) t fd data ~accept_ticks ~closing ~preload =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  Unix.set_nonblock fd;
  let conn =
    {
      fd;
      slot = -1;
      inbuf = Protocol.Linebuf.create ();
      out = Buffer.create 512;
      out_off = 0;
      parked = false;
      streaming = false;
      connecting;
      closing;
      dead = false;
      last_act = Unix.gettimeofday ();
      out_since = 0.;
      accept_ticks;
      data;
    }
  in
  Buffer.add_string conn.out preload;
  (* rdhup stays armed while read interest is off (a parked
     connection), so a departing peer is still noticed. *)
  let interest =
    if closing || connecting then Evpoll.ev_out
    else Evpoll.ev_in lor Evpoll.ev_rdhup
  in
  let slot = Evpoll.Set.add t.set fd ~interest in
  conn.slot <- slot;
  store_conn t slot (Some conn);
  (* A rejected connection only owes its refusal bytes; push them now
     and close if the write completes immediately. *)
  if closing then try_finish t conn;
  conn

(* Open an outbound connection owned by this loop, without blocking it:
   the connect completes (or fails) in a later poll round, and
   [preload] is written once it has.  Raises [Unix.Unix_error] when the
   connect fails at once. *)
let dial t addr data ~preload =
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  Unix.set_nonblock fd;
  match Unix.connect fd addr with
  | () | (exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EINTR), _, _)) ->
      Atomic.incr t.load;
      register ~connecting:true t fd data ~accept_ticks:0 ~closing:false
        ~preload
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

(* Register what the acceptor handed over.  A closed inbox (the loop is
   draining) refuses further handoffs. *)
let adopt_inbox t =
  Mutex.lock t.im;
  let q = Queue.create () in
  Queue.transfer t.inbox q;
  Mutex.unlock t.im;
  Queue.iter
    (fun (fd, data, accept_ticks) ->
      ignore (register t fd data ~accept_ticks ~closing:false ~preload:""))
    q

(* Balance by construction: the least-loaded loop, ties broken
   round-robin, so connections spread evenly (max - min <= 1 while none
   close) and a closed connection's place is refilled first.  The
   target's count rises before the lock drops. *)
let pick g =
  Mutex.lock g.gm;
  let n = Array.length g.loops in
  let best = ref g.next_pick and best_load = ref max_int in
  for k = 0 to n - 1 do
    let i = (g.next_pick + k) mod n in
    let l = Atomic.get g.loops.(i).load in
    if l < !best_load then begin
      best := i;
      best_load := l
    end
  done;
  g.next_pick <- (!best + 1) mod n;
  let target = g.loops.(!best) in
  Atomic.incr target.load;
  Mutex.unlock g.gm;
  target

let hand_over t fd data ~accept_ticks =
  let target = pick t.group in
  if target == t then
    ignore (register t fd data ~accept_ticks ~closing:false ~preload:"")
  else begin
    Mutex.lock target.im;
    let accepted = target.inbox_open in
    if accepted then begin
      if Queue.is_empty target.inbox then wake_locked target;
      Queue.push (fd, data, accept_ticks) target.inbox
    end;
    Mutex.unlock target.im;
    if not accepted then begin
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Atomic.decr target.load;
      t.handlers.h_close data ~graceful:false
    end
  end

let rec accept_pass t budget =
  if budget > 0 then
    match Unix.accept ~cloexec:true t.lsock with
    | fd, _ ->
        let a_ticks = Verlib.Hwclock.now () in
        (match t.handlers.h_accept fd with
         | `Admit data ->
             hand_over t fd data
               ~accept_ticks:(max 0 (Verlib.Hwclock.now () - a_ticks))
         | `Reject (data, bytes) ->
             Atomic.incr t.load;
             ignore
               (register t fd data ~accept_ticks:0 ~closing:true
                  ~preload:bytes));
        accept_pass t (budget - 1)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        (* A connection that died in the backlog is not an accept-loop
           fatality; keep accepting. *)
        accept_pass t (budget - 1)
    | exception Unix.Unix_error _ ->
        (* EAGAIN ends the burst; on EMFILE/ENFILE and friends, back off
           until the next poll round rather than spinning. *)
        ()

let read_conn t conn ~mark =
  if not (conn.parked || conn.closing) then begin
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
          stop_reading t conn;
          exec t conn (take_lines conn) ~mark;
          try_finish t conn
      | n ->
          conn.last_act <- Unix.gettimeofday ();
          Protocol.Linebuf.feed conn.inbuf t.chunk 0 n;
          let lines = take_lines conn in
          exec t conn lines ~mark;
          if Protocol.Linebuf.pending conn.inbuf > t.max_line then begin
            (* Answer the lines that preceded the over-long tail, then
               refuse it. *)
            Buffer.add_string conn.out (t.handlers.h_overflow conn.data);
            conn.closing <- true;
            stop_reading t conn;
            try_finish t conn
          end
          else if not conn.dead then begin
            match flush_conn t conn with
            | `Empty | `More -> try_finish t conn
            | `Closed -> ()
          end
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error _ -> close_conn t conn
  end

(* Re-check a parked connection, or read and pump a streaming one (the
   read only when the fd is readable, so [fp_read] meets a stream as
   often as a connection read on readiness).  A parked one that is done
   resumes its batch's rest and goes back to reading (or streaming). *)
let resume t conn ~now =
  if conn.streaming && Evpoll.readable ~timeout:0. conn.fd then
    read_conn t conn ~mark:0;
  if
    conn.parked
    || not (conn.dead || conn.closing || out_pending conn >= out_hwm)
  then
    match t.handlers.h_resume t conn ~now with
    | _ when conn.dead -> ()
    | `Park when conn.parked -> ()
    | a ->
        if conn.parked then begin
          conn.parked <- false;
          if not conn.closing then
            set_interest t conn (Evpoll.ev_in lor Evpoll.ev_rdhup) true
        end;
        apply t conn a;
        (match flush_conn t conn with
         | `Closed -> ()
         | `Empty | `More -> try_finish t conn)

(* One connection's share of the per-iteration pass: deadlines, then
   the re-check.  A stream is exempt from the idle deadline: an idle
   feed draws no ACKs. *)
let sweep t now conn =
  if
    t.idle_timeout > 0.
    && (not (conn.parked || conn.streaming || conn.closing))
    && out_pending conn = 0
    && now -. conn.last_act > t.idle_timeout
  then begin
    (* The client connected and went silent. *)
    close_conn t conn;
    t.handlers.h_kill `Idle
  end
  else if
    t.write_timeout > 0. && conn.out_since > 0.
    && now -. conn.out_since > t.write_timeout
  then begin
    close_conn t conn;
    t.handlers.h_kill `Write
  end
  else if conn.parked || conn.streaming then begin
    resume t conn ~now;
    if not conn.dead && (conn.parked || not conn.closing) then
      t.rechecks <- t.rechecks + 1
  end

(* A dialed connection's connect finished: read from now on and send
   what was preloaded, or close on failure. *)
let connected t conn =
  match Unix.getsockopt_error conn.fd with
  | None ->
      conn.connecting <- false;
      conn.last_act <- Unix.gettimeofday ();
      set_interest t conn (Evpoll.ev_in lor Evpoll.ev_rdhup) true;
      ignore (flush_conn t conn)
  | Some _ -> close_conn t conn

(* One ready connection's share of a poll round. *)
let serve_ready t conn ~mark =
  let r = Evpoll.Set.revents t.set conn.slot in
  if Evpoll.has r Evpoll.ev_nval then close_conn t conn
  else if conn.connecting then connected t conn
  else begin
    if
      conn.parked
      && Evpoll.has r (Evpoll.ev_rdhup lor Evpoll.ev_err lor Evpoll.ev_hup)
    then begin
      (* The peer left while a command waited.  A reset socket cannot
         take the reply: close now.  After a FIN the parked command
         may still answer a half-closed peer; stop polling for the
         level-triggered RDHUP, and the batch's rest is cut off by the
         executor's departed-peer probe. *)
      if Evpoll.has r (Evpoll.ev_err lor Evpoll.ev_hup) then close_conn t conn
      else set_interest t conn Evpoll.ev_rdhup false
    end;
    if (not conn.dead) && Evpoll.has r Evpoll.ev_in then begin
      t.waiting <- t.waiting - 1;
      if out_pending conn < out_hwm then read_conn t conn ~mark
    end;
    (* A hangup on a reading connection also reports POLLIN, so the read
       above sees the EOF or the reset; a pending flush sees the EPIPE. *)
    if
      (not conn.dead)
      && (Evpoll.has r Evpoll.ev_out || out_pending conn > 0)
    then ignore (flush_conn t conn);
    try_finish t conn
  end

(* Collect the round's ready connections and count the readable ones
   (the admission signal). *)
let collect_ready t =
  let n = ref 0 in
  t.waiting <- 0;
  for i = 2 to Evpoll.Set.length t.set - 1 do
    let r = Evpoll.Set.revents t.set i in
    if r <> 0 then begin
      if !n = Array.length t.ready then
        t.ready <- Array.append t.ready (Array.make !n None);
      t.ready.(!n) <- t.conns.(i);
      incr n;
      if Evpoll.has r Evpoll.ev_in then t.waiting <- t.waiting + 1
    end
  done;
  !n

let iterate t ~timeout_ms =
  ignore (Evpoll.Set.poll t.set ~timeout_ms);
  let mark = Verlib.Hwclock.now () in
  if Evpoll.has (Evpoll.Set.revents t.set wake_slot) Evpoll.ev_in then begin
    (* Empty the pipe before taking the inbox: a handoff that lands in
       between leaves its byte for the next poll, never a stranded
       connection. *)
    drain_wake t;
    adopt_inbox t
  end;
  if Evpoll.has (Evpoll.Set.revents t.set listen_slot) Evpoll.ev_in then
    accept_pass t accept_burst;
  (* Serve the ready connections in an order that rotates every round:
     the first served sees the most others waiting, so a fixed order
     would shed the same connection round after round.  A connection
     closed earlier in the round is skipped; one moved by a
     swap-remove carries its slot and revents along. *)
  let n = collect_ready t in
  if n > 0 then begin
    let start = t.rotor mod n in
    t.rotor <- start + 1;
    for k = 0 to n - 1 do
      let i = (start + k) mod n in
      (match t.ready.(i) with
       | Some conn when not conn.dead -> serve_ready t conn ~mark
       | _ -> ());
      t.ready.(i) <- None
    done
  end;
  t.waiting <- 0;
  let now = Unix.gettimeofday () in
  (* Downward scan: a swap-remove pulls an already-visited entry into
     the hole, so removal during iteration never skips a live conn. *)
  t.rechecks <- 0;
  for i = Evpoll.Set.length t.set - 1 downto 2 do
    Option.iter (sweep t now) t.conns.(i)
  done;
  t.tick_cap <- t.handlers.h_tick t ~now

let timeout_ms t ~idle =
  if t.rechecks > 0 then 1 else max 0 (min idle t.tick_cap)

(* Graceful drain: stop accepting and refuse handoffs; let every parked
   command finish (it answers promptly once [stop_flag] is set); close
   streams and idle connections once they have flushed what they owe.
   Connections stuck on an unreadable peer are force-closed at the
   drain deadline. *)
let drain t =
  let deadline = Unix.gettimeofday () +. t.drain_timeout in
  Evpoll.Set.set_interest t.set listen_slot 0;
  Mutex.lock t.im;
  t.inbox_open <- false;
  Mutex.unlock t.im;
  adopt_inbox t;
  let each f =
    for i = Evpoll.Set.length t.set - 1 downto 2 do
      Option.iter f t.conns.(i)
    done
  in
  let finish_idle conn =
    if not (conn.parked || conn.closing) then apply t conn `Close;
    try_finish t conn
  in
  each finish_idle;
  while Evpoll.Set.length t.set > 2 && Unix.gettimeofday () < deadline do
    iterate t ~timeout_ms:(timeout_ms t ~idle:20);
    each finish_idle
  done;
  each (close_conn t);
  (try Unix.close t.wake_rd with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_wr with Unix.Unix_error _ -> ())

let run t =
  while not (Atomic.get t.stop_flag) do
    iterate t ~timeout_ms:(timeout_ms t ~idle:200)
  done;
  drain t
