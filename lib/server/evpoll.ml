(* Readiness notification over poll(2).

   Every [Unix.select] call site in the tree died here: select's fd_set
   is a fixed FD_SETSIZE-bit bitmap (1024 on glibc), so the moment a
   server holds a thousand connections, any new fd — the listener
   included — lands past the bitmap and select silently misbehaves or
   raises.  poll names its fds explicitly and has no such ceiling.

   Two layers:

   - [Set]: a reusable poll set over parallel int arrays, for the event
     loop proper.  Arrays grow geometrically; the C stub copies the
     live prefix out before releasing the runtime lock (the GC may move
     the arrays while poll sleeps) and writes revents back after.

   - [readable] / [departed]: one-shot single-fd waits, for the
     dashboard's keypress wait and to probe a peer mid-batch. *)

external poll_stub :
  int array -> int array -> int array -> int -> int -> int
  = "caml_verlib_poll"

(* Portable readiness bits — mirrored in evpoll_stubs.c.  [ev_rdhup]
   (POLLRDHUP) is Linux-only: requesting it elsewhere is a no-op and it
   is never reported, so callers must treat it as an optimisation — an
   early "the peer sent FIN" signal — never the sole close trigger. *)
let ev_in = 1
let ev_out = 2
let ev_err = 4
let ev_hup = 8
let ev_nval = 16
let ev_rdhup = 32

let has mask bit = mask land bit <> 0

(* On Unix, [Unix.file_descr] is the int fd itself; poll wants the raw
   number.  Isolated here so the cast appears exactly once. *)
let int_of_fd : Unix.file_descr -> int = Obj.magic

module Set = struct
  type t = {
    mutable fds : int array;
    mutable interest : int array;
    mutable revents : int array;
    mutable n : int;
  }

  let create ?(capacity = 64) () =
    let capacity = max 1 capacity in
    {
      fds = Array.make capacity (-1);
      interest = Array.make capacity 0;
      revents = Array.make capacity 0;
      n = 0;
    }

  let length t = t.n

  let grow t =
    let cap = Array.length t.fds * 2 in
    let widen a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 t.n;
      a'
    in
    t.fds <- widen t.fds (-1);
    t.interest <- widen t.interest 0;
    t.revents <- widen t.revents 0

  (* Registers [fd] and returns its slot index.  The caller owns slot
     bookkeeping (the event loop stores the slot in the connection and
     re-points it on swap-remove). *)
  let add t fd ~interest =
    if t.n = Array.length t.fds then grow t;
    let slot = t.n in
    t.fds.(slot) <- int_of_fd fd;
    t.interest.(slot) <- interest;
    t.revents.(slot) <- 0;
    t.n <- slot + 1;
    slot

  let set_interest t slot interest = t.interest.(slot) <- interest
  let interest t slot = t.interest.(slot)

  (* Swap-remove: the last live slot moves into [slot]; returns the old
     index of the moved entry ([None] when [slot] was last). *)
  let remove t slot =
    let last = t.n - 1 in
    t.n <- last;
    if slot = last then begin
      t.fds.(last) <- -1;
      None
    end
    else begin
      t.fds.(slot) <- t.fds.(last);
      t.interest.(slot) <- t.interest.(last);
      t.revents.(slot) <- t.revents.(last);
      t.fds.(last) <- -1;
      Some last
    end

  (* Waits up to [timeout_ms] (-1 = forever); readiness masks land in
     [revents] for the caller to scan.  Returns the ready count. *)
  let poll t ~timeout_ms =
    Array.fill t.revents 0 t.n 0;
    poll_stub t.fds t.interest t.revents t.n timeout_ms

  let revents t slot = t.revents.(slot)
end

(* One-shot single-fd waits.  [timeout] in seconds; [None] blocks. *)
let wait_fd fd ~interest ~timeout =
  let timeout_ms =
    match timeout with
    | None -> -1
    | Some s when s <= 0. -> 0
    | Some s -> int_of_float (ceil (s *. 1000.))
  in
  let fds = [| int_of_fd fd |] in
  let revents = [| 0 |] in
  let rc = poll_stub fds [| interest |] revents 1 timeout_ms in
  if rc = 0 then 0 else revents.(0)

let readable ?timeout fd =
  let r = wait_fd fd ~interest:ev_in ~timeout in
  has r (ev_in lor ev_err lor ev_hup lor ev_nval)

(* Zero-timeout probe: has the peer sent FIN, reset, or otherwise gone?
   Without POLLRDHUP (non-Linux) only an error or hangup shows. *)
let departed fd =
  has
    (wait_fd fd ~interest:ev_rdhup ~timeout:(Some 0.))
    (ev_rdhup lor ev_err lor ev_hup lor ev_nval)
