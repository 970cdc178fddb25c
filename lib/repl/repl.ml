(* Primary-side change feed + replica-side apply engine.  See repl.mli
   and docs/REPLICATION.md for the model; implementation notes:

   - The log assigns its own dense [seq] under the log mutex.  The tap
     runs while the commit's stripe latches are still held (Txn's
     observer contract), so records touching a common key are appended
     in versionstamp order; records for disjoint key sets may be
     appended out of stamp order but commute — applying in seq order
     converges to the primary's state.  Aborted commits draw stamps
     too, so stamps are NOT dense: gap detection and dedup run on seq,
     never on stamp.
   - Appends never block the commit path on a slow consumer: the ring
     overwrites its oldest record and a laggard whose cursor fell below
     the trim point is told to resync (full snapshot), which is the
     bounded-feed contract the multiversion-GC papers motivate.
   - Readers never block: the server's event loops poll [read_after]
     every iteration (1 ms while a stream or WATCH is live), which
     bounds push latency. *)

type record = {
  r_seq : int;
  r_stamp : int;
  r_writes : (int * int option) list;
}

(* Wire-size estimate: seq + stamp + one (key, value-or-nil) frame per
   write, ~12 bytes per integer token.  Only relative magnitudes matter
   — the lag-bytes gauge tracks backlog, not exact socket bytes. *)
let record_bytes r = 24 + (24 * List.length r.r_writes)

let touches lo hi r = List.exists (fun (k, _) -> k >= lo && k <= hi) r.r_writes

(* ------------------------------------------------------------------ *)
(* Process-wide counters, exported as [repl_*] gauges below.           *)

let records_ctr = Atomic.make 0

let resyncs_ctr = Atomic.make 0

let applied_ctr = Atomic.make 0

let dup_dropped_ctr = Atomic.make 0

let watermark_g = Atomic.make 0

let records_total () = Atomic.get records_ctr

let resyncs_total () = Atomic.get resyncs_ctr

let applied_total () = Atomic.get applied_ctr

let dup_dropped_total () = Atomic.get dup_dropped_ctr

let watermark_now () = Atomic.get watermark_g

(* ------------------------------------------------------------------ *)

let fp_send = Fault.Point.make "repl.send"

let fp_apply = Fault.Point.make "repl.apply"

let fp_ack = Fault.Point.make "repl.ack"

(* ------------------------------------------------------------------ *)

module Log = struct
  type sub = {
    mutable s_seq : int;
    mutable s_stamp : int;
    mutable s_bytes : int;  (** cumulative bytes at the acked seq *)
    mutable s_orphan : bool;
        (** stream severed abnormally (partition, dead peer): the cursor
            keeps aging — and driving the lag gauges — until a new
            subscriber adopts it or it is explicitly dropped *)
  }

  type t = {
    mu : Mutex.t;
    capacity : int;
    ring : record option array;  (** slot [seq mod capacity] *)
    cum : int array;  (** cumulative bytes at that slot's record *)
    mutable tail : int;  (** last assigned seq; 0 = empty *)
    mutable tail_stamp : int;
    mutable total_bytes : int;  (** cumulative bytes ever appended *)
    mutable trim_bytes : int;  (** cumulative bytes at the trim point *)
    subs : (int, sub) Hashtbl.t;
    mutable next_sub : int;
  }

  let logs : t list ref = ref []

  let logs_mu = Mutex.create ()

  let create ?(capacity = 65536) () =
    let t =
      {
        mu = Mutex.create ();
        capacity = max 16 capacity;
        ring = Array.make (max 16 capacity) None;
        cum = Array.make (max 16 capacity) 0;
        tail = 0;
        tail_stamp = 0;
        total_bytes = 0;
        trim_bytes = 0;
        subs = Hashtbl.create 8;
        next_sub = 1;
      }
    in
    Mutex.lock logs_mu;
    logs := t :: !logs;
    Mutex.unlock logs_mu;
    t

  (* Oldest seq still retained is [trim t + 1]. *)
  let trim t = max 0 (t.tail - t.capacity)

  let append t ~stamp writes =
    if writes <> [] then begin
      Mutex.lock t.mu;
      let seq = t.tail + 1 in
      let r = { r_seq = seq; r_stamp = stamp; r_writes = writes } in
      let slot = seq mod t.capacity in
      (match t.ring.(slot) with
       | Some old when old.r_seq = seq - t.capacity ->
           (* overwriting the oldest record: advance the trim point *)
           t.trim_bytes <- t.cum.(slot)
       | _ -> ());
      t.total_bytes <- t.total_bytes + record_bytes r;
      t.ring.(slot) <- Some r;
      t.cum.(slot) <- t.total_bytes;
      t.tail <- seq;
      t.tail_stamp <- max t.tail_stamp stamp;
      Mutex.unlock t.mu;
      Atomic.incr records_ctr
    end

  (* Install this log as [store]'s commit observer. *)
  let tap t store =
    Txn.set_commit_observer store (fun stamp writes -> append t ~stamp writes)

  let tail_seq t =
    Mutex.lock t.mu;
    let v = t.tail in
    Mutex.unlock t.mu;
    v

  let tail_stamp t =
    Mutex.lock t.mu;
    let v = t.tail_stamp in
    Mutex.unlock t.mu;
    v

  (* Records with [r_seq > seq], oldest first; [`Resync] when the ring
     has already overwritten part of that suffix. *)
  let read_after t ~seq =
    Mutex.lock t.mu;
    let r =
      if seq < trim t then begin
        Atomic.incr resyncs_ctr;
        `Resync
      end
      else begin
        let acc = ref [] in
        for s = t.tail downto seq + 1 do
          match t.ring.(s mod t.capacity) with
          | Some r when r.r_seq = s -> acc := r :: !acc
          | _ -> ()
        done;
        `Records !acc
      end
    in
    Mutex.unlock t.mu;
    r

  (* Subscriber cursors: what the lag gauges measure against.  A fresh
     cursor adopts the stalest orphan if one exists — that is how a
     replica reconnecting after a partition resumes the same lag
     lineage instead of resetting the gauges — and otherwise starts at
     the current tail (zero lag until real backlog accrues). *)
  let subscribe t =
    Mutex.lock t.mu;
    let adopted =
      Hashtbl.fold
        (fun id s acc ->
          if s.s_orphan then
            match acc with
            | Some (_, s') when s'.s_seq <= s.s_seq -> acc
            | _ -> Some (id, s)
          else acc)
        t.subs None
    in
    let id =
      match adopted with
      | Some (id, s) ->
          s.s_orphan <- false;
          id
      | None ->
          let id = t.next_sub in
          t.next_sub <- id + 1;
          Hashtbl.replace t.subs id
            {
              s_seq = t.tail;
              s_stamp = t.tail_stamp;
              s_bytes = t.total_bytes;
              s_orphan = false;
            };
          id
    in
    Mutex.unlock t.mu;
    id

  let unsubscribe t id =
    Mutex.lock t.mu;
    Hashtbl.remove t.subs id;
    Mutex.unlock t.mu

  let orphan t id =
    Mutex.lock t.mu;
    (match Hashtbl.find_opt t.subs id with
     | Some s -> s.s_orphan <- true
     | None -> ());
    Mutex.unlock t.mu

  let ack t ~id ~seq ~stamp =
    Mutex.lock t.mu;
    (match Hashtbl.find_opt t.subs id with
     | Some s ->
         if seq > s.s_seq then begin
           s.s_seq <- seq;
           s.s_stamp <- max s.s_stamp stamp;
           s.s_bytes <-
             (if seq > trim t && seq <= t.tail then
                match t.ring.(seq mod t.capacity) with
                | Some r when r.r_seq = seq -> t.cum.(seq mod t.capacity)
                | _ -> t.trim_bytes
              else if seq >= t.tail then t.total_bytes
              else t.trim_bytes)
         end
     | None -> ());
    Mutex.unlock t.mu

  (* Worst lag across this log's subscribers; (0, 0) with none. *)
  let lag_locked t =
    Hashtbl.fold
      (fun _ s (ls, lb) ->
        ( max ls (max 0 (t.tail_stamp - s.s_stamp)),
          max lb (max 0 (t.total_bytes - s.s_bytes)) ))
      t.subs (0, 0)

  let lag t =
    Mutex.lock t.mu;
    let r = lag_locked t in
    Mutex.unlock t.mu;
    r

  let subscriber_count t =
    Mutex.lock t.mu;
    let n = Hashtbl.length t.subs in
    Mutex.unlock t.mu;
    n
end

let lag_stamps () =
  Mutex.lock Log.logs_mu;
  let logs = !Log.logs in
  Mutex.unlock Log.logs_mu;
  List.fold_left (fun acc l -> max acc (fst (Log.lag l))) 0 logs

let lag_bytes () =
  Mutex.lock Log.logs_mu;
  let logs = !Log.logs in
  Mutex.unlock Log.logs_mu;
  List.fold_left (fun acc l -> max acc (snd (Log.lag l))) 0 logs

let () =
  List.iter
    (fun (n, f) -> ignore (Flock.Telemetry.Gauge.make n f))
    [
      ("repl_records_total", records_total);
      ("repl_lag_stamps", lag_stamps);
      ("repl_lag_bytes", lag_bytes);
      ("repl_resyncs", resyncs_total);
      ("repl_applied_total", applied_total);
      ("repl_dup_dropped", dup_dropped_total);
      ("repl_watermark", watermark_now);
    ]

(* ------------------------------------------------------------------ *)
(* Replica apply engine.                                               *)

module Apply = struct
  (* How many out-of-order records we resequence before declaring the
     stream unrecoverable (caller resyncs). *)
  let max_pending = 128

  type t = {
    store : Txn.Store.t;
    mutable last_seq : int;
    mutable watermark : int;  (** max primary stamp applied *)
    mutable last_stamp : int;  (** stamp of the last applied record *)
    pending : (int, record) Hashtbl.t;  (** reorder buffer, seq -> rec *)
    mu : Mutex.t;
  }

  let create store =
    {
      store;
      last_seq = 0;
      watermark = 0;
      last_stamp = 0;
      pending = Hashtbl.create 16;
      mu = Mutex.create ();
    }

  let reset t ~seq ~stamp =
    Mutex.lock t.mu;
    t.last_seq <- seq;
    t.watermark <- max t.watermark stamp;
    t.last_stamp <- stamp;
    Hashtbl.reset t.pending;
    if stamp > Atomic.get watermark_g then Atomic.set watermark_g stamp;
    Mutex.unlock t.mu

  let ops_of_writes writes =
    List.concat_map
      (function
        | k, Some v -> [ Txn.Del k; Txn.Put (k, v) ]
        | k, None -> [ Txn.Del k ])
      writes

  (* Install one record as a single transaction, so serialized readers
     on the replica never observe a half-applied batch.  Replica-local
     contention is read-only, so commits land in a few attempts; the
     loop is a liveness backstop, not a hot path. *)
  let rec install t r =
    Fault.hit fp_apply;
    match Txn.exec ~max_attempts:64 t.store (ops_of_writes r.r_writes) with
    | Txn.Committed _ ->
        t.last_seq <- r.r_seq;
        t.watermark <- max t.watermark r.r_stamp;
        t.last_stamp <- r.r_stamp;
        Atomic.incr applied_ctr;
        if t.watermark > Atomic.get watermark_g then
          Atomic.set watermark_g t.watermark
    | Txn.Aborted _ -> install t r

  (* Offer one received record: dedup on seq, resequence gaps, apply
     every in-order record (including buffered successors a gap fill
     releases). *)
  let offer t r =
    Mutex.lock t.mu;
    let out =
      if r.r_seq <= t.last_seq then begin
        Atomic.incr dup_dropped_ctr;
        `Dup
      end
      else if r.r_seq > t.last_seq + 1 then
        if Hashtbl.length t.pending >= max_pending then `Overflow
        else begin
          Hashtbl.replace t.pending r.r_seq r;
          `Buffered
        end
      else begin
        install t r;
        let n = ref 1 in
        let rec drain () =
          match Hashtbl.find_opt t.pending (t.last_seq + 1) with
          | Some nxt ->
              Hashtbl.remove t.pending nxt.r_seq;
              install t nxt;
              incr n;
              drain ()
          | None -> ()
        in
        drain ();
        `Applied !n
      end
    in
    Mutex.unlock t.mu;
    out

  let last_seq t =
    Mutex.lock t.mu;
    let v = t.last_seq in
    Mutex.unlock t.mu;
    v

  let watermark t =
    Mutex.lock t.mu;
    let v = t.watermark in
    Mutex.unlock t.mu;
    v

  let last_stamp t =
    Mutex.lock t.mu;
    let v = t.last_stamp in
    Mutex.unlock t.mu;
    v

  let pending_count t =
    Mutex.lock t.mu;
    let v = Hashtbl.length t.pending in
    Mutex.unlock t.mu;
    v
end
