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
   - Records are stored flat, as ints in fixed-size chunks ([Flat]),
     never as one heap block per record: a lapped ring appends with no
     allocation, and the GC has nothing per record to trace.
   - Readers never block: the server's event loops copy what the ring
     gained past a cursor ([copy_after], under the mutex) and render
     the copy after releasing it, every iteration (1 ms while a stream
     or WATCH is live), which bounds push latency. *)

type record = {
  r_seq : int;
  r_stamp : int;
  r_writes : (int * int option) list;
}

(* Wire-size estimate: seq + stamp + one (key, value-or-nil) frame per
   write, ~12 bytes per integer token.  Only relative magnitudes matter
   — the lag-bytes gauge tracks backlog, not exact socket bytes. *)
let bytes_of_writes m = 24 + (24 * m)

let record_bytes r = bytes_of_writes (List.length r.r_writes)

let touches lo hi r = List.exists (fun (k, _) -> k >= lo && k <= hi) r.r_writes

(* A record laid out in consecutive ints from offset [o]: seq, stamp,
   the log's cumulative bytes at it, the write count [m], then [m]
   triples (key, value, present). *)
module Flat = struct
  let header = 4

  let per_write = 3

  let seq w o = w.(o)

  let stamp w o = w.(o + 1)

  let cum w o = w.(o + 2)

  let writes w o = w.(o + 3)

  let size w o = header + (per_write * w.(o + 3))

  let key w o i = w.(o + header + (per_write * i))

  let value w o i = w.(o + header + (per_write * i) + 1)

  let present w o i = w.(o + header + (per_write * i) + 2) <> 0

  let rec touches_from lo hi w o i =
    i < writes w o
    && ((let k = key w o i in
         k >= lo && k <= hi)
       || touches_from lo hi w o (i + 1))

  let touches lo hi w o = touches_from lo hi w o 0

  let to_record w o =
    {
      r_seq = seq w o;
      r_stamp = stamp w o;
      r_writes =
        List.init (writes w o) (fun i ->
            (key w o i, if present w o i then Some (value w o i) else None));
    }
end

(* A reader's copy of consecutive flat records, reused across reads. *)
module Batch = struct
  type t = { mutable words : int array; mutable len : int }

  (* Words one [copy_after] fills at most, unless a single record is
     larger. *)
  let budget = 1 lsl 14

  let create () = { words = [||]; len = 0 }

  let words b = b.words

  let length b = b.len

  let reserve b n =
    if b.len + n > Array.length b.words then begin
      let a = Array.make (max (b.len + n) (max budget (2 * Array.length b.words))) 0 in
      Array.blit b.words 0 a 0 b.len;
      b.words <- a
    end
end

(* ------------------------------------------------------------------ *)
(* Process-wide counters, exported as [repl_*] gauges below.           *)

let records_ctr = Atomic.make 0

let resyncs_ctr = Atomic.make 0

let acks_ctr = Atomic.make 0

let applied_ctr = Atomic.make 0

let dup_dropped_ctr = Atomic.make 0

let watermark_g = Atomic.make 0

let records_total () = Atomic.get records_ctr

let resyncs_total () = Atomic.get resyncs_ctr

let acks_total () = Atomic.get acks_ctr

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

  (* Records live in chunks of [chunk_words] ints (a larger record gets
     a chunk of its own size), filled in seq order.  A chunk is recycled
     once the trim point passes the last record in it, so a ring that
     has lapped appends into recycled chunks and allocates nothing. *)
  let chunk_words = 1 lsl 14

  (* [at] packs a chunk id and an offset into one int. *)
  let pos_bits = 32

  let pos_mask = (1 lsl pos_bits) - 1

  type t = {
    mu : Mutex.t;
    capacity : int;
    at : int array;
        (** slot [seq mod capacity]: where record [seq] starts, as
            [chunk lsl pos_bits lor offset] *)
    mutable chunks : int array array;  (** by chunk id *)
    mutable n_chunks : int;  (** ids handed out *)
    mutable last : int array;  (** by chunk id: the last seq written in it *)
    mutable live : int array;  (** ring of the chunk ids in use, oldest first *)
    mutable live_head : int;
    mutable live_n : int;
    mutable spare : int array;  (** stack of recycled chunk ids *)
    mutable spare_n : int;
    mutable fill : int;  (** next free word of the newest live chunk *)
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
    let capacity = max 16 capacity in
    let t =
      {
        mu = Mutex.create ();
        capacity;
        at = Array.make capacity 0;
        chunks = [||];
        n_chunks = 0;
        last = [||];
        live = Array.make 8 0;
        live_head = 0;
        live_n = 0;
        spare = [||];
        spare_n = 0;
        fill = 0;
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

  let unregister t =
    Mutex.lock logs_mu;
    logs := List.filter (fun l -> l != t) !logs;
    Mutex.unlock logs_mu

  (* Oldest seq still retained is [trim t + 1]. *)
  let trim t = max 0 (t.tail - t.capacity)

  let grow a n =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    b

  let newest t = t.live.((t.live_head + t.live_n - 1) mod Array.length t.live)

  (* A chunk with room for [n] words, made the newest live one. *)
  let open_chunk t n =
    let id =
      if t.spare_n > 0 then begin
        t.spare_n <- t.spare_n - 1;
        let id = t.spare.(t.spare_n) in
        if Array.length t.chunks.(id) < n then t.chunks.(id) <- Array.make n 0;
        id
      end
      else begin
        let id = t.n_chunks in
        if id = Array.length t.chunks then begin
          let cap = max 8 (2 * id) in
          let c = Array.make cap [||] in
          Array.blit t.chunks 0 c 0 id;
          t.chunks <- c;
          t.last <- grow t.last cap;
          t.spare <- grow t.spare cap
        end;
        t.n_chunks <- id + 1;
        t.chunks.(id) <- Array.make (max chunk_words n) 0;
        id
      end
    in
    let len = Array.length t.live in
    if t.live_n = len then begin
      let l = Array.make (2 * len) 0 in
      for i = 0 to len - 1 do
        l.(i) <- t.live.((t.live_head + i) mod len)
      done;
      t.live <- l;
      t.live_head <- 0
    end;
    t.live.((t.live_head + t.live_n) mod Array.length t.live) <- id;
    t.live_n <- t.live_n + 1;
    t.fill <- 0;
    id

  (* Recycle the oldest chunks whose records are all at or below the
     trim point; the newest chunk stays. *)
  let rec release t ~trim =
    if t.live_n > 1 then begin
      let id = t.live.(t.live_head) in
      if t.last.(id) <= trim then begin
        t.live_head <- (t.live_head + 1) mod Array.length t.live;
        t.live_n <- t.live_n - 1;
        t.spare.(t.spare_n) <- id;
        t.spare_n <- t.spare_n + 1;
        release t ~trim
      end
    end

  let chunk_of t p = t.chunks.(p lsr pos_bits)

  let rec put_writes w j = function
    | [] -> ()
    | (k, v) :: rest ->
        w.(j) <- k;
        (match v with
         | Some v ->
             w.(j + 1) <- v;
             w.(j + 2) <- 1
         | None ->
             w.(j + 1) <- 0;
             w.(j + 2) <- 0);
        put_writes w (j + Flat.per_write) rest

  let append t ~stamp writes =
    if writes <> [] then begin
      let m = List.length writes in
      let n = Flat.header + (Flat.per_write * m) in
      Mutex.lock t.mu;
      let seq = t.tail + 1 in
      let slot = seq mod t.capacity in
      if seq > t.capacity then begin
        (* record [seq - capacity] leaves the ring: advance the trim
           point, and recycle the chunks it emptied *)
        let p = t.at.(slot) in
        t.trim_bytes <- Flat.cum (chunk_of t p) (p land pos_mask);
        release t ~trim:(seq - t.capacity)
      end;
      let id =
        if t.live_n > 0 && t.fill + n <= Array.length t.chunks.(newest t) then
          newest t
        else open_chunk t n
      in
      let w = t.chunks.(id) and o = t.fill in
      t.total_bytes <- t.total_bytes + bytes_of_writes m;
      w.(o) <- seq;
      w.(o + 1) <- stamp;
      w.(o + 2) <- t.total_bytes;
      w.(o + 3) <- m;
      put_writes w (o + Flat.header) writes;
      t.fill <- o + n;
      t.last.(id) <- seq;
      t.at.(slot) <- (id lsl pos_bits) lor o;
      t.tail <- seq;
      if stamp > t.tail_stamp then t.tail_stamp <- stamp;
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

  (* Copy retained records from seq [s] on into [b] until the tail or
     the batch budget (the first record always fits). *)
  let rec copy_from t (b : Batch.t) s =
    if s <= t.tail then begin
      let p = t.at.(s mod t.capacity) in
      let w = chunk_of t p and o = p land pos_mask in
      let n = Flat.size w o in
      if b.len = 0 || b.len + n <= Batch.budget then begin
        Batch.reserve b n;
        Array.blit w o b.words b.len n;
        b.len <- b.len + n;
        copy_from t b (s + 1)
      end
    end

  let copy_after t ~seq (b : Batch.t) =
    b.len <- 0;
    Mutex.lock t.mu;
    let r =
      if seq < trim t then begin
        Atomic.incr resyncs_ctr;
        `Resync
      end
      else begin
        copy_from t b (seq + 1);
        `Copied
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
    Atomic.incr acks_ctr;
    Mutex.lock t.mu;
    (match Hashtbl.find_opt t.subs id with
     | Some s ->
         if seq > s.s_seq then begin
           s.s_seq <- seq;
           s.s_stamp <- max s.s_stamp stamp;
           s.s_bytes <-
             (if seq > trim t && seq <= t.tail then
                let p = t.at.(seq mod t.capacity) in
                Flat.cum (chunk_of t p) (p land pos_mask)
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
      ("repl_acks_total", acks_total);
      ("repl_applied_total", applied_total);
      ("repl_dup_dropped", dup_dropped_total);
      ("repl_watermark", watermark_now);
    ]

(* ------------------------------------------------------------------ *)
(* Replica apply engine.                                               *)

module Apply = struct
  (* Loop 0 is the only writer (the follow connection's reader); the
     atomics let REPLSTATS on other loops read without a lock. *)
  type t = {
    store : Txn.Store.t;
    last_seq : int Atomic.t;
    watermark : int Atomic.t;  (** max primary stamp applied *)
    last_stamp : int Atomic.t;  (** stamp of the last applied record *)
  }

  let create store =
    {
      store;
      last_seq = Atomic.make 0;
      watermark = Atomic.make 0;
      last_stamp = Atomic.make 0;
    }

  let advance t ~seq ~stamp =
    Atomic.set t.last_seq seq;
    Atomic.set t.watermark (max (Atomic.get t.watermark) stamp);
    Atomic.set t.last_stamp stamp;
    if stamp > Atomic.get watermark_g then Atomic.set watermark_g stamp

  let reset t ~seq ~stamp = advance t ~seq ~stamp

  (* Offer one received record.  The feed is gapless and in seq order,
     so only the next seq installs: one commit with no read phase, so
     serialized readers on the replica never observe a half-applied
     batch (a record is committed state: nothing to read or validate).
     A seq at or below the cursor is a redelivery; one past the next
     seq means the feed lost records, and the caller resyncs.  A
     [repl.apply] fault escapes with the record unapplied; the redial
     delivers it again. *)
  let offer t r =
    let last = Atomic.get t.last_seq in
    if r.r_seq <= last then begin
      Atomic.incr dup_dropped_ctr;
      `Dup
    end
    else if r.r_seq > last + 1 then `Gap
    else begin
      Fault.hit fp_apply;
      Txn.apply t.store r.r_writes;
      advance t ~seq:r.r_seq ~stamp:r.r_stamp;
      Atomic.incr applied_ctr;
      `Applied
    end

  let last_seq t = Atomic.get t.last_seq

  let watermark t = Atomic.get t.watermark

  let last_stamp t = Atomic.get t.last_stamp
end
