(* Multi-key OCC transactions with versionstamped commits.  See
   txn.mli and docs/TRANSACTIONS.md for the model; the short version:

   - each key hashes to one of N power-of-two stripes, each a single
     [int Atomic.t] encoding [version lsl 1 lor busy];
   - reads bracket the structure access between two even reads of the
     stripe word (TL2) and record (stripe, version); range reads record
     (lo, hi, fingerprint-of-result);
   - commit CASes the written stripes even->odd in ascending order,
     re-checks every recorded version, installs the write buffer, and
     releases each stripe to [versionstamp lsl 1] where the
     versionstamp is one fresh draw of a shared commit clock.

   Correctness of the versionstamp as a serialization order: writers
   with disjoint stripe sets have disjoint key sets, so installs
   commute; writers with intersecting stripes are ordered by the stripe
   latches, and the later one either validated against the earlier
   release (reads it) or conflicts.  Read-only transactions take their
   versionstamp from the clock AFTER the read phase and BEFORE the
   validation probes: any writer with vs <= vs_ro drew its stamp before
   the probes, so it either finished installing (probes see its
   release, reads reflected it or validation fails) or still holds a
   probed stripe (odd word -> conflict); any writer with vs > vs_ro
   drew its stamp after every read completed and cannot have been
   observed.  Hence replaying commits in versionstamp order (writers
   before readers on ties) reproduces every recorded step — the
   property test/test_txn.ml's offline checker exercises.

   The in-flight-committer counters [starts]/[dones] guard range
   re-fingerprinting: a writer requires [starts = dones + 1] (itself
   alone) and a reader [starts = dones] around the re-scan, so a
   fingerprint is never computed against a half-installed buffer. *)

exception Conflict

type op =
  | Get of int
  | Put of int * int
  | Del of int
  | Mget of int array
  | Range of int * int
  | Rangecount of int * int

type step =
  | S_ok
  | S_exists
  | S_nil
  | S_int of int
  | S_vals of int option list
  | S_pairs of (int * int) list

type outcome =
  | Committed of { vs : int; steps : step list; attempts : int }
  | Aborted of { attempts : int }

(* ------------------------------------------------------------------ *)
(* Counters (process-wide; exported as gauges below).                  *)

let commits_ctr = Atomic.make 0

let aborts_ctr = Atomic.make 0

let retries_ctr = Atomic.make 0

let replays_ctr = Atomic.make 0

let idem_evictions_ctr = Atomic.make 0

let commits () = Atomic.get commits_ctr

let aborts () = Atomic.get aborts_ctr

let validation_retries () = Atomic.get retries_ctr

let replays () = Atomic.get replays_ctr

let idem_evictions () = Atomic.get idem_evictions_ctr

let () =
  List.iter
    (fun (n, f) -> ignore (Flock.Telemetry.Gauge.make n f))
    [
      ("txn_commits", commits);
      ("txn_aborts", aborts);
      ("txn_validation_retries", validation_retries);
      ("txn_replays", replays);
      ("txn_idem_evictions", idem_evictions);
    ]

(* ------------------------------------------------------------------ *)
(* Fault points (docs/RESILIENCE.md catalogue).                        *)

let fp_validate = Fault.Point.make "txn.validate"

let fp_commit = Fault.Point.make "txn.commit"

(* ------------------------------------------------------------------ *)
(* Hashing: a splitmix-style finalizer (constants truncated to fit
   OCaml's 63-bit ints) for key->stripe and for range fingerprints.
   NOT Hashtbl.hash: fingerprints must mix the full value range.       *)

let mix k =
  let h = k lxor (k lsr 33) in
  let h = h * 0xFF51AFD7ED558CC in
  let h = h lxor (h lsr 29) in
  let h = h * 0xC4CEB9FE1A85EC5 in
  let h = h lxor (h lsr 32) in
  h land max_int

let fp_pairs pairs =
  List.fold_left (fun acc (k, v) -> mix (acc lxor mix ((k * 31) + v))) 0x5bd1e995 pairs

let max_spin = 200

let idem_capacity = 4096

(* Stripes per store: a power of two, so a key's stripe is its hash
   masked. *)
let stripe_count = 512

let[@inline] stripe_of k = mix k land (stripe_count - 1)

(* ------------------------------------------------------------------ *)

module Store = struct
  type cached = Pending | Done of int * step list

  type t =
    | Store : {
        m : (module Dstruct.Map_intf.MAP with type t = 'h);
        h : 'h;
        stripes : int Atomic.t array;
        clock : int Atomic.t;
        starts : int Atomic.t;  (** writer commits entered install window *)
        dones : int Atomic.t;  (** writer commits left it (either way) *)
        mu : Mutex.t;
        cv : Condition.t;
        cache : (int, cached) Hashtbl.t;  (** token -> result *)
        fifo : int Queue.t;  (** Done tokens, eviction order *)
        feed : (int -> (int * int option) list -> unit) option Atomic.t;
            (** commit observer (the replication tap): called with
                [(vs, writes)] while the written stripes are still
                latched, so for any one key observer calls arrive in
                versionstamp order *)
      }
        -> t

  let create m h =
    Store
      {
        m;
        h;
        stripes = Array.init stripe_count (fun _ -> Atomic.make 0);
        clock = Atomic.make 0;
        starts = Atomic.make 0;
        dones = Atomic.make 0;
        mu = Mutex.create ();
        cv = Condition.create ();
        cache = Hashtbl.create 64;
        fifo = Queue.create ();
        feed = Atomic.make None;
      }

  let quiescent (Store st) =
    Array.for_all (fun a -> Atomic.get a land 1 = 0) st.stripes
    && Atomic.get st.starts = Atomic.get st.dones
end

let set_commit_observer (Store.Store st) f = Atomic.set st.feed (Some f)

let clear_commit_observer (Store.Store st) = Atomic.set st.feed None

(* Emit one committed write set to the observer.  Called with the
   written stripes still latched (commit path) or the key's stripe still
   held (single-key path): per-key observer order therefore equals
   versionstamp order, which is what lets the replication log apply
   records in receipt order and still converge (disjoint records
   commute).  The observer must never break a commit whose writes are
   already installed, so failures are swallowed — the feed is
   best-effort at this layer; loss shows up as replica lag, not as a
   primary abort. *)
let emit_feed (Store.Store st) vs writes =
  match Atomic.get st.feed with
  | None -> ()
  | Some f -> ( try f vs writes with _ -> ())

module Span = Verlib.Obs.Span

(* ------------------------------------------------------------------ *)
(* Token cache: claim exactly one executor per token; losers wait and
   replay the cached result.  Aborts unclaim (a retry with the same
   token executes afresh), so only committed results are cached.       *)

let claim (Store.Store st) token =
  Mutex.lock st.mu;
  let rec go () =
    match Hashtbl.find_opt st.cache token with
    | Some (Store.Done (vs, steps)) ->
        Mutex.unlock st.mu;
        `Cached (vs, steps)
    | Some Store.Pending ->
        Condition.wait st.cv st.mu;
        go ()
    | None ->
        Hashtbl.replace st.cache token Store.Pending;
        Mutex.unlock st.mu;
        `Mine
  in
  go ()

let complete (Store.Store st) token vs steps =
  Mutex.lock st.mu;
  Hashtbl.replace st.cache token (Store.Done (vs, steps));
  Queue.push token st.fifo;
  while Queue.length st.fifo > idem_capacity do
    (* FIFO eviction past the idempotency window.  A replay of an
       evicted token re-executes (a double commit from the client's
       point of view), so evictions must be visible: the
       [txn_idem_evictions] gauge is how soaks detect that the window
       was outrun. *)
    Hashtbl.remove st.cache (Queue.pop st.fifo);
    Atomic.incr idem_evictions_ctr
  done;
  Condition.broadcast st.cv;
  Mutex.unlock st.mu

let unclaim (Store.Store st) token =
  Mutex.lock st.mu;
  Hashtbl.remove st.cache token;
  Condition.broadcast st.cv;
  Mutex.unlock st.mu

(* ------------------------------------------------------------------ *)
(* The install step, shared by a commit and a replica apply: latch the
   written stripes in ascending order, enter the install window, draw
   the versionstamp, [validate] against the held words, install each
   write with one map call, tap the feed, and release every stripe to
   the stamp.  A latch still busy past the spin bound, a failed
   validation or a fault releases every latch untouched and raises
   [Conflict]: nothing is installed before [fp_commit].                *)

let install store ~spin ~validate writes =
  match store with
  | Store.Store st ->
      let module M = (val st.m) in
      (* (stripe, even word it was acquired from) *)
      let held = ref [] in
      let release_held () =
        List.iter (fun (s, v) -> Atomic.set st.stripes.(s) v) !held
      in
      let acquire s =
        let rec go n =
          let v = Atomic.get st.stripes.(s) in
          if v land 1 = 0 && Atomic.compare_and_set st.stripes.(s) v (v lor 1)
          then held := (s, v) :: !held
          else if n >= max_spin then begin
            release_held ();
            raise Conflict
          end
          else begin
            Flock.Backoff.once spin;
            go (n + 1)
          end
        in
        go 0
      in
      List.iter acquire
        (List.sort_uniq compare (List.map (fun (k, _) -> stripe_of k) writes));
      Atomic.incr st.starts;
      let vs = 1 + Atomic.fetch_and_add st.clock 1 in
      (try
         validate (fun s -> List.assoc_opt s !held);
         Span.in_phase Span.Install (fun () ->
             Fault.hit fp_commit;
             List.iter
               (function
                 | k, Some v -> ignore (M.upsert st.h k v)
                 | k, None -> ignore (M.delete st.h k))
               writes;
             (* Feed tap BEFORE the release: a conflicting later commit
                cannot install (or emit) until these latches drop, so
                per-key feed order equals stamp order. *)
             emit_feed store vs writes;
             List.iter (fun (s, _) -> Atomic.set st.stripes.(s) (vs lsl 1)) !held)
       with e ->
         release_held ();
         Atomic.incr st.dones;
         (match e with
         | Conflict | Fault.Injected _ -> raise Conflict
         | e -> raise e));
      Atomic.incr st.dones;
      vs

let rec apply store writes =
  try ignore (install store ~spin:(Flock.Backoff.create ()) ~validate:ignore writes)
  with Conflict -> apply store writes

(* ------------------------------------------------------------------ *)
(* One attempt: read phase (building steps + read set + write buffer)
   then validate-and-install.  Raises [Conflict] to request a retry.   *)

type wentry = W_put of int * bool  (** value, underlying-present *) | W_del

let run_once store ops =
  match store with
  | Store.Store st ->
      let module M = (val st.m) in
      (* read set: stripe -> version observed at first read *)
      let reads : (int, int) Hashtbl.t = Hashtbl.create 16 in
      (* range read set: (lo, hi, fingerprint) *)
      let ranges : (int * int * int) list ref = ref [] in
      (* write buffer *)
      let buf : (int, wentry) Hashtbl.t = Hashtbl.create 16 in
      let spin = Flock.Backoff.create () in
      (* An even read of a stripe word, spinning briefly past a held
         latch; past the bound the whole attempt conflicts (never
         blocks on another domain's progress). *)
      let read_vlock s =
        let rec go n =
          let v = Atomic.get st.stripes.(s) in
          if v land 1 = 0 then v
          else if n >= max_spin then raise Conflict
          else begin
            Flock.Backoff.once spin;
            go (n + 1)
          end
        in
        go 0
      in
      let check s r = if Atomic.get st.stripes.(s) <> r then raise Conflict in
      (* TL2 bracket around one find; first read of a stripe records
         its version, later reads re-check against the recording. *)
      let point_read k =
        let s = stripe_of k in
        match Hashtbl.find_opt reads s with
        | Some r ->
            check s r;
            let v = M.find st.h k in
            check s r;
            v
        | None ->
            let v1 = read_vlock s in
            let v = M.find st.h k in
            check s v1;
            Hashtbl.replace reads s v1;
            v
      in
      let do_get k =
        match Hashtbl.find_opt buf k with
        | Some (W_put (v, _)) -> S_int v
        | Some W_del -> S_nil
        | None -> ( match point_read k with Some v -> S_int v | None -> S_nil)
      in
      (* PUT keeps the map interface's insert-only semantics against
         the transaction's effective state; the presence check is a
         recorded read, so a racing insert aborts us at validation. *)
      let do_put k v =
        match Hashtbl.find_opt buf k with
        | Some (W_put _) -> S_exists
        | Some W_del ->
            Hashtbl.replace buf k (W_put (v, true));
            S_ok
        | None -> (
            match point_read k with
            | Some _ -> S_exists
            | None ->
                Hashtbl.replace buf k (W_put (v, false));
                S_ok)
      in
      let do_del k =
        match Hashtbl.find_opt buf k with
        | Some (W_put (_, underlying)) ->
            if underlying then Hashtbl.replace buf k W_del
            else Hashtbl.remove buf k;
            S_int 1
        | Some W_del -> S_int 0
        | None -> (
            match point_read k with
            | Some _ ->
                Hashtbl.replace buf k W_del;
                S_int 1
            | None -> S_int 0)
      in
      let do_mget keys =
        (* Keys the buffer doesn't resolve go through one atomic
           multifind, bracketed per distinct stripe. *)
        let pending =
          Array.to_list keys |> List.filter (fun k -> not (Hashtbl.mem buf k))
        in
        let pend = Array.of_list pending in
        let stripes =
          List.sort_uniq compare (List.map stripe_of pending)
        in
        let pre =
          List.map
            (fun s ->
              match Hashtbl.find_opt reads s with
              | Some r ->
                  check s r;
                  (s, r, false)
              | None -> (s, read_vlock s, true))
            stripes
        in
        let vals = M.multifind st.h pend in
        List.iter (fun (s, r, _) -> check s r) pre;
        List.iter
          (fun (s, r, fresh) -> if fresh then Hashtbl.replace reads s r)
          pre;
        let found : (int, int option) Hashtbl.t = Hashtbl.create 8 in
        Array.iteri (fun i k -> Hashtbl.replace found k vals.(i)) pend;
        S_vals
          (Array.to_list keys
          |> List.map (fun k ->
                 match Hashtbl.find_opt buf k with
                 | Some (W_put (v, _)) -> Some v
                 | Some W_del -> None
                 | None -> Hashtbl.find found k))
      in
      (* Range result with the write buffer overlaid, so transactions
         read their own (pending) writes in range queries too. *)
      let overlay lo hi pairs =
        let touched k = k >= lo && k <= hi in
        let dead =
          Hashtbl.fold
            (fun k e acc ->
              match e with
              | (W_del | W_put _) when touched k -> k :: acc
              | _ -> acc)
            buf []
        in
        let base = List.filter (fun (k, _) -> not (List.mem k dead)) pairs in
        let added =
          Hashtbl.fold
            (fun k e acc ->
              match e with
              | W_put (v, _) when touched k -> (k, v) :: acc
              | _ -> acc)
            buf []
        in
        List.sort compare (base @ added)
      in
      let do_range lo hi =
        let pairs = M.range st.h lo hi in
        ranges := (lo, hi, fp_pairs pairs) :: !ranges;
        overlay lo hi pairs
      in
      (* ---- read phase ------------------------------------------- *)
      let steps =
        List.map
          (function
            | Get k -> do_get k
            | Put (k, v) -> do_put k v
            | Del k -> do_del k
            | Mget keys -> do_mget keys
            | Range (lo, hi) -> S_pairs (do_range lo hi)
            | Rangecount (lo, hi) -> S_int (List.length (do_range lo hi)))
          ops
      in
      (* ---- commit ------------------------------------------------ *)
      (* Re-check every recorded read against [held_at] (the words of
         the stripes this commit latched) or the live stripe word, and
         re-fingerprint ranges while no installer but the [self] this
         attempt counts is in flight. *)
      let validate ~self held_at =
        Span.in_phase Span.Validate (fun () ->
            Fault.hit fp_validate;
            Hashtbl.iter
              (fun s r ->
                match held_at s with
                | Some v0 -> if v0 <> r then raise Conflict
                | None -> check s r)
              reads;
            if !ranges <> [] then begin
              let s0 = Atomic.get st.starts in
              if s0 <> Atomic.get st.dones + self then raise Conflict;
              List.iter
                (fun (lo, hi, fp) ->
                  if fp_pairs (M.range st.h lo hi) <> fp then raise Conflict)
                !ranges;
              if Atomic.get st.starts <> s0 then raise Conflict
            end)
      in
      if Hashtbl.length buf = 0 then begin
        (* Read-only: no stripe acquisition, no clock bump.  The
           versionstamp read sits between the read phase and the
           probes — see the serialization argument at the top. *)
        let vs = Atomic.get st.clock in
        (try validate ~self:0 (fun _ -> None)
         with Fault.Injected _ -> raise Conflict);
        (vs, steps)
      end
      else
        let writes =
          Hashtbl.fold
            (fun k e acc ->
              (k, match e with W_put (v, _) -> Some v | W_del -> None) :: acc)
            buf []
        in
        (install store ~spin ~validate:(validate ~self:1) writes, steps)

let run store ops max_attempts =
  let b = Flock.Backoff.create () in
  let rec go attempt =
    match run_once store ops with
    | vs, steps ->
        Atomic.incr commits_ctr;
        Committed { vs; steps; attempts = attempt }
    | exception Conflict ->
        Atomic.incr retries_ctr;
        if attempt >= max_attempts then begin
          Atomic.incr aborts_ctr;
          Aborted { attempts = attempt }
        end
        else begin
          Flock.Backoff.once b;
          go (attempt + 1)
        end
  in
  go 1

let exec ?(token = 0) ?(max_attempts = 8) store ops =
  if token = 0 then run store ops max_attempts
  else
    match claim store token with
    | `Cached (vs, steps) ->
        Atomic.incr replays_ctr;
        Committed { vs; steps; attempts = 0 }
    | `Mine -> (
        match run store ops max_attempts with
        | Committed { vs; steps; _ } as r ->
            complete store token vs steps;
            r
        | Aborted _ as r ->
            unclaim store token;
            r
        | exception e ->
            unclaim store token;
            raise e)

(* ------------------------------------------------------------------ *)
(* Liveness grace for the stripe brackets.  Stripe latches are held
   for bounded work (one map call, or one buffered install), so under
   any *bounded* stall — including the fault plans the smoke gates arm
   (txn.commit pauses are milliseconds) — waiters always get through
   by spinning.  An *unbounded* stall (a crash-stopped domain parked
   inside a structure operation while holding a stripe latch, the
   Theorem 6.1 chaos schedule) must not convoy plain traffic behind a
   latch nobody will release: lock-freedom of plain single-key
   operations is the paper's central liveness claim and tier-1 tested.
   So every plain-path bracket spins through a grace and then
   degrades: writes apply latch-free and bump the stripe only if it is
   free (the parked holder's own release moves the word anyway,
   conservatively invalidating readers), reads fall back to the
   structure-level snapshot.  The degraded window is unreachable
   without a crash-stop fault on the write path; transactions
   themselves stay strict — their validation treats a busy stripe as a
   conflict and aborts past [max_attempts] rather than blocking.

   The grace MUST be wall-clock bounded, not iteration bounded: past
   the backoff limit each spin is a [Thread.yield], and on an
   unloaded domain 5k yields finish in well under a millisecond — an
   iteration count that comfortably outlasts a paused installer on
   one machine silently shrinks below the pause on another, and a
   reader that degrades during a {e bounded} mid-install pause can
   observe a torn state.  So the first [grace_spins] iterations are
   counted (cheap, no clock reads), and from there the bracket keeps
   spinning until [grace_seconds] of real time elapse.  Bounded
   pauses are milliseconds; 50ms of wall grace cannot be beaten by
   load. *)
let grace_spins = 5_000
let grace_seconds = 0.05

(* Returns a thunk that flips to [true] only once the grace is
   exhausted: spin-counted first, then wall-clock from the first
   post-count call. *)
let grace_clock () =
  let n = ref 0 and deadline = ref nan in
  fun () ->
    incr n;
    if !n <= grace_spins then false
    else
      let now = Unix.gettimeofday () in
      if Float.is_nan !deadline then begin
        deadline := now +. grace_seconds;
        false
      end
      else now >= !deadline

(* Single-key writes, routed through the stripe table so plain PUT/DEL
   traffic serializes with transactional commits.  The install is one
   map call under the held stripe, so there is no validation window and
   no [starts]/[dones] participation; a no-op (insert on present,
   delete on absent) releases the stripe to its ORIGINAL version to
   avoid aborting readers over a state that did not change.            *)

(* The word a contended stripe latch was taken from, or [-1] once the
   grace ran out. *)
let latch_slow cell =
  let b = Flock.Backoff.create () in
  let expired = grace_clock () in
  let rec acq () =
    if expired () then -1
    else
      let v = Atomic.get cell in
      if v land 1 = 0 && Atomic.compare_and_set cell v (v lor 1) then v
      else begin
        Flock.Backoff.once b;
        acq ()
      end
  in
  acq ()

(* [w] is [Some v] for an insert of [v], [None] for a delete. *)
let write_one (type h) (m : (module Dstruct.Map_intf.MAP with type t = h)) (h : h) k w =
  let module M = (val m) in
  match w with Some v -> M.insert h k v | None -> M.delete h k

let single_write store k w =
  match store with
  | Store.Store st ->
      let cell = st.stripes.(stripe_of k) in
      (* One uncontended latch attempt first, before any retry state
         exists: a write that meets no other writer allocates only what
         the map and the feed do. *)
      let v = Atomic.get cell in
      let v0 =
        if v land 1 = 0 && Atomic.compare_and_set cell v (v lor 1) then v
        else latch_slow cell
      in
      if v0 >= 0 then begin
        let changed =
          try write_one st.m st.h k w
          with e ->
            Atomic.set cell v0;
            raise e
        in
        if changed then begin
          let vs = 1 + Atomic.fetch_and_add st.clock 1 in
          (* Same discipline as the commit path: tap before the
             stripe release so per-key feed order is stamp order. *)
          emit_feed store vs [ (k, w) ];
          Atomic.set cell (vs lsl 1)
        end
        else Atomic.set cell v0;
        changed
      end
      else begin
        (* Grace exceeded: a latch holder is parked (crash-stop
           chaos).  Apply latch-free — the structure itself is
           lock-free via helping — and bump the version only if the
           stripe is free; when it is still held, the parked
           holder's eventual release changes the word, which
           invalidates any reader that recorded it.               *)
        let changed = write_one st.m st.h k w in
        if changed then begin
          let rec bump () =
            let v = Atomic.get cell in
            if v land 1 = 0 then
              let nv = (1 + Atomic.fetch_and_add st.clock 1) lsl 1 in
              if not (Atomic.compare_and_set cell v nv) then bump ()
          in
          bump ();
          (* Degraded (crash-stop) window: best-effort tap at the
             clock's current value; per-key ordering is already
             conceded here, exactly-once is not (one emit per
             applied write). *)
          emit_feed store (Atomic.get st.clock) [ (k, w) ]
        end;
        changed
      end

let put store k v = single_write store k (Some v)

let del store k = single_write store k None

(* ------------------------------------------------------------------ *)
(* Serialized plain reads.  A structure-level snapshot (find /
   multifind / range) is atomic with respect to individual map calls
   but NOT with respect to a multi-key install, which is a {e sequence}
   of map calls (one per key): a raw read can land between a transfer's
   install of [a] and its install of [b] and observe a state no serial
   execution produces.  These readers close that window seqlock-style: a result
   counts only if its bracket — the covering stripe words for point
   reads, the installer counters for ranges — held one even/quiet value
   across the whole structure read.  A failed bracket retries with
   backoff rather than aborting: it means a commit truly overlapped,
   and installs are short (apply one buffer under latches), so quiet
   windows recur the way they do for any seqlock reader.  Single-key
   writes need no bracket coverage beyond this: each is exactly one map
   call, which the structure-level snapshot already serializes.        *)

let get store k =
  match store with
  | Store.Store st ->
      let module M = (val st.m) in
      let s = stripe_of k in
      (* One uncontended bracket first, before any retry state exists:
         a point read that meets no writer allocates only what the map
         returns. *)
      let v0 = Atomic.get st.stripes.(s) in
      let r0 = if v0 land 1 = 0 then M.find st.h k else None in
      if v0 land 1 = 0 && Atomic.get st.stripes.(s) = v0 then r0
      else begin
        let b = Flock.Backoff.create () in
        let expired = grace_clock () in
        let rec go () =
          if expired () then M.find st.h k
          else
            let v1 = Atomic.get st.stripes.(s) in
            if v1 land 1 <> 0 then begin
              Flock.Backoff.once b;
              go ()
            end
            else
              let r = M.find st.h k in
              if Atomic.get st.stripes.(s) = v1 then r
              else begin
                Flock.Backoff.once b;
                go ()
              end
        in
        go ()
      end

let mget store keys =
  match store with
  | Store.Store st ->
      let module M = (val st.m) in
      let stripes =
        List.sort_uniq compare
          (Array.fold_left (fun acc k -> stripe_of k :: acc) [] keys)
      in
      let b = Flock.Backoff.create () in
      let expired = grace_clock () in
      let rec go () =
        if expired () then M.multifind st.h keys
        else
          let pre =
            List.map (fun s -> (s, Atomic.get st.stripes.(s))) stripes
          in
          if List.exists (fun (_, v) -> v land 1 <> 0) pre then begin
            Flock.Backoff.once b;
            go ()
          end
          else
            let r = M.multifind st.h keys in
            if List.for_all (fun (s, v) -> Atomic.get st.stripes.(s) = v) pre
            then r
            else begin
              Flock.Backoff.once b;
              go ()
            end
      in
      go ()

(* Ranges cannot enumerate their covering stripes up front, so they
   bracket with the installer counters instead: a result computed while
   [starts = dones] held and [starts] did not advance overlapped no
   multi-op install. *)
let quiet : 'a. Store.t -> (unit -> 'a) -> 'a =
 fun store f ->
  match store with
  | Store.Store st ->
      let b = Flock.Backoff.create () in
      let expired = grace_clock () in
      let rec go () =
        if expired () then f ()
        else
          let d = Atomic.get st.dones in
          let s = Atomic.get st.starts in
          if s <> d then begin
            Flock.Backoff.once b;
            go ()
          end
          else
            let r = f () in
            if Atomic.get st.starts = s then r
            else begin
              Flock.Backoff.once b;
              go ()
            end
      in
      go ()

let range store lo hi =
  match store with
  | Store.Store st ->
      let module M = (val st.m) in
      quiet store (fun () -> M.range st.h lo hi)

let range_count store lo hi =
  match store with
  | Store.Store st ->
      let module M = (val st.m) in
      quiet store (fun () -> M.range_count st.h lo hi)
