(* verlib-loadgen: multi-domain closed-loop client for verlib-serve.

   Two mixes:

   - [--mix opgen] (default): each client domain owns one connection and
     one [Workload.Opgen] stream (finds / range counts / multifinds plus
     updates, uniform or Zipfian keys), sends batches of [--pipeline]
     commands and reads the replies back-to-back.  Batch round-trip
     latency is recorded into the existing [Verlib.Obs] histograms
     (attributed to the batch's first command kind), so the report
     plumbing is shared with the in-process harness.  The run checks
     replies, the served census and (optionally) traces, metrics and
     profiles; it writes no benchmark rows — served throughput is
     perfbench's (perfbench/run.py).

   - [--mix bank]: the serializability workload.  Writer domains own
     disjoint account pairs (a = 2i+1, b = 2i+2, both seeded with BASE)
     and move one unit per transfer with one server-side transaction
     [MULTI; DEL a; PUT a (va-1); DEL b; PUT b (vb+1); EXEC token].
     The server commits the four effects atomically at a single
     versionstamp, exactly once per token, so there is no settle/replay
     pass and no partially-applied transfer to repair.  Reader domains
     audit the pair sum through read-only transactions, MGET and (on
     ordered structures) RANGE; every observed pair must sum to
     {e exactly} 2*BASE — the old 2*BASE-1 "between the two PUTs"
     window and the visible in-flight DEL are gone.  On shutdown a
     quiescent MGET of every account must sum to exactly 2*BASE*pairs.

   Exit codes: 0 = clean; 1 = invariant violation, reply errors, or
   census violations reported by the server's STATS; 2 = usage. *)

open Cmdliner
module P = Server.Protocol
module C = Server.Client

(* --- CLI ------------------------------------------------------------------ *)

let host =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Server address.")

let port =
  Arg.(value & opt int 7379 & info [ "port" ] ~doc:"Server TCP port.")

let host_port =
  let parse s =
    let bad () = Error (`Msg (Printf.sprintf "expected HOST:PORT, got %S" s)) in
    let mk h p = if p >= 1 && p <= 65535 then Ok (h, p) else bad () in
    match String.rindex_opt s ':' with
    | None -> ( match int_of_string_opt s with
        | Some p -> mk "127.0.0.1" p
        | None -> bad ())
    | Some i -> (
        let h = String.sub s 0 i
        and rest = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt rest with
        | Some p when h <> "" -> mk h p
        | _ -> bad ())
  in
  let print fmt (h, p) = Format.fprintf fmt "%s:%d" h p in
  Arg.conv (parse, print)

let failover_to =
  Arg.(value & opt_all host_port [] & info [ "failover-to" ] ~docv:"HOST:PORT"
       ~doc:"Failover candidate endpoint behind --host/--port (repeatable). \
             Client transports rotate through the ring on transport failure \
             and on -ERR READONLY refusals, so a PROMOTE'd replica picks up \
             the load without restarting the generator.")

(* Failover candidates behind --host/--port, set once in [run] and read at
   every [connect_rt] site — a module-level ref beats threading one more
   parameter through every worker signature. *)
let failover_eps : (string * int) list ref = ref []

let threads =
  Arg.(value & opt int 4 & info [ "t"; "threads" ]
       ~doc:"Client domains (one connection each).")

let depth =
  Arg.(value & opt int 16 & info [ "p"; "pipeline" ]
       ~doc:"Pipelining depth: commands per batch before reading replies.")

let size =
  Arg.(value & opt int 10_000 & info [ "n"; "size" ]
       ~doc:"Intended structure size (the opgen key universe is 2n).")

let updates =
  Arg.(value & opt int 20 & info [ "u"; "updates" ]
       ~doc:"Update percentage (0-100) for the opgen mix.")

let query =
  Arg.(value & opt string "multifind:16" & info [ "q"; "query" ]
       ~doc:"Query kind for non-update operations: find, range:SIZE, multifind:K.")

let theta =
  Arg.(value & opt float 0. & info [ "z"; "zipf" ]
       ~doc:"Zipfian parameter (0 = uniform).")

let duration =
  Arg.(value & opt float 1.0 & info [ "d"; "duration" ] ~doc:"Seconds to run.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

let mix =
  let alist = [ ("opgen", `Opgen); ("bank", `Bank) ] in
  Arg.(value & opt (enum alist) `Opgen & info [ "mix" ]
       ~doc:"Workload: opgen (throughput) or bank (snapshot invariant).")

let pairs =
  Arg.(value & opt int 64 & info [ "pairs" ]
       ~doc:"Account pairs for the bank mix.")

let no_fill =
  Arg.(value & flag & info [ "no-fill" ]
       ~doc:"Skip the pipelined fill phase (opgen mix).")

let ci =
  Arg.(value & flag & info [ "ci" ]
       ~doc:"Smoke scale: clamps size to 1000 and duration to 0.5s.")

let stats_out =
  Arg.(value & opt (some string) None & info [ "stats-out" ] ~docv:"FILE"
       ~doc:"Write the server's raw STATS JSON (post-run) to $(docv).")

let trace_sample =
  Arg.(value & opt int 0 & info [ "trace-sample" ] ~docv:"N"
       ~doc:"Opgen mix: after every $(docv)th batch each worker sends one \
             extra command singly under a TRACE prefix and joins the \
             server's phase decomposition with its own measured RTT \
             (docs/OBSERVABILITY.md).  The run fails if any sample's phase \
             sum exceeds its RTT by more than 5% — the decomposition must \
             nest inside the client-observed latency.  0 = off.")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
       ~doc:"Write the joined trace samples (client RTT plus server phase \
             breakdown, one JSON object) to $(docv).")

let metrics_out =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
       ~doc:"Fetch METRICS after the run, validate the Prometheus text \
             exposition with the strict line parser, and write it to \
             $(docv).  A malformed exposition fails the run.")

let profile_out =
  Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE"
       ~doc:"Fetch PROFILE after the run (cumulative sampling-profiler \
             snapshot: activity stacks, lock-site contention, GC rates), \
             validate the JSON parses, and write it to $(docv).  A malformed \
             snapshot fails the run.  The server must sample \
             ($(b,verlib_serve --profile-hz)).")

let rt_attempts =
  Arg.(value & opt int 0 & info [ "rt-attempts" ] ~docv:"N"
       ~doc:"Bound the retrying transport's reconnect-and-replay budget for \
             opgen workers (0 = library default).  Use 1 against a \
             deliberately wedged server (e.g. the blocking-convoy profile \
             smoke) so each client connection wedges at most one server \
             connection instead of replaying onto ten.")

let faults =
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"PLAN"
       ~doc:"Arm a fault plan (preset name or spec, see docs/RESILIENCE.md) \
             in $(b,this) process for the measured window — exercises the \
             client.read/client.write injection points, i.e. a flaky wire \
             as seen from the client.  The retry layer must mask it; \
             disarmed again before the audit/STATS phase.")

let idle_conns =
  Arg.(value & opt int 0 & info [ "idle-conns" ] ~docv:"N"
       ~doc:"Open N extra raw connections before the workload, PING each \
             once, then hold them idle for the whole run while the hot set \
             hammers the server — the c10k posture.  After the workload \
             every held connection is PINGed again; any that died fails \
             the run.  Requires an event-loop server: N is bounded by \
             $(b,ulimit -n), not by the server's domain count.")

(* --- shared machinery ----------------------------------------------------- *)

let stop = Atomic.make false

let go = Atomic.make false

let ready = Atomic.make 0

let install_signal_handlers () =
  let handle _ = Atomic.set stop true in
  List.iter
    (fun s -> try Sys.set_signal s (Sys.Signal_handle handle) with _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let wait_go () =
  Atomic.incr ready;
  while not (Atomic.get go || Atomic.get stop) do
    Domain.cpu_relax ()
  done

let parse_query s =
  match String.split_on_char ':' s with
  | [ "find" ] | [ "finds" ] -> Ok Workload.Opgen.Finds
  | [ "range"; n ] -> Ok (Workload.Opgen.Ranges (int_of_string n))
  | [ "multifind"; n ] -> Ok (Workload.Opgen.Multifinds (int_of_string n))
  | _ -> Error (`Msg (Printf.sprintf "bad query spec %S" s))

type kind = K_find | K_insert | K_delete | K_range | K_multifind

let kind_index = function
  | K_find -> 0 | K_insert -> 1 | K_delete -> 2 | K_range -> 3 | K_multifind -> 4

let kind_name = function
  | K_find -> "find" | K_insert -> "insert" | K_delete -> "delete"
  | K_range -> "range" | K_multifind -> "multifind"

let hist_of_kind = function
  | K_find -> Verlib.Obs.lat_find
  | K_insert -> Verlib.Obs.lat_insert
  | K_delete -> Verlib.Obs.lat_delete
  | K_range -> Verlib.Obs.lat_range
  | K_multifind -> Verlib.Obs.lat_multifind

let translate = function
  | Workload.Opgen.Insert (k, v) -> (P.Put (k, v), K_insert)
  | Workload.Opgen.Delete k -> (P.Del k, K_delete)
  | Workload.Opgen.Find k -> (P.Get k, K_find)
  | Workload.Opgen.Range (a, b) -> (P.Rangecount (a, b), K_range)
  | Workload.Opgen.Multifind ks -> (P.Mget ks, K_multifind)

(* One traced request joined with its client-measured round trip: the
   server's phase decomposition (the [@]-frame) must nest inside the
   RTT — phases are exclusive and the span begins at request-byte
   arrival, so [phase sum <= rtt] up to µs-conversion rounding. *)
type tsample = {
  ts_cmd : string;
  ts_rtt_us : float;
  ts_trace : P.trace_info;
}

type wstats = {
  ops : int array;  (** per {!kind} index *)
  mutable errors : int;
  mutable first_error : string option;
  mutable retries : int;  (** wire retries the rt client absorbed *)
  mutable shed : int;  (** [-BUSY] replies the rt client observed *)
  mutable samples : tsample list;  (** traced requests, newest first *)
}

let new_wstats () =
  { ops = Array.make 5 0; errors = 0; first_error = None; retries = 0;
    shed = 0; samples = [] }

let note_error st msg =
  st.errors <- st.errors + 1;
  if st.first_error = None then st.first_error <- Some msg

(* --- opgen mix ------------------------------------------------------------ *)

let fill_over_wire conn gen rng =
  let batch = ref [] and count = ref 0 in
  let flush () =
    if !batch <> [] then begin
      (match C.pipeline conn (List.rev !batch) with
       | Ok _ -> ()
       | Error e -> failwith ("loadgen fill: " ^ e));
      batch := [];
      count := 0
    end
  in
  Workload.Opgen.fill gen rng ~insert:(fun k v ->
      batch := P.Put (k, v) :: !batch;
      incr count;
      if !count >= 512 then flush ();
      true);
  flush ()

let opgen_worker ~host ~port ~depth ~gen_of ~trace_sample ~rt_attempts ~wid st
    () =
  (* The retrying transport: reconnects and re-issues after wire faults
     (every opgen command is idempotent), honours [-BUSY] shedding.
     [rt_attempts] bounds the reconnect-and-replay budget: against a
     deliberately convoyed server (blocking-convoy smoke) the default
     budget would wedge up to 10 fresh server connections per client
     connection. *)
  let rt =
    match rt_attempts with
    | Some n ->
        C.connect_rt ~host ~port ~endpoints:!failover_eps ~max_attempts:n
          ~seed:(0x10adc0de + (wid * 7919)) ()
    | None ->
        C.connect_rt ~host ~port ~endpoints:!failover_eps
          ~seed:(0x10adc0de + (wid * 7919)) ()
  in
  let gen = gen_of wid in
  let rng = Workload.Splitmix.create (0x10adc0de + (wid * 7919)) in
  let batches = ref 0 in
  (* One traced request, sent singly (not pipelined) so the RTT it joins
     against measures exactly one server-side span.  Shed or errored
     replies carry no usable decomposition and are dropped. *)
  let trace_one () =
    let c, k = translate (Workload.Opgen.next gen rng) in
    let id = ((wid + 1) * 1_000_000) + !batches in
    let t0 = Verlib.Hwclock.now () in
    match C.rt_request_traced rt ~trace_id:id c with
    | Ok r, tr ->
        let t1 = Verlib.Hwclock.now () in
        (match r with
         | P.Err msg -> note_error st msg
         | P.Busy _ -> ()
         | _ ->
             let i = kind_index k in
             st.ops.(i) <- st.ops.(i) + 1;
             (match tr with
              | Some t ->
                  st.samples <-
                    { ts_cmd = kind_name k;
                      ts_rtt_us = Verlib.Hwclock.to_us (t1 - t0);
                      ts_trace = t }
                    :: st.samples
              | None -> ()))
    | Error e, _ ->
        if not (Atomic.get stop) then note_error st e;
        Atomic.set stop true
  in
  wait_go ();
  (try
     while not (Atomic.get stop) do
       let cmds = ref [] and kinds = ref [] in
       for _ = 1 to depth do
         let c, k = translate (Workload.Opgen.next gen rng) in
         cmds := c :: !cmds;
         kinds := k :: !kinds
       done;
       let cmds = List.rev !cmds and kinds = List.rev !kinds in
       let t0 = Verlib.Hwclock.now () in
       (match C.rt_pipeline rt cmds with
        | Ok replies ->
            let t1 = Verlib.Hwclock.now () in
            (match kinds with
             | k :: _ ->
                 Verlib.Obs.Hist.observe (hist_of_kind k) (t1 - t0)
             | [] -> ());
            List.iter2
              (fun k r ->
                match r with
                | P.Err msg -> note_error st msg
                | P.Busy _ ->
                    (* shed even after the retry budget: not executed,
                       not an op, not an error *)
                    ()
                | _ ->
                    let i = kind_index k in
                    st.ops.(i) <- st.ops.(i) + 1)
              kinds replies
        | Error e ->
            if not (Atomic.get stop) then note_error st e;
            Atomic.set stop true);
       incr batches;
       if
         trace_sample > 0
         && !batches mod trace_sample = 0
         && not (Atomic.get stop)
       then trace_one ()
     done
   with e -> note_error st (Printexc.to_string e));
  let r, b = C.rt_stats rt in
  st.retries <- r;
  st.shed <- b;
  C.rt_close rt

(* --- bank mix ------------------------------------------------------------- *)

let bank_base = 1_000_000

type bank_stats = {
  mutable transfers : int;
  mutable checks : int;
  mutable skipped : int;  (** a read shed past the retry budget ([-BUSY]) *)
  mutable violations : int;
  mutable berrors : int;
  mutable giveups : int;
      (** transactional transport exhausted its retry budget — asserted
          {e zero} by the driver: EXEC tokens make wholesale retries
          exactly-once, so under the shipped fault plans no transfer or
          audit read should ever run out of attempts *)
  mutable detail : string option;
  mutable bretries : int;
  mutable bshed : int;
}

let new_bank_stats () =
  { transfers = 0; checks = 0; skipped = 0; violations = 0; berrors = 0;
    giveups = 0; detail = None; bretries = 0; bshed = 0 }

let bank_note_violation st msg =
  st.violations <- st.violations + 1;
  if st.detail = None then st.detail <- Some msg

let bank_note_error st msg =
  st.berrors <- st.berrors + 1;
  if st.detail = None then st.detail <- Some msg

(* Writer [w] owns pairs {i | i mod nwriters = w}; local shadows of the
   two balances make every transfer a blind transactional write. *)
let bank_writer ~host ~port ~pairs ~nwriters ~wid st () =
  (* Each transfer is one server-side transaction
     [MULTI; DEL a; PUT a na; DEL b; PUT b nb; EXEC token]: the server
     installs all four effects atomically at a single versionstamp or
     none of them, and the fresh token makes the commit exactly-once, so
     an ambiguous wire failure is retried wholesale by [rt_txn] without
     risk of double-apply.  The old settle loop — replaying a possibly
     half-applied pipelined sequence until it converged — is gone;
     there is no half-applied state to settle (docs/TRANSACTIONS.md). *)
  let rt =
    C.connect_rt ~host ~port ~endpoints:!failover_eps
      ~seed:(0xba9c + (wid * 104729)) ()
  in
  let owned =
    List.init pairs Fun.id
    |> List.filter (fun i -> i mod nwriters = wid)
    |> Array.of_list
  in
  let va = Hashtbl.create 16 and vb = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      Hashtbl.replace va i bank_base;
      Hashtbl.replace vb i bank_base)
    owned;
  let rng = Workload.Splitmix.create (0xba9c + (wid * 104729)) in
  wait_go ();
  (try
     while not (Atomic.get stop) && Array.length owned > 0 do
       let i = owned.(Workload.Splitmix.below rng (Array.length owned)) in
       let a = (2 * i) + 1 and b = (2 * i) + 2 in
       let na = Hashtbl.find va i - 1 and nb = Hashtbl.find vb i + 1 in
       (match
          C.rt_txn rt [ P.Del a; P.Put (a, na); P.Del b; P.Put (b, nb) ]
        with
       | Ok (_vs, [ P.Int 1; P.Ok_; P.Int 1; P.Ok_ ]) ->
           (* Both accounts were present and both re-inserts landed —
              the only step shape a committed transfer can have. *)
           Hashtbl.replace va i na;
           Hashtbl.replace vb i nb;
           st.transfers <- st.transfers + 1
       | Ok (_, rs) ->
           bank_note_error st
             ("transfer steps: " ^ String.concat " " (List.map P.pp_reply rs));
           Atomic.set stop true
       | Error e ->
           (* The transactional transport ran out of attempts.  Unlike
              the old pipelined bank there is nothing to settle — the
              commit either claimed the token or it didn't — but the
              writer's shadow balances are now one transfer ambiguous,
              so the run stops and the driver fails on [giveups > 0].
              Under the shipped plans (abort-storm, flaky-wire) the
              retry budget makes this probabilistically unreachable. *)
           st.giveups <- st.giveups + 1;
           bank_note_error st ("transfer gave up: " ^ e);
           Atomic.set stop true)
     done
   with e -> bank_note_error st (Printexc.to_string e));
  let r, b = C.rt_stats rt in
  st.bretries <- r;
  st.bshed <- b;
  C.rt_close rt

(* Transfers commit atomically, so every observed pair must sum to
   {e exactly} 2*BASE: the pipelined bank's 2*BASE-1 "between the two
   PUTs" window and its visible in-flight DEL no longer exist, and an
   absent account or an off-by-one sum is a serializability
   violation, not a skip. *)
let check_pair_sum st ~via a b = function
  | None ->
      bank_note_violation st
        (Printf.sprintf
           "%s pair (%d,%d): account absent — transfer observed mid-flight"
           via a b)
  | Some sum ->
      st.checks <- st.checks + 1;
      if sum <> 2 * bank_base then
        bank_note_violation st
          (Printf.sprintf
             "%s pair (%d,%d): sum %d <> %d — non-atomic multi-read" via a b
             sum (2 * bank_base))

(* Extract both balances from an MGET reply ([Int|Nil; Int|Nil]). *)
let sum_of_mget = function
  | P.Arr [ P.Int x; P.Int y ] -> Ok (Some (x + y))
  | P.Arr [ _; _ ] -> Ok None  (* an account is mid-transfer *)
  | r -> Error ("MGET reply: " ^ P.pp_reply r)

(* Extract both balances from a RANGE a b reply (flat [k;v;...]). *)
let sum_of_range a b = function
  | P.Arr items ->
      let rec pairs = function
        | P.Int k :: P.Int v :: rest -> ((k, v) :: pairs rest)
        | [] -> []
        | _ -> raise Exit
      in
      (try
         let kvs = pairs items in
         (match (List.assoc_opt a kvs, List.assoc_opt b kvs) with
          | Some x, Some y -> Ok (Some (x + y))
          | _ -> Ok None)
       with Exit -> Error "RANGE reply: odd k/v framing")
  | P.Err e -> Error ("RANGE: " ^ e) (* capability was probed at start *)
  | r -> Error ("RANGE reply: " ^ P.pp_reply r)

let bank_reader ~host ~port ~pairs ~rid st () =
  let rt =
    C.connect_rt ~host ~port ~endpoints:!failover_eps
      ~seed:(0x5ead + (rid * 65537)) ()
  in
  (* Probe once whether RANGE is supported (ordered structure). *)
  let ranges_ok =
    match C.rt_request rt (P.Range (1, 2)) with
    | Ok (P.Err _) -> false
    | Ok _ -> true
    | Error _ -> false
  in
  let rng = Workload.Splitmix.create (0x5ead + (rid * 65537)) in
  wait_go ();
  (try
     while not (Atomic.get stop) do
       let i = Workload.Splitmix.below rng pairs in
       let a = (2 * i) + 1 and b = (2 * i) + 2 in
       (* Three audit paths, all held to the exact-sum invariant: a
          read-only transaction (validated against the commit clock),
          an atomic MGET, and — on ordered structures — a RANGE over
          the pair's snapshot. *)
       let die = Workload.Splitmix.below rng (if ranges_ok then 3 else 2) in
       if die = 0 then (
         match C.rt_txn rt [ P.Get a; P.Get b ] with
         | Ok (_vs, [ P.Int x; P.Int y ]) ->
             check_pair_sum st ~via:"TXN" a b (Some (x + y))
         | Ok (_, _) -> check_pair_sum st ~via:"TXN" a b None
         | Error e ->
             (* Reads carry no effects, but a read that runs out of
                attempts still counts against the zero-giveups
                assertion — the retry budget is sized so it never
                should. *)
             st.giveups <- st.giveups + 1;
             bank_note_error st ("TXN read gave up: " ^ e))
       else
         let use_range = die = 2 in
         let cmd = if use_range then P.Range (a, b) else P.Mget [| a; b |] in
         match C.rt_request rt cmd with
         | Ok (P.Busy _) ->
             (* shed past the retry budget: nothing executed, skip *)
             st.skipped <- st.skipped + 1
         | Ok r -> (
             let sum =
               if use_range then sum_of_range a b r else sum_of_mget r
             in
             match sum with
             | Ok s ->
                 check_pair_sum st
                   ~via:(if use_range then "RANGE" else "MGET")
                   a b s
             | Error e ->
                 (* a malformed reply is a real protocol violation *)
                 bank_note_error st e;
                 Atomic.set stop true)
         | Error e ->
             st.giveups <- st.giveups + 1;
             bank_note_error st ("read gave up: " ^ e)
     done
   with e -> bank_note_error st (Printexc.to_string e));
  let r, b = C.rt_stats rt in
  st.bretries <- r;
  st.bshed <- b;
  C.rt_close rt

(* Quiescent audit: after every domain is joined, the sum over all
   accounts must be exactly 2*BASE*pairs (each pipelined transfer runs
   to completion before the writer observes the stop flag). *)
let bank_final_audit ~host ~port ~pairs =
  let conn = C.connect ~host ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  let keys = Array.init (2 * pairs) (fun j -> j + 1) in
  match C.request conn (P.Mget keys) with
  | Ok (P.Arr items) ->
      let missing = ref 0 and total = ref 0 in
      List.iter
        (function
          | P.Int v -> total := !total + v
          | _ -> incr missing)
        items;
      if !missing > 0 then
        Error (Printf.sprintf "final audit: %d account(s) missing" !missing)
      else if !total <> 2 * bank_base * pairs then
        Error
          (Printf.sprintf "final audit: total %d, expected %d (money %s)"
             !total
             (2 * bank_base * pairs)
             (if !total < 2 * bank_base * pairs then "destroyed" else "created"))
      else Ok !total
  | Ok r -> Error ("final audit reply: " ^ P.pp_reply r)
  | Error e -> Error ("final audit: " ^ e)

(* --- server STATS --------------------------------------------------------- *)

type server_census = {
  sc_chain_max : int;
  sc_chain_p99 : int;
  sc_indirect : int;
  sc_reclaimable : int;
  sc_violations : int;
}

let fetch_stats ~host ~port =
  match C.connect ~host ~retries:5 ~port () with
  | exception e -> Error (Printexc.to_string e)
  | conn ->
      Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
      (match C.request conn P.Stats with
       | Ok (P.Bulk s) -> Ok s
       | Ok r -> Error ("STATS reply: " ^ P.pp_reply r)
       | Error e -> Error e)

let fetch_metrics ~host ~port =
  match C.connect ~host ~retries:5 ~port () with
  | exception e -> Error (Printexc.to_string e)
  | conn ->
      Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
      (match C.request conn P.Metrics with
       | Ok (P.Bulk s) -> Ok s
       | Ok r -> Error ("METRICS reply: " ^ P.pp_reply r)
       | Error e -> Error e)

let fetch_profile ~host ~port =
  match C.connect ~host ~retries:5 ~port () with
  | exception e -> Error (Printexc.to_string e)
  | conn ->
      Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
      (match C.request conn (P.Profile 0) with
       | Ok (P.Bulk s) -> Ok s
       | Ok r -> Error ("PROFILE reply: " ^ P.pp_reply r)
       | Error e -> Error e)

(* A named gauge out of the STATS JSON ("gauges" object); 0 when absent
   or unparsable — gauges are advisory. *)
let gauge_of_stats raw name =
  match Harness.Jsonlite.parse_result raw with
  | Error _ -> 0
  | Ok j -> (
      match
        Option.bind (Harness.Jsonlite.member "gauges" j) (fun g ->
            Option.bind (Harness.Jsonlite.member name g)
              Harness.Jsonlite.to_number)
      with
      | Some f -> int_of_float f
      | None -> 0)

let census_of_stats raw =
  match Harness.Jsonlite.parse_result raw with
  | Error e -> Error ("STATS json: " ^ e)
  | Ok j ->
      let num path dflt =
        let rec walk j = function
          | [] -> Harness.Jsonlite.to_number j
          | k :: rest -> (
              match Harness.Jsonlite.member k j with
              | Some j' -> walk j' rest
              | None -> None)
        in
        match walk j path with Some f -> int_of_float f | None -> dflt
      in
      (match Harness.Jsonlite.member "census" j with
       | None -> Ok None
       | Some _ ->
           Ok
             (Some
                {
                  sc_chain_max = num [ "census"; "chain_max" ] 0;
                  sc_chain_p99 = num [ "census"; "chain_p99" ] 0;
                  sc_indirect = num [ "census"; "indirect_links" ] 0;
                  sc_reclaimable = num [ "census"; "reclaimable" ] 0;
                  sc_violations = num [ "census_violations_total" ] 0;
                }))

(* --- reporting ------------------------------------------------------------ *)

let us_percentiles kind =
  let s = Verlib.Obs.Hist.summary (hist_of_kind kind) in
  if s.Verlib.Obs.Hist.s_count = 0 then (0., 0.)
  else
    ( Verlib.Hwclock.to_us s.Verlib.Obs.Hist.s_p50,
      Verlib.Hwclock.to_us s.Verlib.Obs.Hist.s_p99 )

(* --- trace-sample join ---------------------------------------------------- *)

let phase_sum (t : P.trace_info) =
  List.fold_left (fun acc (_, v) -> acc +. v) 0. t.P.t_phase_us

(* Mean µs per phase across the samples, in canonical phase order. *)
let mean_phases samples =
  let n = List.length samples in
  if n = 0 then []
  else
    List.filter_map
      (fun p ->
        let name = Verlib.Obs.Span.phase_name p in
        let total =
          List.fold_left
            (fun acc s ->
              match List.assoc_opt name s.ts_trace.P.t_phase_us with
              | Some v -> acc +. v
              | None -> acc)
            0. samples
        in
        if total > 0. then Some (name, total /. float_of_int n) else None)
      Verlib.Obs.Span.phases

let json_of_samples samples =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"trace-join-v1\",\"samples\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":%d,\"cmd\":\"%s\",\"rtt_us\":%.3f,\"total_us\":%.3f,\
            \"outcome\":\"%s\",\"fanout\":%d,\"phase_sum_us\":%.3f,\"phases\":{"
           s.ts_trace.P.t_id
           (Harness.Jsonlite.escape s.ts_cmd)
           s.ts_rtt_us s.ts_trace.P.t_total_us
           (Harness.Jsonlite.escape s.ts_trace.P.t_outcome)
           s.ts_trace.P.t_fanout (phase_sum s.ts_trace));
      List.iteri
        (fun j (name, v) ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "\"%s\":%.3f" (Harness.Jsonlite.escape name) v))
        s.ts_trace.P.t_phase_us;
      Buffer.add_string b "}}")
    samples;
  Buffer.add_string b "]}";
  Buffer.contents b

(* Report the join and enforce the nesting invariant: phases are
   exclusive and the span opens at request-byte arrival and closes with
   the reply rendered, so the phase sum can never exceed the
   client-measured RTT (5% slack absorbs µs rounding and the two
   processes' independent tick calibrations).  Coverage below 1.0 is the
   un-attributed wire + syscall time on either side of the span. *)
let report_trace_join ~trace_out ~exit_bad samples =
  match samples with
  | [] -> ()
  | _ ->
      let n = List.length samples in
      let covs =
        List.map
          (fun s ->
            if s.ts_rtt_us > 0. then phase_sum s.ts_trace /. s.ts_rtt_us
            else 1.)
          samples
      in
      let mean = List.fold_left ( +. ) 0. covs /. float_of_int n in
      let lo = List.fold_left min infinity covs
      and hi = List.fold_left max neg_infinity covs in
      let over =
        List.length (List.filter (fun c -> c > 1.05) covs)
      in
      let phases = mean_phases samples in
      Printf.printf
        "trace: %d sample(s), phase-sum/rtt mean=%.2f min=%.2f max=%.2f\n" n
        mean lo hi;
      Printf.printf "trace phases (mean us): %s\n"
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%.1f" k v) phases));
      if over > 0 then begin
        Printf.printf
          "trace: FAIL — %d sample(s) with phase sum > 1.05x client RTT\n"
          over;
        exit_bad := true
      end;
      (match trace_out with
       | None -> ()
       | Some path ->
           let oc = open_out path in
           output_string oc (json_of_samples samples);
           output_char oc '\n';
           close_out oc;
           Printf.eprintf "verlib_loadgen: %d trace sample(s) -> %s\n%!" n path)

(* Fetch + strictly validate the METRICS exposition; a server whose
   metrics plane emits unparsable text fails the run. *)
let check_metrics ~host ~port ~exit_bad = function
  | None -> ()
  | Some path -> (
      match fetch_metrics ~host ~port with
      | Error e ->
          Printf.eprintf "verlib_loadgen: METRICS unavailable: %s\n" e;
          exit_bad := true
      | Ok text ->
          (match Harness.Obs_report.parse_prometheus text with
           | Ok samples ->
               Printf.printf "metrics: %d sample(s) validated\n"
                 (List.length samples)
           | Error e ->
               Printf.printf "metrics: FAIL — malformed exposition: %s\n" e;
               exit_bad := true);
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          Printf.eprintf "verlib_loadgen: METRICS -> %s\n%!" path)

(* Fetch + validate the PROFILE snapshot; an unparsable profile JSON
   fails the run, an empty one is fine (server may not be sampling). *)
let check_profile ~host ~port ~exit_bad = function
  | None -> ()
  | Some path -> (
      match fetch_profile ~host ~port with
      | Error e ->
          Printf.eprintf "verlib_loadgen: PROFILE unavailable: %s\n" e;
          exit_bad := true
      | Ok text ->
          (match Harness.Jsonlite.parse_result text with
           | Ok _ -> Printf.printf "profile: snapshot validated\n"
           | Error e ->
               Printf.printf "profile: FAIL — malformed snapshot: %s\n" e;
               exit_bad := true);
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          Printf.eprintf "verlib_loadgen: PROFILE -> %s\n%!" path)

(* --- idle-connection pool (the c10k ballast) ------------------------------ *)

(* Raw fds on purpose: no retry transport, no reconnects — if the server
   drops one of these the final PING must see it.  A PING round-trip on a
   quiet connection is one write + one short read. *)
let idle_ping fd =
  try
    let msg = "PING\r\n" in
    let len = String.length msg in
    let rec wr off =
      if off < len then wr (off + Unix.write_substring fd msg off (len - off))
    in
    wr 0;
    let buf = Bytes.create 64 in
    let rec rd acc =
      if String.contains acc '\n' then acc
      else
        let n = Unix.read fd buf 0 (Bytes.length buf) in
        if n = 0 then acc else rd (acc ^ Bytes.sub_string buf 0 n)
    in
    let r = rd "" in
    String.length r >= 5 && String.sub r 0 5 = "+PONG"
  with _ -> false

let open_idle_pool ~host ~port n =
  if n <= 0 then [||]
  else begin
    let inet =
      try Unix.inet_addr_of_string host
      with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    let addr = Unix.ADDR_INET (inet, port) in
    let fds =
      Array.init n (fun i ->
          let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
          (try Unix.connect fd addr
           with e ->
             Unix.close fd;
             Printf.eprintf
               "verlib_loadgen: idle conn %d/%d failed to connect: %s\n" (i + 1)
               n (Printexc.to_string e);
             exit 1);
          fd)
    in
    (* Verify each connection was actually admitted (a -BUSY door answers
       the PING with an error and closes). *)
    Array.iteri
      (fun i fd ->
        if not (idle_ping fd) then begin
          Printf.eprintf
            "verlib_loadgen: idle conn %d/%d rejected at admission\n" (i + 1) n;
          exit 1
        end)
      fds;
    Printf.printf "idle pool: %d connection(s) held\n%!" n;
    fds
  end

let check_idle_pool ~exit_bad fds =
  if Array.length fds > 0 then begin
    let dead = ref 0 in
    Array.iter (fun fd -> if not (idle_ping fd) then incr dead) fds;
    Array.iter (fun fd -> try Unix.close fd with _ -> ()) fds;
    if !dead > 0 then begin
      Printf.printf "idle pool: FAIL — %d of %d held connection(s) died\n"
        !dead (Array.length fds);
      exit_bad := true
    end
    else
      Printf.printf "idle pool: %d connection(s) survived the run\n"
        (Array.length fds)
  end

(* --- driver --------------------------------------------------------------- *)

let run host port failover threads depth size updates query theta duration seed
    mix pairs no_fill ci stats_out trace_sample trace_out metrics_out
    profile_out rt_attempts faults idle_conns =
  install_signal_handlers ();
  failover_eps := failover;
  let rt_attempts = if rt_attempts > 0 then Some rt_attempts else None in
  let plan =
    match faults with
    | None -> None
    | Some spec -> (
        match Fault.find_plan spec with
        | Ok p -> Some p
        | Error e ->
            prerr_endline ("verlib_loadgen: bad --faults plan: " ^ e);
            exit 2)
  in
  let size = if ci then min size 1_000 else size in
  let duration = if ci then min duration 0.5 else duration in
  let threads = max 1 threads and depth = max 1 depth in
  let pairs = max 1 pairs in
  let exit_bad = ref false in
  let idle_pool = open_idle_pool ~host ~port idle_conns in
  let timed_run spawn_all =
    let ds = spawn_all () in
    let nds = List.length ds in
    (* wait until every domain is connected and parked at the barrier *)
    let t_wait = Unix.gettimeofday () +. 10. in
    while Atomic.get ready < nds && Unix.gettimeofday () < t_wait do
      Unix.sleepf 0.002
    done;
    (* Fault the measured window only: the fill/seed phases ran clean,
       and the audit/STATS phase below runs clean again. *)
    Option.iter Fault.arm plan;
    Atomic.set go true;
    let t0 = Unix.gettimeofday () in
    let deadline = t0 +. duration in
    while (not (Atomic.get stop)) && Unix.gettimeofday () < deadline do
      (try Unix.sleepf 0.02 with Unix.Unix_error (Unix.EINTR, _, _) -> ())
    done;
    Atomic.set stop true;
    List.iter Domain.join ds;
    if plan <> None then Fault.disarm ();
    Unix.gettimeofday () -. t0
  in
  match mix with
  | `Bank ->
      let nwriters = max 1 (threads / 2) in
      let nreaders = max 1 (threads - nwriters) in
      (* Seed every account before any writer or reader starts. *)
      (try
         let conn = C.connect ~host ~retries:50 ~port () in
         Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
         (* DEL-then-PUT so reseeding an already-populated server (a
            second bank run, or accounts left by an opgen fill) resets
            every balance to BASE instead of tripping on EXISTS. *)
         let cmds =
           List.init (2 * pairs) (fun j -> [ P.Del (j + 1); P.Put (j + 1, bank_base) ])
           |> List.concat
         in
         match C.pipeline conn cmds with
         | Ok rs ->
             List.iteri
               (fun i r ->
                 match r with
                 | P.Ok_ -> ()
                 | _ when i mod 2 = 0 -> () (* the DEL half: 0 or 1 *)
                 | r -> failwith ("bank seed reply: " ^ P.pp_reply r))
               rs
         | Error e -> failwith ("bank seed: " ^ e)
       with e ->
         prerr_endline ("verlib_loadgen: " ^ Printexc.to_string e);
         exit 1);
      let wstats = Array.init nwriters (fun _ -> new_bank_stats ()) in
      let rstats = Array.init nreaders (fun _ -> new_bank_stats ()) in
      let elapsed =
        timed_run (fun () ->
            List.init nwriters (fun w ->
                Domain.spawn
                  (bank_writer ~host ~port ~pairs ~nwriters ~wid:w wstats.(w)))
            @ List.init nreaders (fun r ->
                  Domain.spawn (bank_reader ~host ~port ~pairs ~rid:r rstats.(r))))
      in
      let sum f arr = Array.fold_left (fun acc s -> acc + f s) 0 arr in
      let transfers = sum (fun s -> s.transfers) wstats in
      let checks = sum (fun s -> s.checks) rstats in
      let skipped = sum (fun s -> s.skipped) rstats in
      let violations =
        sum (fun s -> s.violations) wstats + sum (fun s -> s.violations) rstats
      in
      let errors =
        sum (fun s -> s.berrors) wstats + sum (fun s -> s.berrors) rstats
      in
      let retries =
        sum (fun s -> s.bretries) wstats + sum (fun s -> s.bretries) rstats
      in
      let shed =
        sum (fun s -> s.bshed) wstats + sum (fun s -> s.bshed) rstats
      in
      let giveups =
        sum (fun s -> s.giveups) wstats + sum (fun s -> s.giveups) rstats
      in
      Array.iter
        (fun s -> Option.iter (Printf.eprintf "  detail: %s\n") s.detail)
        (Array.append wstats rstats);
      let audit = bank_final_audit ~host ~port ~pairs in
      Printf.printf
        "bank: %d writer(s) %d reader(s) %d pair(s), %.2fs\n\
         transfers=%d checks=%d shed_skips=%d violations=%d errors=%d\n"
        nwriters nreaders pairs elapsed transfers checks skipped violations
        errors;
      Printf.printf "wire: retries=%d shed=%d giveups=%d reconnects=%d\n"
        retries shed giveups
        (C.reconnect_total ());
      let stats_raw =
        match fetch_stats ~host ~port with Ok raw -> Some raw | Error _ -> None
      in
      (* The server-side transaction counters (exported as gauges):
         aborts and validation retries are the OCC contention signal,
         replays count EXEC tokens answered from the idempotency
         cache — each one a double-commit that tokens prevented. *)
      (match stats_raw with
       | Some raw ->
           Printf.printf
             "txn: commits=%d aborts=%d validation_retries=%d replays=%d\n"
             (gauge_of_stats raw "txn_commits")
             (gauge_of_stats raw "txn_aborts")
             (gauge_of_stats raw "txn_validation_retries")
             (gauge_of_stats raw "txn_replays")
       | None -> ());
      (match audit with
       | Ok total -> Printf.printf "final audit: OK (total %d)\n" total
       | Error e ->
           print_endline ("final audit: FAIL — " ^ e);
           exit_bad := true);
      check_metrics ~host ~port ~exit_bad metrics_out;
      check_profile ~host ~port ~exit_bad profile_out;
      if checks = 0 then begin
        print_endline "bank: FAIL — no atomic checks completed";
        exit_bad := true
      end;
      if giveups > 0 then begin
        Printf.printf
          "bank: FAIL — %d give-up(s); transactional retries are \
           exactly-once and budgeted to never exhaust\n"
          giveups;
        exit_bad := true
      end;
      if violations > 0 || errors > 0 then exit_bad := true;
      check_idle_pool ~exit_bad idle_pool;
      if !exit_bad then exit 1
  | `Opgen -> (
      match parse_query query with
      | Error (`Msg m) ->
          prerr_endline m;
          exit 2
      | Ok q ->
          let mk_gen wid =
            Workload.Opgen.create ~theta ~seed:(seed + wid) ~n:size
              ~update_percent:updates ~query:q ()
          in
          if not no_fill then begin
            try
              let conn = C.connect ~host ~retries:50 ~port () in
              Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
              fill_over_wire conn (mk_gen 0) (Workload.Splitmix.create seed)
            with e ->
              prerr_endline ("verlib_loadgen: " ^ Printexc.to_string e);
              exit 1
          end;
          let stats = Array.init threads (fun _ -> new_wstats ()) in
          let elapsed =
            timed_run (fun () ->
                List.init threads (fun w ->
                    Domain.spawn
                      (opgen_worker ~host ~port ~depth ~gen_of:mk_gen
                         ~trace_sample ~rt_attempts ~wid:w stats.(w))))
          in
          let total_ops =
            Array.fold_left
              (fun acc s -> acc + Array.fold_left ( + ) 0 s.ops)
              0 stats
          in
          let errors = Array.fold_left (fun acc s -> acc + s.errors) 0 stats in
          let retries =
            Array.fold_left (fun acc s -> acc + s.retries) 0 stats
          in
          let shed = Array.fold_left (fun acc s -> acc + s.shed) 0 stats in
          Array.iter
            (fun s ->
              Option.iter (Printf.eprintf "  first error: %s\n") s.first_error)
            stats;
          let mops = float_of_int total_ops /. elapsed /. 1e6 in
          let qkind =
            match q with
            | Workload.Opgen.Finds -> K_find
            | Workload.Opgen.Ranges _ -> K_range
            | Workload.Opgen.Multifinds _ -> K_multifind
          in
          let qp50, qp99 = us_percentiles qkind in
          Printf.printf
            "served: %d domain(s) x depth %d, %.2fs — %.3f Mop/s (%d ops, %d \
             errors)\n"
            threads depth elapsed mops total_ops errors;
          Printf.printf
            "%s batch rtt: p50 %.1fus p99 %.1fus (batches of %d, first-command \
             attribution)\n"
            (kind_name qkind) qp50 qp99 depth;
          Printf.printf "wire: retries=%d shed=%d reconnects=%d\n" retries shed
            (C.reconnect_total ());
          let stats_raw =
            match fetch_stats ~host ~port with
            | Error e ->
                Printf.eprintf "verlib_loadgen: STATS unavailable: %s\n" e;
                None
            | Ok raw ->
                Option.iter
                  (fun path ->
                    let oc = open_out path in
                    output_string oc raw;
                    output_char oc '\n';
                    close_out oc;
                    Printf.eprintf "verlib_loadgen: STATS -> %s\n%!" path)
                  stats_out;
                Some raw
          in
          let census =
            match stats_raw with
            | None -> None
            | Some raw -> (
                match census_of_stats raw with
                | Ok c -> c
                | Error e ->
                    Printf.eprintf "verlib_loadgen: %s\n" e;
                    exit_bad := true;
                    None)
          in
          (match census with
           | Some c ->
               Printf.printf
                 "server census: chain_max=%d chain_p99=%d indirect=%d \
                  reclaimable=%d violations=%d\n"
                 c.sc_chain_max c.sc_chain_p99 c.sc_indirect c.sc_reclaimable
                 c.sc_violations;
               if c.sc_violations > 0 then exit_bad := true
           | None -> ());
          let samples =
            Array.fold_left (fun acc s -> s.samples @ acc) [] stats
          in
          report_trace_join ~trace_out ~exit_bad samples;
          check_metrics ~host ~port ~exit_bad metrics_out;
          check_profile ~host ~port ~exit_bad profile_out;
          if errors > 0 then exit_bad := true;
          if total_ops = 0 then begin
            print_endline "served: FAIL — no operations completed";
            exit_bad := true
          end;
          check_idle_pool ~exit_bad idle_pool;
          if !exit_bad then exit 1)

let cmd =
  let doc = "closed-loop load generator for verlib-serve" in
  Cmd.v
    (Cmd.info "verlib_loadgen" ~doc)
    Term.(
      const run $ host $ port $ failover_to $ threads $ depth $ size $ updates
      $ query $ theta $ duration $ seed $ mix $ pairs $ no_fill $ ci
      $ stats_out $ trace_sample $ trace_out $ metrics_out $ profile_out
      $ rt_attempts $ faults $ idle_conns)

let () = exit (Cmd.eval cmd)
