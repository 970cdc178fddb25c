(* The served bank workload (bank.mli): seeding, writers, readers, the
   start/stop barrier, the summed verdict and the quiescent audit. *)

module P = Protocol
module C = Client

type kind = Plain | Txn

let base = 1_000_000

let accounts ~pairs = Array.init (2 * pairs) (fun j -> j + 1)

(* --- seeding and the quiescent audit ------------------------------------ *)

let wire conn c =
  match C.request conn c with
  | Ok r -> r
  | Error e -> P.Err e
  | exception Unix.Unix_error (err, _, _) -> P.Err (Unix.error_message err)

let seed exec ~pairs =
  Array.iter
    (fun k ->
      (match exec (P.Del k) with
       | P.Int _ -> ()
       | r -> failwith ("bank seed: DEL " ^ P.pp_reply r));
      match exec (P.Put (k, base)) with
      | P.Ok_ -> ()
      | r -> failwith ("bank seed: PUT " ^ P.pp_reply r))
    (accounts ~pairs)

let audit exec ~pairs =
  let want = 2 * base * pairs in
  match exec (P.Mget (accounts ~pairs)) with
  | P.Arr items ->
      let missing, total =
        List.fold_left
          (fun (m, t) -> function P.Int v -> (m, t + v) | _ -> (m + 1, t))
          (0, 0) items
      in
      if missing > 0 then Error (Printf.sprintf "%d account(s) missing" missing)
      else if total <> want then
        Error
          (Printf.sprintf "total %d, expected %d (money %s)" total want
             (if total < want then "destroyed" else "created"))
      else Ok total
  | r -> Error ("audit reply: " ^ P.pp_reply r)

(* --- clients ------------------------------------------------------------ *)

type stats = {
  mutable transfers : int;
  mutable checks : int;
  mutable skipped : int;
  mutable violations : int;
  mutable errors : int;
  mutable giveups : int;
  mutable retries : int;
  mutable busy : int;
  mutable detail : string option;
}

let new_stats () =
  { transfers = 0; checks = 0; skipped = 0; violations = 0; errors = 0;
    giveups = 0; retries = 0; busy = 0; detail = None }

type gate = {
  ready : int Atomic.t;
  released : bool Atomic.t;
  stop : bool Atomic.t;
}

let gate_on stop = { ready = Atomic.make 0; released = Atomic.make false; stop }

let gate () = gate_on (Atomic.make false)

let go g = Atomic.set g.released true

let halt g = Atomic.set g.stop true

let park g =
  Atomic.incr g.ready;
  while not (Atomic.get g.released || Atomic.get g.stop) do
    Domain.cpu_relax ()
  done

let first_detail st msg = if st.detail = None then st.detail <- Some msg

let violation st msg =
  st.violations <- st.violations + 1;
  first_detail st msg

(* Any error ends the run: the verdict fails on it anyway. *)
let error g st msg =
  st.errors <- st.errors + 1;
  first_detail st msg;
  halt g

let give_up g st msg =
  st.giveups <- st.giveups + 1;
  error g st (msg ^ " gave up")

let replies rs = String.concat " " (List.map P.pp_reply rs)

(* Plain clients run against crash-stopped server loops: a short read
   timeout and a deep retry budget re-dial past a parked loop. *)
let with_client kind g ?host ?endpoints ~port ~seed st f =
  let rt =
    match kind with
    | Plain ->
        C.connect_rt ?host ?endpoints ~read_timeout:0.5 ~max_attempts:30 ~seed
          ~port ()
    | Txn -> C.connect_rt ?host ?endpoints ~seed ~port ()
  in
  (try f rt with e -> error g st (Printexc.to_string e));
  let r, b = C.rt_stats rt in
  st.retries <- r;
  st.busy <- b;
  C.rt_close rt

(* One transfer; true once it landed.  A plain replay after an
   ambiguous failure converges because the writer owns both accounts:
   DEL;PUT reaches the target balance from any state a partial attempt
   left.  A transactional one commits exactly once under its token. *)
let transfer kind g st rt cmds =
  match kind with
  | Txn -> (
      match C.rt_txn rt cmds with
      | Ok (_, [ P.Int 1; P.Ok_; P.Int 1; P.Ok_ ]) -> true
      | Ok (_, rs) ->
          error g st ("transfer steps: " ^ replies rs);
          false
      | Error e ->
          give_up g st ("transfer: " ^ e);
          false)
  | Plain ->
      let shed = List.exists (function P.Busy _ -> true | _ -> false) in
      let rec attempt tries =
        match C.rt_pipeline rt cmds with
        | Ok [ _; P.Ok_; _; P.Ok_ ] -> true
        | Ok rs when shed rs && tries < 10_000 ->
            Unix.sleepf 0.005;
            attempt (tries + 1)
        | Ok rs ->
            error g st ("transfer replies: " ^ replies rs);
            false
        | Error e ->
            give_up g st ("transfer: " ^ e);
            false
      in
      attempt 0

let writer kind g ?host ?endpoints ~port ~pairs ~nwriters ~wid st =
  let seed = 0xba9c + (wid * 104729) in
  with_client kind g ?host ?endpoints ~port ~seed st @@ fun rt ->
  let owned =
    List.init pairs Fun.id
    |> List.filter (fun i -> i mod nwriters = wid)
    |> Array.of_list
  in
  (* The shadow of each owned pair's [a] balance; [b] holds the rest of
     the pair's [2 * base]. *)
  let va = Array.make (Array.length owned) base in
  let rng = Workload.Splitmix.create seed in
  park g;
  while (not (Atomic.get g.stop)) && Array.length owned > 0 do
    let j = Workload.Splitmix.below rng (Array.length owned) in
    let a = (2 * owned.(j)) + 1 and b = (2 * owned.(j)) + 2 in
    let na = va.(j) - 1 in
    let nb = (2 * base) - na in
    let cmds = [ P.Del a; P.Put (a, na); P.Del b; P.Put (b, nb) ] in
    if transfer kind g st rt cmds then begin
      va.(j) <- na;
      st.transfers <- st.transfers + 1
    end
  done

type way = Txn_read | Mget | Range

let via = function Txn_read -> "TXN" | Mget -> "MGET" | Range -> "RANGE"

(* The pair's sum from an MGET ([x; y]) or RANGE (flat [k; v; ...])
   reply; [None] when an account is absent. *)
let pair_sum way a b r =
  let bad () = Error (via way ^ " reply: " ^ P.pp_reply r) in
  match (way, r) with
  | Mget, P.Arr [ P.Int x; P.Int y ] -> Ok (Some (x + y))
  | Mget, P.Arr [ _; _ ] -> Ok None
  | Range, P.Arr items -> (
      let rec kvs = function
        | P.Int k :: P.Int v :: rest -> Option.map (List.cons (k, v)) (kvs rest)
        | [] -> Some []
        | _ -> None
      in
      match kvs items with
      | None -> bad ()
      | Some kvs -> (
          match (List.assoc_opt a kvs, List.assoc_opt b kvs) with
          | Some x, Some y -> Ok (Some (x + y))
          | _ -> Ok None))
  | _ -> bad ()

let check kind st way a b = function
  | None when kind = Plain -> st.skipped <- st.skipped + 1
  | None ->
      violation st
        (Printf.sprintf
           "%s pair (%d,%d): account absent — transfer observed mid-flight"
           (via way) a b)
  | Some sum ->
      st.checks <- st.checks + 1;
      let whole = 2 * base in
      if sum <> whole && not (kind = Plain && sum = whole - 1) then
        violation st
          (Printf.sprintf "%s pair (%d,%d): sum %d, want %d%s — non-atomic \
                           multi-read"
             (via way) a b sum whole
             (if kind = Plain then " or " ^ string_of_int (whole - 1) else ""))

let reader kind g ?host ?endpoints ~port ~pairs ~rid st =
  let seed = 0x5ead + (rid * 65537) in
  with_client kind g ?host ?endpoints ~port ~seed st @@ fun rt ->
  let ranges =
    match C.rt_request rt (P.Range (1, 2)) with
    | Ok (P.Arr _) -> true
    | _ -> false
  in
  let ways =
    Array.of_list
      ((if kind = Txn then [ Txn_read ] else [])
      @ (Mget :: (if ranges then [ Range ] else [])))
  in
  let rng = Workload.Splitmix.create seed in
  park g;
  while not (Atomic.get g.stop) do
    let i = Workload.Splitmix.below rng pairs in
    let a = (2 * i) + 1 and b = (2 * i) + 2 in
    match ways.(Workload.Splitmix.below rng (Array.length ways)) with
    | Txn_read -> (
        match C.rt_txn rt [ P.Get a; P.Get b ] with
        | Ok (_, [ P.Int x; P.Int y ]) ->
            check kind st Txn_read a b (Some (x + y))
        | Ok _ -> check kind st Txn_read a b None
        | Error e -> give_up g st ("TXN read: " ^ e))
    | (Mget | Range) as way -> (
        let cmd = if way = Range then P.Range (a, b) else P.Mget [| a; b |] in
        match C.rt_request rt cmd with
        | Ok (P.Busy _) -> st.skipped <- st.skipped + 1
        | Ok r -> (
            match pair_sum way a b r with
            | Ok sum -> check kind st way a b sum
            | Error e -> error g st e)
        | Error e -> give_up g st (via way ^ ": " ^ e))
  done

(* --- a timed run -------------------------------------------------------- *)

type verdict = {
  kind : kind;
  pairs : int;
  writers : int;
  readers : int;
  elapsed : float;
  total : stats;
  details : string list;
}

let sum_stats all =
  let t = new_stats () in
  Array.iter
    (fun s ->
      t.transfers <- t.transfers + s.transfers;
      t.checks <- t.checks + s.checks;
      t.skipped <- t.skipped + s.skipped;
      t.violations <- t.violations + s.violations;
      t.errors <- t.errors + s.errors;
      t.giveups <- t.giveups + s.giveups;
      t.retries <- t.retries + s.retries;
      t.busy <- t.busy + s.busy)
    all;
  t

let run kind ?host ?endpoints ?(stop = Atomic.make false) ?(on_go = ignore)
    ?(tick = ignore) ~port ~pairs ~threads ~duration () =
  let g = gate_on stop in
  let nw = max 1 (threads / 2) in
  let nr = max 1 (threads - nw) in
  let ws = Array.init nw (fun _ -> new_stats ()) in
  let rs = Array.init nr (fun _ -> new_stats ()) in
  let ds =
    List.init nw (fun w ->
        Domain.spawn (fun () ->
            writer kind g ?host ?endpoints ~port ~pairs ~nwriters:nw ~wid:w
              ws.(w)))
    @ List.init nr (fun r ->
          Domain.spawn (fun () ->
              reader kind g ?host ?endpoints ~port ~pairs ~rid:r rs.(r)))
  in
  let t0 = ref (Unix.gettimeofday ()) in
  Fun.protect
    ~finally:(fun () ->
      halt g;
      List.iter Domain.join ds)
    (fun () ->
      let t_wait = Unix.gettimeofday () +. 10. in
      while Atomic.get g.ready < nw + nr && Unix.gettimeofday () < t_wait do
        Unix.sleepf 0.002
      done;
      on_go ();
      go g;
      t0 := Unix.gettimeofday ();
      let deadline = !t0 +. duration in
      while (not (Atomic.get g.stop)) && Unix.gettimeofday () < deadline do
        tick ();
        try Unix.sleepf 0.01 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done);
  let all = Array.append ws rs in
  {
    kind;
    pairs;
    writers = nw;
    readers = nr;
    elapsed = Unix.gettimeofday () -. !t0;
    total = sum_stats all;
    details = List.filter_map (fun s -> s.detail) (Array.to_list all);
  }

let failures v =
  let t = v.total in
  List.filter_map
    (fun (bad, msg) -> if bad then Some msg else None)
    [
      (t.transfers = 0, "no transfers completed (no progress)");
      (t.checks = 0, "no atomic snapshot checks completed");
      ( t.violations > 0,
        Printf.sprintf "%d snapshot invariant violation(s)" t.violations );
      ( t.errors > 0,
        Printf.sprintf "%d client error(s) survived the retry layer" t.errors );
      ( t.giveups > 0,
        Printf.sprintf "%d give-up(s) past the retry budget" t.giveups );
    ]

let summary v =
  let t = v.total in
  Printf.sprintf
    "bank(%s): %d writer(s) %d reader(s) %d pair(s), %.2fs\n\
     transfers=%d checks=%d skipped=%d violations=%d errors=%d giveups=%d \
     retries=%d busy=%d reconnects=%d"
    (match v.kind with Plain -> "plain" | Txn -> "txn")
    v.writers v.readers v.pairs v.elapsed t.transfers t.checks t.skipped
    t.violations t.errors t.giveups t.retries t.busy (C.reconnect_total ())
