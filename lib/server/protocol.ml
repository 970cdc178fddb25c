type command =
  | Ping
  | Get of int
  | Put of int * int
  | Del of int
  | Mget of int array
  | Range of int * int
  | Rangecount of int * int
  | Scan of int
  | Size
  | Stats
  | Metrics
  | Profile of int
      (** profiler snapshot; the arg is a window in ms (0 = cumulative) *)
  | Multi
  | Exec of int
      (** commit the queued transaction; the arg is an idempotency token
          (0 = none) *)
  | Discard
  | Subscribe of int * int * int
      (** stream committed change records touching [lo, hi], starting
          after log seq [from] (0 = from now) — the connection becomes a
          push stream (docs/REPLICATION.md) *)
  | Watch of int * int * int
      (** one-shot: block until a committed change touches [lo, hi] (or
          the timeout in ms elapses; 0 = server default) *)
  | Sync
      (** snapshot handshake: one frame carrying (seq, stamp) and every
          binding — the replica bootstrap *)
  | Replstats
  | Promote  (** replica -> primary: stop applying, accept writes *)
  | Ack of int * int
      (** subscriber cursor advance: (seq, stamp) applied downstream *)
  | Quit

type reply =
  | Ok_
  | Pong
  | Exists
  | Err of string
  | Busy of int
  | Int of int
  | Nil
  | Bulk of string
  | Arr of reply list
  | Queued
  | Aborted of int
      (** transaction validation kept failing; the arg is the attempt
          count spent server-side *)

(* --- command classification ---------------------------------------------- *)

(* Safe to re-issue after an ambiguous failure.  Reads trivially; PUT and
   DEL because re-applying the same binding/removal converges to the same
   map state (effect idempotence — see docs/RESILIENCE.md for the caveat
   about interleaved writers to the same key).  QUIT is excluded: blindly
   re-sending it after a reconnect would close the fresh connection. *)
let idempotent = function
  | Ping | Get _ | Put _ | Del _ | Mget _ | Range _ | Rangecount _ | Scan _
  | Size | Stats | Metrics | Profile _ | Multi | Discard
  (* Replication verbs: SUBSCRIBE/SYNC re-issue from the client's
     cursor, ACK is a monotone cursor advance, PROMOTE of a primary is
     a no-op — all safe to blind-resend. *)
  | Subscribe _ | Watch _ | Sync | Replstats | Promote | Ack _ ->
      true
  | Exec t ->
      (* With a token the commit is exactly-once server-side, so blind
         re-send is safe; without one a replayed EXEC could commit
         twice. *)
      t > 0
  | Quit -> false

(* Commands whose execution takes a snapshot and walks many versioned
   pointers — the expensive class, shed first under overload.  EXEC
   belongs here: a transaction commit validates a whole read set and
   may retry. *)
let snapshot_heavy = function
  | Mget _ | Range _ | Rangecount _ | Scan _ | Exec _ | Sync | Watch _ -> true
  | Ping | Get _ | Put _ | Del _ | Size | Stats | Metrics | Profile _ | Multi
  | Discard | Subscribe _ | Replstats | Promote | Ack _ | Quit ->
      false

(* --- command parsing ---------------------------------------------------- *)

(* The parser reads the line in place: tokens are [start, stop) ranges
   of the line, separated by runs of single spaces, and a trailing '\r'
   is not part of the line.  Nothing is copied on the success path, so
   parsing a point command allocates only the command it returns. *)

let line_end line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then n - 1 else n

let rec skip_spaces line i stop =
  if i < stop && line.[i] = ' ' then skip_spaces line (i + 1) stop else i

let rec token_end line i stop =
  if i < stop && line.[i] <> ' ' then token_end line (i + 1) stop else i

(* Start of the token after the one starting at [i]. *)
let next_token line i stop = skip_spaces line (token_end line i stop) stop

let rec count_tokens line i stop acc =
  if i >= stop then acc else count_tokens line (next_token line i stop) stop (acc + 1)

(* Wire integers are an optional sign and decimal digits, within the
   native int range.  The value is accumulated as a negative number so
   [min_int] parses too.  A bad integer raises instead of returning an
   option, so a parsed one is never boxed. *)
exception Not_decimal

let rec decimal_digits line i stop acc =
  if i >= stop then acc
  else
    let c = line.[i] in
    if c < '0' || c > '9' then raise Not_decimal
    else
      let d = Char.code c - Char.code '0' in
      if acc < (min_int + d) / 10 then raise Not_decimal
      else decimal_digits line (i + 1) stop ((acc * 10) - d)

let decimal line i stop =
  let neg = line.[i] = '-' in
  let first = if neg || line.[i] = '+' then i + 1 else i in
  if first >= stop then raise Not_decimal;
  let v = decimal_digits line first stop 0 in
  if neg then v else if v = min_int then raise Not_decimal else -v

(* A malformed command; the message is the error reply. *)
exception Bad_command of string

let fail msg = raise (Bad_command msg)

(* The integer token starting at [i]; [name] labels the error. *)
let int_token name line i stop =
  let e = token_end line i stop in
  try decimal line i e
  with Not_decimal ->
    fail (Printf.sprintf "%s: not an integer %S" name (String.sub line i (e - i)))

type verb =
  | V_ping | V_get | V_put | V_del | V_mget | V_range | V_rangecount
  | V_scan | V_size | V_stats | V_metrics | V_profile | V_multi | V_exec
  | V_discard | V_subscribe | V_watch | V_sync | V_replstats | V_promote
  | V_ack | V_quit | V_unknown

(* The verb table: every verb's wire name, in [verb] declaration order,
   so a verb's row is its constructor's index. *)
let verbs =
  [| (V_ping, "PING"); (V_get, "GET"); (V_put, "PUT"); (V_del, "DEL");
     (V_mget, "MGET"); (V_range, "RANGE"); (V_rangecount, "RANGECOUNT");
     (V_scan, "SCAN"); (V_size, "SIZE"); (V_stats, "STATS");
     (V_metrics, "METRICS"); (V_profile, "PROFILE"); (V_multi, "MULTI");
     (V_exec, "EXEC"); (V_discard, "DISCARD"); (V_subscribe, "SUBSCRIBE");
     (V_watch, "WATCH"); (V_sync, "SYNC"); (V_replstats, "REPLSTATS");
     (V_promote, "PROMOTE"); (V_ack, "ACK"); (V_quit, "QUIT") |]

let verb_count = Array.length verbs

(* A constant constructor is represented by its declaration index. *)
let row_of_verb (v : verb) : int = Obj.magic v

let () = Array.iteri (fun i (v, _) -> assert (row_of_verb v = i)) verbs

let verb_name i = snd verbs.(i)

let verb_of_command = function
  | Ping -> V_ping
  | Get _ -> V_get
  | Put _ -> V_put
  | Del _ -> V_del
  | Mget _ -> V_mget
  | Range _ -> V_range
  | Rangecount _ -> V_rangecount
  | Scan _ -> V_scan
  | Size -> V_size
  | Stats -> V_stats
  | Metrics -> V_metrics
  | Profile _ -> V_profile
  | Multi -> V_multi
  | Exec _ -> V_exec
  | Discard -> V_discard
  | Subscribe _ -> V_subscribe
  | Watch _ -> V_watch
  | Sync -> V_sync
  | Replstats -> V_replstats
  | Promote -> V_promote
  | Ack _ -> V_ack
  | Quit -> V_quit

let verb_index c = row_of_verb (verb_of_command c)

(* Whether the token [start, stop) is [lit], ignoring ASCII case. *)
let rec same_from line start lit j =
  j >= String.length lit
  || (Char.uppercase_ascii line.[start + j] = lit.[j] && same_from line start lit (j + 1))

let token_is line start stop lit =
  stop - start = String.length lit && same_from line start lit 0

let rec find_verb line start stop i =
  if i >= verb_count then V_unknown
  else
    let v, name = verbs.(i) in
    if token_is line start stop name then v else find_verb line start stop (i + 1)

let verb_of_token line start stop = find_verb line start stop 0

let mget_keys line i stop n =
  let ks = Array.make n 0 in
  let rec fill j i =
    if j < n then begin
      ks.(j) <- int_token "key" line i stop;
      fill (j + 1) (next_token line i stop)
    end
  in
  fill 0 i;
  ks

(* Parse the command whose verb starts at [i] (a token start, or [stop]
   for an empty command). *)
let parse_command_at line i stop =
  if i >= stop then fail "empty command"
  else
    let ve = token_end line i stop in
    let a = skip_spaces line ve stop in
    let b = next_token line a stop in
    let c = next_token line b stop in
    match (verb_of_token line i ve, count_tokens line a stop 0) with
    | V_ping, 0 -> Ping
    | V_get, 1 -> Get (int_token "key" line a stop)
    | V_put, 2 ->
        let k = int_token "key" line a stop in
        Put (k, int_token "value" line b stop)
    | V_del, 1 -> Del (int_token "key" line a stop)
    | V_mget, 0 -> fail "MGET needs at least one key"
    | V_mget, n -> Mget (mget_keys line a stop n)
    | V_range, 2 ->
        let lo = int_token "lo" line a stop in
        Range (lo, int_token "hi" line b stop)
    | V_rangecount, 2 ->
        let lo = int_token "lo" line a stop in
        Rangecount (lo, int_token "hi" line b stop)
    | V_scan, 0 -> Scan 0
    | V_scan, 1 -> Scan (max 0 (int_token "limit" line a stop))
    | V_size, 0 -> Size
    | V_stats, 0 -> Stats
    | V_metrics, 0 -> Metrics
    | V_profile, 0 -> Profile 0
    | V_profile, 1 -> Profile (max 0 (int_token "window" line a stop))
    | V_multi, 0 -> Multi
    | V_exec, 0 -> Exec 0
    | V_exec, 1 ->
        let t = int_token "token" line a stop in
        if t > 0 then Exec t else fail "EXEC: token must be > 0"
    | V_discard, 0 -> Discard
    | V_subscribe, 2 ->
        let lo = int_token "lo" line a stop in
        Subscribe (lo, int_token "hi" line b stop, 0)
    | V_subscribe, 3 ->
        let lo = int_token "lo" line a stop in
        let hi = int_token "hi" line b stop in
        let seq = int_token "seq" line c stop in
        if seq >= 0 then Subscribe (lo, hi, seq)
        else fail "SUBSCRIBE: seq must be >= 0"
    | V_watch, 2 ->
        let lo = int_token "lo" line a stop in
        Watch (lo, int_token "hi" line b stop, 0)
    | V_watch, 3 ->
        let lo = int_token "lo" line a stop in
        let hi = int_token "hi" line b stop in
        Watch (lo, hi, max 0 (int_token "timeout" line c stop))
    | V_sync, 0 -> Sync
    | V_replstats, 0 -> Replstats
    | V_promote, 0 -> Promote
    | V_ack, 2 ->
        let seq = int_token "seq" line a stop in
        let stamp = int_token "stamp" line b stop in
        if seq >= 0 && stamp >= 0 then Ack (seq, stamp)
        else fail "ACK: seq and stamp must be >= 0"
    | V_quit, 0 -> Quit
    | V_unknown, _ ->
        (* Cap the echoed verb so garbage can't bloat the error. *)
        let v = String.uppercase_ascii (String.sub line i (ve - i)) in
        let v = if String.length v > 32 then String.sub v 0 32 ^ "..." else v in
        fail (Printf.sprintf "unknown command %S" v)
    | v, _ ->
        fail
          (Printf.sprintf "wrong number of arguments for %s"
             (verb_name (row_of_verb v)))

(* Total by construction; the catch-all is belt-and-braces so a parser
   bug can never take a connection (or the server) down. *)
let parse_command line =
  try
    let stop = line_end line in
    Ok (parse_command_at line (skip_spaces line 0 stop) stop)
  with
  | Bad_command msg -> Error msg
  | _ -> Error "unparsable command"

(* Trace-context propagation (docs/PROTOCOL.md): any command may be
   prefixed [TRACE <id>], asking the server to record a request span and
   answer with an [@]-framed phase decomposition ahead of the data
   reply.  The id is an opaque positive integer chosen by the client
   (the loadgen uses it to join client RTT with the server-side span);
   [TRACE] composes with every verb and is invisible to classification —
   tracing a command never changes its idempotence or shedding class. *)
let parse_command_traced line =
  try
    let stop = line_end line in
    let i = skip_spaces line 0 stop in
    let ve = token_end line i stop in
    let id_at = skip_spaces line ve stop in
    let tid, cmd_at =
      if id_at < stop && token_is line i ve "TRACE" then begin
        let id_end = token_end line id_at stop in
        match decimal line id_at id_end with
        | id when id > 0 -> (Some id, skip_spaces line id_end stop)
        | _ | (exception Not_decimal) ->
            fail
              (Printf.sprintf "TRACE: bad trace id %S"
                 (String.sub line id_at (id_end - id_at)))
      end
      else (None, i)
    in
    Ok (tid, parse_command_at line cmd_at stop)
  with
  | Bad_command msg -> Error msg
  | _ -> Error "unparsable command"

(* --- command rendering --------------------------------------------------- *)

(* Decimal digits of [n <= 0] without the sign: worked on the negative
   side so [min_int] needs no special case. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

(* [string_of_int] straight into [buf], without the intermediate string. *)
let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

let render_command ?trace_id buf c =
  (match trace_id with
   | Some id when id > 0 ->
       Buffer.add_string buf "TRACE ";
       add_int buf id;
       Buffer.add_char buf ' '
   | Some _ | None -> ());
  Buffer.add_string buf (verb_name (verb_index c));
  let arg n =
    Buffer.add_char buf ' ';
    add_int buf n
  in
  (match c with
   | Ping | Size | Stats | Metrics | Multi | Discard | Sync | Replstats
   | Promote | Quit ->
       ()
   | Get k | Del k | Scan k -> arg k
   | Put (a, b) | Range (a, b) | Rangecount (a, b) | Ack (a, b) ->
       arg a;
       arg b
   | Mget ks -> Array.iter arg ks
   | Profile n | Exec n -> if n <> 0 then arg n
   | Subscribe (lo, hi, n) | Watch (lo, hi, n) ->
       arg lo;
       arg hi;
       if n <> 0 then arg n);
  Buffer.add_string buf "\r\n"

let command_line ?trace_id c =
  let b = Buffer.create 32 in
  render_command ?trace_id b c;
  Buffer.contents b

(* --- reply rendering ----------------------------------------------------- *)

(* Error messages travel on a single line: control bytes would break
   framing, so they are mapped to spaces. *)
let sanitize msg =
  String.map (fun ch -> if Char.code ch < 0x20 then ' ' else ch) msg

(* [prefix], an integer and CRLF: the shape of every counted header. *)
let add_int_line buf prefix n =
  Buffer.add_string buf prefix;
  add_int buf n;
  Buffer.add_string buf "\r\n"

let rec render_reply buf r =
  match r with
  | Ok_ -> Buffer.add_string buf "+OK\r\n"
  | Pong -> Buffer.add_string buf "+PONG\r\n"
  | Exists -> Buffer.add_string buf "+EXISTS\r\n"
  | Err msg ->
      Buffer.add_string buf "-ERR ";
      Buffer.add_string buf (sanitize msg);
      Buffer.add_string buf "\r\n"
  | Busy ms -> add_int_line buf "-BUSY " (max 0 ms)
  | Int n -> add_int_line buf ":" n
  | Nil -> Buffer.add_string buf "$-1\r\n"
  | Bulk s ->
      add_int_line buf "$" (String.length s);
      Buffer.add_string buf s;
      Buffer.add_string buf "\r\n"
  | Arr rs ->
      add_int_line buf "*" (List.length rs);
      render_replies buf rs
  | Queued -> Buffer.add_string buf "+QUEUED\r\n"
  | Aborted n -> add_int_line buf "-ABORT " (max 0 n)

and render_replies buf = function
  | [] -> ()
  | r :: rs ->
      render_reply buf r;
      render_replies buf rs

let rec reply_equal a b =
  match (a, b) with
  | Ok_, Ok_ | Pong, Pong | Exists, Exists | Nil, Nil | Queued, Queued -> true
  | Err x, Err y | Bulk x, Bulk y -> String.equal x y
  | Int x, Int y | Busy x, Busy y | Aborted x, Aborted y -> x = y
  | Arr x, Arr y ->
      List.length x = List.length y && List.for_all2 reply_equal x y
  | _ -> false

let rec pp_reply = function
  | Ok_ -> "OK"
  | Pong -> "PONG"
  | Exists -> "EXISTS"
  | Err m -> "ERR " ^ m
  | Busy ms -> Printf.sprintf "BUSY %d" ms
  | Int n -> string_of_int n
  | Nil -> "nil"
  | Bulk s ->
      if String.length s > 40 then Printf.sprintf "bulk[%d]" (String.length s)
      else Printf.sprintf "bulk(%s)" s
  | Arr rs -> "[" ^ String.concat "; " (List.map pp_reply rs) ^ "]"
  | Queued -> "QUEUED"
  | Aborted n -> Printf.sprintf "ABORT %d" n

(* --- change-record frames -------------------------------------------------- *)

(* A streamed change record rides the existing reply framing — an array
   [seq; stamp; k1; v1-or-nil; ...] — so the incremental {!Reader}
   handles split delivery of streamed records for free.  A deleted key's
   value slot is the nil bulk. *)

let reply_of_record (r : Repl.record) =
  Arr
    (Int r.r_seq :: Int r.r_stamp
    :: List.concat_map
         (fun (k, v) ->
           [ Int k; (match v with Some v -> Int v | None -> Nil) ])
         r.r_writes)

let record_of_reply = function
  | Arr (Int seq :: Int stamp :: rest) when seq > 0 ->
      let rec pairs acc = function
        | [] -> Ok (List.rev acc)
        | Int k :: Int v :: tl -> pairs ((k, Some v) :: acc) tl
        | Int k :: Nil :: tl -> pairs ((k, None) :: acc) tl
        | _ -> Error "bad change record: malformed write pair"
      in
      Result.map
        (fun writes -> { Repl.r_seq = seq; r_stamp = stamp; r_writes = writes })
        (pairs [] rest)
  | _ -> Error "bad change record frame"

(* --- trace-info frames ---------------------------------------------------- *)

(* The server's answer to a [TRACE]-prefixed command: one [@]-framed
   line carrying the request's phase decomposition, written {e ahead of}
   the data reply so an incremental reader never has to peek past a
   reply to know whether trace info follows.  Grammar:

     @<id> total=<us> outcome=<word> [fanout=<n>] [<phase>=<us>]*

   Phases appear in pipeline order and only when non-zero.  µs values
   carry three decimals.  Untraced clients never see these frames. *)

type trace_info = {
  t_id : int;
  t_total_us : float;
  t_outcome : string;
  t_fanout : int;
  t_phase_us : (string * float) list;
}

let render_trace buf (t : trace_info) =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "@%d total=%.3f outcome=%s" t.t_id t.t_total_us (sanitize t.t_outcome);
  if t.t_fanout > 0 then p " fanout=%d" t.t_fanout;
  List.iter (fun (name, us) -> if us > 0. then p " %s=%.3f" name us) t.t_phase_us;
  p "\r\n"

let trace_line t =
  let b = Buffer.create 64 in
  render_trace b t;
  Buffer.contents b

(* The frame's tokens as strings; trace frames are parsed client-side,
   off the served path. *)
let tokens line =
  let stop = line_end line in
  let rec go i acc =
    if i >= stop then List.rev acc
    else
      let e = token_end line i stop in
      go (skip_spaces line e stop) (String.sub line i (e - i) :: acc)
  in
  go (skip_spaces line 0 stop) []

(* [body] is the frame line without the leading ['@']. *)
let parse_trace body =
  let fail () = Error (Printf.sprintf "bad trace frame %S" body) in
  match tokens body with
  | [] -> fail ()
  | id :: kvs -> (
      match int_of_string_opt id with
      | None -> fail ()
      | Some id when id <= 0 -> fail ()
      | Some id -> (
          let split kv =
            match String.index_opt kv '=' with
            | Some i when i > 0 && i < String.length kv - 1 ->
                Some
                  ( String.sub kv 0 i,
                    String.sub kv (i + 1) (String.length kv - i - 1) )
            | Some _ | None -> None
          in
          match List.map split kvs with
          | pairs when List.exists (fun p -> p = None) pairs -> fail ()
          | pairs -> (
              let pairs = List.filter_map Fun.id pairs in
              let total = ref None and outcome = ref None in
              let fanout = ref 0 in
              let phases = ref [] in
              let ok = ref true in
              List.iter
                (fun (k, v) ->
                  match k with
                  | "total" -> (
                      match float_of_string_opt v with
                      | Some f -> total := Some f
                      | None -> ok := false)
                  | "outcome" -> outcome := Some v
                  | "fanout" -> (
                      match int_of_string_opt v with
                      | Some n when n >= 0 -> fanout := n
                      | Some _ | None -> ok := false)
                  | _ -> (
                      match float_of_string_opt v with
                      | Some f -> phases := (k, f) :: !phases
                      | None -> ok := false))
                pairs;
              match (!ok, !total, !outcome) with
              | true, Some total, Some outcome ->
                  Ok
                    {
                      t_id = id;
                      t_total_us = total;
                      t_outcome = outcome;
                      t_fanout = !fanout;
                      t_phase_us = List.rev !phases;
                    }
              | _ -> fail ())))

(* --- incremental line reassembly ----------------------------------------- *)

(* Stateful '\n'-framed line reassembly shared by every path that reads
   the wire in arbitrary-sized chunks: the event loop's per-connection
   inbox, the replica ACK drain and the client's reply [Reader].  The
   invariant that matters — and that an earlier ad-hoc splitter got
   subtly right only by luck — is that a trailing partial line after
   the last '\n' stays buffered until its terminator arrives, no matter
   how the kernel splits the delivery.  A terminating '\r' before the '\n' is stripped. *)
module Linebuf = struct
  type t = {
    buf : Buffer.t;  (** received, not yet consumed *)
    mutable pos : int;  (** consumed prefix of [buf] *)
  }

  let create () = { buf = Buffer.create 256; pos = 0 }

  let feed t b off len = Buffer.add_subbytes t.buf b off len
  let feed_string t s = Buffer.add_string t.buf s

  (* Bytes buffered past the last complete line — the partial tail. *)
  let pending t = Buffer.length t.buf - t.pos

  let compact t =
    if t.pos > 0 && t.pos >= Buffer.length t.buf then begin
      Buffer.clear t.buf;
      t.pos <- 0
    end
    else if t.pos > 65536 then begin
      let rest = Buffer.sub t.buf t.pos (Buffer.length t.buf - t.pos) in
      Buffer.clear t.buf;
      Buffer.add_string t.buf rest;
      t.pos <- 0
    end

  (* Pops the next complete line ('\n' consumed, optional '\r' before it
     stripped), or [None] when only a partial tail remains. *)
  let next t =
    let len = Buffer.length t.buf in
    let rec find i = if i >= len then -1 else if Buffer.nth t.buf i = '\n' then i else find (i + 1) in
    let nl = find t.pos in
    if nl < 0 then begin
      compact t;
      None
    end
    else begin
      let stop = if nl > t.pos && Buffer.nth t.buf (nl - 1) = '\r' then nl - 1 else nl in
      let line = Buffer.sub t.buf t.pos (stop - t.pos) in
      t.pos <- nl + 1;
      compact t;
      Some line
    end

  (* Pops exactly [n] bytes, terminators included, or [None] while fewer
     are buffered: the payload of a length-prefixed bulk reply. *)
  let take t n =
    if pending t < n then None
    else begin
      let s = Buffer.sub t.buf t.pos n in
      t.pos <- t.pos + n;
      compact t;
      Some s
    end
end

(* --- incremental reply reader -------------------------------------------- *)

(* A reply that is one whole line: [+simple], [-ERR msg], [-BUSY n],
   [-ABORT n] or [:int]. *)
let line_reply l =
  let body = String.sub l 1 (String.length l - 1) in
  match l.[0] with
  | '+' -> (
      match body with
      | "OK" -> Ok Ok_
      | "PONG" -> Ok Pong
      | "EXISTS" -> Ok Exists
      | "QUEUED" -> Ok Queued
      | other -> Error (Printf.sprintf "unknown simple reply %S" other))
  | '-' ->
      if String.length body >= 5 && String.sub body 0 5 = "BUSY " then
        match int_of_string_opt (String.sub body 5 (String.length body - 5)) with
        | Some ms when ms >= 0 -> Ok (Busy ms)
        | Some _ | None -> Error (Printf.sprintf "bad BUSY reply %S" body)
      else if String.length body >= 6 && String.sub body 0 6 = "ABORT " then
        match int_of_string_opt (String.sub body 6 (String.length body - 6)) with
        | Some n when n >= 0 -> Ok (Aborted n)
        | Some _ | None -> Error (Printf.sprintf "bad ABORT reply %S" body)
      else
        let msg =
          if String.length body >= 4 && String.sub body 0 4 = "ERR " then
            String.sub body 4 (String.length body - 4)
          else body
        in
        Ok (Err msg)
  | ':' -> (
      match int_of_string_opt body with
      | Some n -> Ok (Int n)
      | None -> Error (Printf.sprintf "bad integer reply %S" body))
  | c -> Error (Printf.sprintf "unknown reply type %C" c)

module Reader = struct
  type t = {
    read : bytes -> int -> int -> int;
    chunk : bytes;
    lb : Linebuf.t;  (** bytes received, not yet consumed *)
    mutable last_trace : trace_info option;
        (** trace frame attached to the most recently parsed reply *)
  }

  let create read =
    { read; chunk = Bytes.create 65536; lb = Linebuf.create ();
      last_trace = None }

  let of_string s =
    let consumed = ref 0 in
    create (fun b p l ->
        let n = min l (String.length s - !consumed) in
        Bytes.blit_string s !consumed b p n;
        consumed := !consumed + n;
        n)

  let refill t =
    match t.read t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> false
    | n ->
        Linebuf.feed t.lb t.chunk 0 n;
        true
    | exception _ -> false

  let max_line = 1 lsl 20

  (* One CRLF/LF-terminated line, without the terminator. *)
  let rec line t =
    match Linebuf.next t.lb with
    | Some l -> Ok l
    | None ->
        if Linebuf.pending t.lb > max_line then Error "reply line too long"
        else if refill t then line t
        else Error "connection closed mid-reply"

  (* Exactly [n] payload bytes followed by CRLF (or LF). *)
  let rec payload t n =
    match Linebuf.take t.lb n with
    | Some s -> (
        match line t with
        | Ok "" -> Ok s
        | Ok _ -> Error "bulk reply not newline-terminated"
        | Error _ -> Error "connection closed mid-bulk")
    | None -> if refill t then payload t n else Error "connection closed mid-bulk"

  let ( let* ) = Result.bind

  let last_trace t = t.last_trace

  let rec reply_frame t =
    let* l = line t in
    if String.length l = 0 then Error "empty reply line"
    else
      let body () = String.sub l 1 (String.length l - 1) in
      match l.[0] with
      | '@' ->
          (* Trace frame: precedes the data reply it describes.  Record
             it and keep parsing — the reply that follows carries it
             (readable via {!last_trace} until the next reply). *)
          let* info = parse_trace (body ()) in
          t.last_trace <- Some info;
          reply_frame t
      | '+' | '-' | ':' -> line_reply l
      | '$' -> (
          match int_of_string_opt (body ()) with
          | Some -1 -> Ok Nil
          | Some n when n >= 0 && n <= max_line ->
              let* s = payload t n in
              Ok (Bulk s)
          | Some _ | None -> Error (Printf.sprintf "bad bulk length %S" (body ())))
      | '*' -> (
          match int_of_string_opt (body ()) with
          | Some n when n >= 0 && n <= 16_777_216 ->
              let rec go acc i =
                if i = 0 then Ok (Arr (List.rev acc))
                else
                  let* r = reply_frame t in
                  go (r :: acc) (i - 1)
              in
              go [] n
          | Some _ | None ->
              Error (Printf.sprintf "bad array length %S" (body ())))
      | c -> Error (Printf.sprintf "unknown reply type %C" c)

  (* Each top-level reply starts with a clean trace slot, so a frame
     only ever describes the reply it immediately precedes. *)
  let reply t =
    t.last_trace <- None;
    reply_frame t
end

module Frames = struct
  type t = { mutable left : int; mutable items : reply list }

  let create () = { left = 0; items = [] }

  let reset t =
    t.left <- 0;
    t.items <- []

  let scalar l =
    let n = String.length l in
    if n >= 2 && l.[0] = ':' then
      try Some (Int (decimal l 1 n)) with Not_decimal -> None
    else if l = "$-1" then Some Nil
    else None

  let push t l =
    if t.left > 0 then
      match scalar l with
      | None -> Error (Printf.sprintf "bad frame element %S" l)
      | Some r ->
          t.items <- r :: t.items;
          t.left <- t.left - 1;
          if t.left > 0 then Ok None
          else begin
            let items = List.rev t.items in
            t.items <- [];
            Ok (Some (Arr items))
          end
    else if String.length l > 1 && l.[0] = '*' then
      match decimal l 1 (String.length l) with
      | n when n > 0 && n <= 16_777_216 ->
          t.left <- n;
          Ok None
      | 0 -> Ok (Some (Arr []))
      | _ | (exception Not_decimal) ->
          Error (Printf.sprintf "bad array length %S" l)
    else
      match l.[0] with
      | '+' | '-' -> Result.map Option.some (line_reply l)
      | _ -> Error (Printf.sprintf "not a flat frame %S" l)
      | exception Invalid_argument _ -> Error "empty reply line"
end
