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

(* Tokenise one line: split on single spaces, drop empty tokens (so runs
   of spaces and a trailing \r are harmless). *)
let tokens line =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let int_arg name s k =
  match int_of_string_opt s with
  | Some v -> k v
  | None -> Error (Printf.sprintf "%s: not an integer %S" name s)

let parse_command_tokens toks =
  (* Total by construction; the catch-all is belt-and-braces so a parser
     bug can never take a connection (or the server) down. *)
  try
    match toks with
    | [] -> Error "empty command"
    | verb :: args -> (
        match (String.uppercase_ascii verb, args) with
        | "PING", [] -> Ok Ping
        | "GET", [ k ] -> int_arg "key" k (fun k -> Ok (Get k))
        | "PUT", [ k; v ] ->
            int_arg "key" k (fun k -> int_arg "value" v (fun v -> Ok (Put (k, v))))
        | "DEL", [ k ] -> int_arg "key" k (fun k -> Ok (Del k))
        | "MGET", (_ :: _ as ks) ->
            let rec go acc = function
              | [] -> Ok (Mget (Array.of_list (List.rev acc)))
              | k :: rest -> int_arg "key" k (fun k -> go (k :: acc) rest)
            in
            go [] ks
        | "MGET", [] -> Error "MGET needs at least one key"
        | "RANGE", [ lo; hi ] ->
            int_arg "lo" lo (fun lo -> int_arg "hi" hi (fun hi -> Ok (Range (lo, hi))))
        | "RANGECOUNT", [ lo; hi ] ->
            int_arg "lo" lo (fun lo ->
                int_arg "hi" hi (fun hi -> Ok (Rangecount (lo, hi))))
        | "SCAN", [] -> Ok (Scan 0)
        | "SCAN", [ n ] -> int_arg "limit" n (fun n -> Ok (Scan (max 0 n)))
        | "SIZE", [] -> Ok Size
        | "STATS", [] -> Ok Stats
        | "METRICS", [] -> Ok Metrics
        | "PROFILE", [] -> Ok (Profile 0)
        | "PROFILE", [ ms ] ->
            int_arg "window" ms (fun ms -> Ok (Profile (max 0 ms)))
        | "MULTI", [] -> Ok Multi
        | "EXEC", [] -> Ok (Exec 0)
        | "EXEC", [ t ] ->
            int_arg "token" t (fun t ->
                if t > 0 then Ok (Exec t) else Error "EXEC: token must be > 0")
        | "DISCARD", [] -> Ok Discard
        | "SUBSCRIBE", [ lo; hi ] ->
            int_arg "lo" lo (fun lo ->
                int_arg "hi" hi (fun hi -> Ok (Subscribe (lo, hi, 0))))
        | "SUBSCRIBE", [ lo; hi; seq ] ->
            int_arg "lo" lo (fun lo ->
                int_arg "hi" hi (fun hi ->
                    int_arg "seq" seq (fun seq ->
                        if seq >= 0 then Ok (Subscribe (lo, hi, seq))
                        else Error "SUBSCRIBE: seq must be >= 0")))
        | "WATCH", [ lo; hi ] ->
            int_arg "lo" lo (fun lo ->
                int_arg "hi" hi (fun hi -> Ok (Watch (lo, hi, 0))))
        | "WATCH", [ lo; hi; ms ] ->
            int_arg "lo" lo (fun lo ->
                int_arg "hi" hi (fun hi ->
                    int_arg "timeout" ms (fun ms -> Ok (Watch (lo, hi, max 0 ms)))))
        | "SYNC", [] -> Ok Sync
        | "REPLSTATS", [] -> Ok Replstats
        | "PROMOTE", [] -> Ok Promote
        | "ACK", [ seq; stamp ] ->
            int_arg "seq" seq (fun seq ->
                int_arg "stamp" stamp (fun stamp ->
                    if seq >= 0 && stamp >= 0 then Ok (Ack (seq, stamp))
                    else Error "ACK: seq and stamp must be >= 0"))
        | "QUIT", [] -> Ok Quit
        | ( (("PING" | "GET" | "PUT" | "DEL" | "RANGE" | "RANGECOUNT" | "SCAN"
             | "SIZE" | "STATS" | "METRICS" | "PROFILE" | "MULTI" | "EXEC"
             | "DISCARD" | "SUBSCRIBE" | "WATCH" | "SYNC" | "REPLSTATS"
             | "PROMOTE" | "ACK" | "QUIT") as v),
            _ ) ->
            Error (Printf.sprintf "wrong number of arguments for %s" v)
        | v, _ ->
            (* Cap the echoed verb so garbage can't bloat the error. *)
            let v = if String.length v > 32 then String.sub v 0 32 ^ "..." else v in
            Error (Printf.sprintf "unknown command %S" v))
  with _ -> Error "unparsable command"

(* Trace-context propagation (docs/PROTOCOL.md): any command may be
   prefixed [TRACE <id>], asking the server to record a request span and
   answer with an [@]-framed phase decomposition ahead of the data
   reply.  The id is an opaque positive integer chosen by the client
   (the loadgen uses it to join client RTT with the server-side span);
   [TRACE] composes with every verb and is invisible to classification —
   tracing a command never changes its idempotence or shedding class. *)
let parse_command_traced line =
  match tokens line with
  | verb :: id :: rest when String.uppercase_ascii verb = "TRACE" -> (
      match int_of_string_opt id with
      | Some id when id > 0 ->
          Result.map (fun c -> (Some id, c)) (parse_command_tokens rest)
      | Some _ | None -> Error (Printf.sprintf "TRACE: bad trace id %S" id))
  | toks -> Result.map (fun c -> (None, c)) (parse_command_tokens toks)

let parse_command line = parse_command_tokens (tokens line)

(* --- command rendering --------------------------------------------------- *)

let render_command ?trace_id buf c =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match trace_id with
   | Some id when id > 0 -> p "TRACE %d " id
   | Some _ | None -> ());
  (match c with
   | Ping -> p "PING"
   | Get k -> p "GET %d" k
   | Put (k, v) -> p "PUT %d %d" k v
   | Del k -> p "DEL %d" k
   | Mget ks ->
       p "MGET";
       Array.iter (fun k -> p " %d" k) ks
   | Range (lo, hi) -> p "RANGE %d %d" lo hi
   | Rangecount (lo, hi) -> p "RANGECOUNT %d %d" lo hi
   | Scan n -> p "SCAN %d" n
   | Size -> p "SIZE"
   | Stats -> p "STATS"
   | Metrics -> p "METRICS"
   | Profile 0 -> p "PROFILE"
   | Profile ms -> p "PROFILE %d" ms
   | Multi -> p "MULTI"
   | Exec 0 -> p "EXEC"
   | Exec t -> p "EXEC %d" t
   | Discard -> p "DISCARD"
   | Subscribe (lo, hi, 0) -> p "SUBSCRIBE %d %d" lo hi
   | Subscribe (lo, hi, seq) -> p "SUBSCRIBE %d %d %d" lo hi seq
   | Watch (lo, hi, 0) -> p "WATCH %d %d" lo hi
   | Watch (lo, hi, ms) -> p "WATCH %d %d %d" lo hi ms
   | Sync -> p "SYNC"
   | Replstats -> p "REPLSTATS"
   | Promote -> p "PROMOTE"
   | Ack (seq, stamp) -> p "ACK %d %d" seq stamp
   | Quit -> p "QUIT");
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

let rec render_reply buf r =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match r with
  | Ok_ -> p "+OK\r\n"
  | Pong -> p "+PONG\r\n"
  | Exists -> p "+EXISTS\r\n"
  | Err msg -> p "-ERR %s\r\n" (sanitize msg)
  | Busy ms -> p "-BUSY %d\r\n" (max 0 ms)
  | Int n -> p ":%d\r\n" n
  | Nil -> p "$-1\r\n"
  | Bulk s ->
      p "$%d\r\n" (String.length s);
      Buffer.add_string buf s;
      Buffer.add_string buf "\r\n"
  | Arr rs ->
      p "*%d\r\n" (List.length rs);
      List.iter (render_reply buf) rs
  | Queued -> p "+QUEUED\r\n"
  | Aborted n -> p "-ABORT %d\r\n" (max 0 n)

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

  let drain t f =
    let rec go () =
      match next t with
      | Some l ->
          f l;
          go ()
      | None -> ()
    in
    go ()
end

(* --- incremental reply reader -------------------------------------------- *)

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
      let body = String.sub l 1 (String.length l - 1) in
      match l.[0] with
      | '@' ->
          (* Trace frame: precedes the data reply it describes.  Record
             it and keep parsing — the reply that follows carries it
             (readable via {!last_trace} until the next reply). *)
          let* info = parse_trace body in
          t.last_trace <- Some info;
          reply_frame t
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
      | '$' -> (
          match int_of_string_opt body with
          | Some -1 -> Ok Nil
          | Some n when n >= 0 && n <= max_line ->
              let* s = payload t n in
              Ok (Bulk s)
          | Some _ | None -> Error (Printf.sprintf "bad bulk length %S" body))
      | '*' -> (
          match int_of_string_opt body with
          | Some n when n >= 0 && n <= 16_777_216 ->
              let rec go acc i =
                if i = 0 then Ok (Arr (List.rev acc))
                else
                  let* r = reply_frame t in
                  go (r :: acc) (i - 1)
              in
              go [] n
          | Some _ | None -> Error (Printf.sprintf "bad array length %S" body))
      | c -> Error (Printf.sprintf "unknown reply type %C" c)

  (* Each top-level reply starts with a clean trace slot, so a frame
     only ever describes the reply it immediately precedes. *)
  let reply t =
    t.last_trace <- None;
    reply_frame t
end
