(* Tests for the wire subsystem (lib/server): protocol round-trips and
   parser fuzz (qcheck), capability-typed command dispatch, and live-socket tests on an ephemeral port — ending
   with the bank-transfer snapshot-consistency invariant driven from
   concurrent client domains. *)

module S = Server
module P = Server.Protocol
module C = Server.Client

(* --- qcheck: command round-trip ---------------------------------------- *)

let gen_key = QCheck.Gen.int_range (-1000) 100_000

let gen_command =
  let open QCheck.Gen in
  oneof
    [
      return P.Ping;
      map (fun k -> P.Get k) gen_key;
      map2 (fun k v -> P.Put (k, v)) gen_key gen_key;
      map (fun k -> P.Del k) gen_key;
      map
        (fun ks -> P.Mget (Array.of_list ks))
        (list_size (int_range 1 12) gen_key);
      map2 (fun a b -> P.Range (a, b)) gen_key gen_key;
      map2 (fun a b -> P.Rangecount (a, b)) gen_key gen_key;
      map (fun n -> P.Scan n) (int_range 0 1000);
      return P.Size;
      return P.Stats;
      return P.Multi;
      (* EXEC renders bare for token 0 and "EXEC <t>" otherwise; both
         forms must round-trip. *)
      map (fun t -> P.Exec t) (int_range 0 1_000_000);
      return P.Discard;
      (* SUBSCRIBE/WATCH render bare for seq/timeout 0 and with the
         third token otherwise; both forms must round-trip. *)
      map3 (fun a b s -> P.Subscribe (a, b, s)) gen_key gen_key
        (int_range 0 1_000_000);
      map3 (fun a b ms -> P.Watch (a, b, ms)) gen_key gen_key
        (int_range 0 60_000);
      return P.Sync;
      return P.Replstats;
      return P.Promote;
      map2 (fun s st -> P.Ack (s, st)) (int_range 0 1_000_000)
        (int_range 0 1_000_000);
      return P.Quit;
    ]

let command_eq a b =
  match (a, b) with
  | P.Mget x, P.Mget y -> x = y
  | a, b -> a = b

let arb_command = QCheck.make ~print:P.command_line gen_command

let test_command_roundtrip =
  QCheck.Test.make ~count:500 ~name:"render/parse command round-trip"
    arb_command (fun c ->
      let line = P.command_line c in
      (* the renderer terminates with CRLF; the server's line splitter
         hands the parser the line without the \n, with or without the
         \r — check both forms *)
      let body = String.sub line 0 (String.length line - 2) in
      match (P.parse_command body, P.parse_command (body ^ "\r")) with
      | Ok c1, Ok c2 -> command_eq c c1 && command_eq c c2
      | _ -> false)

(* --- qcheck: TRACE prefix round-trip ------------------------------------ *)

(* [TRACE <id> CMD...] must parse back to [(Some id, cmd)] and a bare
   line to [(None, cmd)] — and the prefix must never change how the
   command itself parses. *)
let test_trace_prefix_roundtrip =
  QCheck.Test.make ~count:500 ~name:"TRACE prefix round-trip"
    (QCheck.pair (QCheck.make QCheck.Gen.(int_range 0 1_000_000)) arb_command)
    (fun (id, c) ->
      let line = P.command_line ~trace_id:id c in
      let body = String.sub line 0 (String.length line - 2) in
      match P.parse_command_traced body with
      | Ok (tid, c') ->
          command_eq c c'
          && tid = (if id > 0 then Some id else None)
      | Error _ -> false)

let test_trace_prefix_rejects_garbage () =
  List.iter
    (fun line ->
      match P.parse_command_traced line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [ "TRACE"; "TRACE GET 1"; "TRACE 0 GET 1"; "TRACE -3 GET 1"; "TRACE 7" ]

(* --- qcheck: trace-info frame round-trip --------------------------------- *)

let gen_trace_info =
  let open QCheck.Gen in
  let gen_us = map (fun n -> float_of_int n /. 1000.) (int_range 0 10_000_000) in
  let phase_names =
    List.map Verlib.Obs.Span.phase_name Verlib.Obs.Span.phases
  in
  let gen_phases =
    (* a strictly positive µs value per chosen phase: the renderer emits
       non-zero phases only, so zero entries would not round-trip *)
    List.map
      (fun name ->
        map
          (fun v -> (name, float_of_int (v + 1) /. 1000.))
          (int_range 0 10_000_000))
      phase_names
    |> flatten_l
  in
  map2
    (fun (id, total, fanout) phases ->
      {
        P.t_id = id + 1;
        t_total_us = total;
        t_outcome = "ok";
        t_fanout = fanout;
        t_phase_us = phases;
      })
    (triple (int_range 0 1_000_000) gen_us (int_range 0 64))
    gen_phases

let trace_info_approx_eq a b =
  let feq x y = Float.abs (x -. y) < 0.001 in
  a.P.t_id = b.P.t_id
  && feq a.P.t_total_us b.P.t_total_us
  && a.P.t_outcome = b.P.t_outcome
  && a.P.t_fanout = b.P.t_fanout
  && List.length a.P.t_phase_us = List.length b.P.t_phase_us
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> n1 = n2 && feq v1 v2)
       a.P.t_phase_us b.P.t_phase_us

let test_trace_frame_roundtrip =
  QCheck.Test.make ~count:500 ~name:"trace frame render/parse round-trip"
    (QCheck.make ~print:P.trace_line gen_trace_info)
    (fun t ->
      let line = P.trace_line t in
      (* "@" body "\r\n" *)
      let body = String.sub line 1 (String.length line - 3) in
      match P.parse_trace body with
      | Ok t' -> trace_info_approx_eq t t'
      | Error _ -> false)

(* --- qcheck: reply round-trip ------------------------------------------ *)

(* Err text must survive the sanitiser (control bytes become spaces), so
   generate printable payloads for Err; Bulk payloads are arbitrary
   bytes — the length-prefixed framing must carry anything. *)
let gen_printable =
  QCheck.Gen.(string_size (int_range 0 24) ~gen:(map Char.chr (int_range 32 126)))

let gen_bytes =
  QCheck.Gen.(string_size (int_range 0 64) ~gen:(map Char.chr (int_range 0 255)))

let gen_reply =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            return P.Ok_;
            return P.Pong;
            return P.Exists;
            return P.Nil;
            map (fun n -> P.Int n) small_signed_int;
            map (fun s -> P.Err s) gen_printable;
            map (fun s -> P.Bulk s) gen_bytes;
            return P.Queued;
            (* -ABORT clamps to non-negative on the wire, so only
               non-negative counts round-trip. *)
            map (fun n -> P.Aborted n) (int_range 0 1000);
          ]
      in
      if n = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun rs -> P.Arr rs) (list_size (int_range 0 4) (self (n / 2))));
          ])

let arb_reply = QCheck.make ~print:P.pp_reply gen_reply

let render_reply_string r =
  let b = Buffer.create 64 in
  P.render_reply b r;
  Buffer.contents b

let test_reply_roundtrip =
  QCheck.Test.make ~count:500 ~name:"render/read reply round-trip" arb_reply
    (fun r ->
      let reader = P.Reader.of_string (render_reply_string r) in
      match P.Reader.reply reader with
      | Ok r' -> P.reply_equal r r'
      | Error _ -> false)

(* --- qcheck: fuzz — garbage never raises -------------------------------- *)

let arb_garbage =
  QCheck.make
    ~print:(Printf.sprintf "%S")
    QCheck.Gen.(string_size (int_range 0 80) ~gen:(map Char.chr (int_range 0 255)))

let test_parse_never_raises =
  QCheck.Test.make ~count:1000 ~name:"parse_command never raises" arb_garbage
    (fun s ->
      match P.parse_command s with Ok _ | Error _ -> true)

let test_reader_never_raises =
  QCheck.Test.make ~count:1000 ~name:"Reader.reply never raises on garbage"
    arb_garbage (fun s ->
      let reader = P.Reader.of_string s in
      match P.Reader.reply reader with Ok _ | Error _ -> true)

(* split delivery: framing must survive one-byte reads *)
let test_reader_split_delivery () =
  let r = P.Arr [ P.Bulk "hello\r\nworld"; P.Int 42; P.Nil; P.Err "boom" ] in
  let s = render_reply_string r in
  let pos = ref 0 in
  let reader =
    P.Reader.create (fun b p _l ->
        if !pos >= String.length s then 0
        else begin
          Bytes.set b p s.[!pos];
          incr pos;
          1
        end)
  in
  match P.Reader.reply reader with
  | Ok r' -> Alcotest.(check bool) "equal" true (P.reply_equal r r')
  | Error e -> Alcotest.fail e

(* --- qcheck: change-record frame round-trip ------------------------------ *)

(* The replication stream rides the reply framing (reply_of_record /
   record_of_reply): every record must survive render → incremental
   Reader → parse, including Nil values (deletes). *)
let gen_record =
  let open QCheck.Gen in
  map3
    (fun seq stamp writes ->
      { Repl.r_seq = seq + 1; r_stamp = stamp + 1; r_writes = writes })
    (int_range 0 1_000_000) (int_range 0 1_000_000)
    (list_size (int_range 1 8)
       (pair gen_key (oneof [ return None; map Option.some gen_key ])))

let test_record_frame_roundtrip =
  QCheck.Test.make ~count:500 ~name:"change-record frame round-trip"
    (QCheck.make
       ~print:(fun r -> P.pp_reply (P.reply_of_record r))
       gen_record)
    (fun r ->
      let reader = P.Reader.of_string (render_reply_string (P.reply_of_record r)) in
      match P.Reader.reply reader with
      | Ok frame -> (
          match P.record_of_reply frame with
          | Ok r' -> r = r'
          | Error _ -> false)
      | Error _ -> false)

let test_record_of_reply_total =
  QCheck.Test.make ~count:500 ~name:"record_of_reply rejects non-records"
    arb_reply (fun r ->
      match P.record_of_reply r with Ok _ | Error _ -> true)

(* A streamed record must survive one-byte delivery: replicas read the
   push stream through the incremental Reader, and the TCP segmentation
   under a chaos plan is arbitrary. *)
let test_record_split_delivery () =
  let r =
    { Repl.r_seq = 41; r_stamp = 977; r_writes = [ (3, Some 30); (9, None) ] }
  in
  let s = render_reply_string (P.reply_of_record r) in
  let pos = ref 0 in
  let reader =
    P.Reader.create (fun b p _l ->
        if !pos >= String.length s then 0
        else begin
          Bytes.set b p s.[!pos];
          incr pos;
          1
        end)
  in
  match P.Reader.reply reader with
  | Ok frame -> (
      match P.record_of_reply frame with
      | Ok r' -> Alcotest.(check bool) "record equal" true (r = r')
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e

(* --- Linebuf: stateful '\n'-framed reassembly ---------------------------- *)

let test_linebuf_split_feeds () =
  let lb = P.Linebuf.create () in
  P.Linebuf.feed_string lb "GET 1\r\nPU";
  Alcotest.(check (option string)) "first line" (Some "GET 1")
    (P.Linebuf.next lb);
  Alcotest.(check (option string)) "partial tail held back" None
    (P.Linebuf.next lb);
  Alcotest.(check int) "pending counts the tail" 2 (P.Linebuf.pending lb);
  P.Linebuf.feed_string lb "T 2 3\n";
  Alcotest.(check (option string)) "tail completed across feeds"
    (Some "PUT 2 3") (P.Linebuf.next lb);
  String.iter (fun c -> P.Linebuf.feed_string lb (String.make 1 c)) "PING\r\n";
  Alcotest.(check (option string)) "byte-at-a-time delivery" (Some "PING")
    (P.Linebuf.next lb);
  P.Linebuf.feed_string lb "\n\nSIZE\n";
  Alcotest.(check (option string)) "empty line 1" (Some "") (P.Linebuf.next lb);
  Alcotest.(check (option string)) "empty line 2" (Some "") (P.Linebuf.next lb);
  Alcotest.(check (option string)) "bare-LF line" (Some "SIZE")
    (P.Linebuf.next lb);
  Alcotest.(check int) "fully drained" 0 (P.Linebuf.pending lb);
  P.Linebuf.feed_string lb "A\nB\nC\nD";
  let got = List.filter_map (fun _ -> P.Linebuf.next lb) [ 1; 2; 3; 4 ] in
  Alcotest.(check (list string)) "drain order" [ "A"; "B"; "C" ] got;
  Alcotest.(check int) "partial survives drain" 1 (P.Linebuf.pending lb)

(* Line-fed reassembly of the replication frames: the rendered SYNC
   array, record frames (nil values included) and single-line replies
   come back whole from their lines; anything that is not a flat frame
   is an error. *)
let test_frames_reassembly () =
  let rng = Random.State.make [| 3 |] in
  let record seq =
    {
      Repl.r_seq = seq;
      r_stamp = 10 * seq;
      r_writes =
        List.init (1 + Random.State.int rng 4) (fun i ->
            (i - 2, if Random.State.bool rng then Some (seq - i) else None));
    }
  in
  let replies =
    P.Arr (P.Int 7 :: P.Int 70 :: List.concat_map (fun k -> P.[ Int k; Int (-k) ]) [ 1; 2; 3 ])
    :: P.Ok_
    :: List.init 20 (fun i -> P.reply_of_record (record (i + 1)))
    @ [ P.Ok_; P.Err "resync required"; P.Busy 5 ]
  in
  let b = Buffer.create 1024 in
  List.iter (P.render_reply b) replies;
  let lb = P.Linebuf.create () in
  P.Linebuf.feed_string lb (Buffer.contents b);
  let fr = P.Frames.create () in
  let rec drain acc =
    match P.Linebuf.next lb with
    | None -> List.rev acc
    | Some l -> (
        match P.Frames.push fr l with
        | Ok None -> drain acc
        | Ok (Some r) -> drain (r :: acc)
        | Error e -> Alcotest.fail e)
  in
  let got = drain [] in
  Alcotest.(check int) "every reply reassembled" (List.length replies)
    (List.length got);
  List.iter2
    (fun want r ->
      Alcotest.(check bool) (P.pp_reply want) true (P.reply_equal want r))
    replies got;
  let bad lines =
    let fr = P.Frames.create () in
    List.fold_left
      (fun acc l -> match acc with Error _ -> acc | Ok _ -> P.Frames.push fr l)
      (Ok None) lines
  in
  List.iter
    (fun (what, lines) ->
      Alcotest.(check bool) what true (Result.is_error (bad lines)))
    [
      ("bulk element", [ "*2"; ":1"; "$3" ]);
      ("nested array", [ "*1"; "*1" ]);
      ("bad integer", [ "*1"; ":x" ]);
      ("bad length", [ "*-2" ]);
      ("top-level bulk", [ "$5" ]);
      ("empty line", [ "" ]);
    ];
  (* a reset drops the open frame *)
  let fr = P.Frames.create () in
  ignore (P.Frames.push fr "*3");
  ignore (P.Frames.push fr ":1");
  P.Frames.reset fr;
  Alcotest.(check bool) "fresh after reset" true
    (P.Frames.push fr "+OK" = Ok (Some P.Ok_))

(* --- Evpoll: poll(2) readiness ------------------------------------------- *)

let test_evpoll_pipe () =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
  @@ fun () ->
  Alcotest.(check bool) "empty pipe not readable" false
    (S.Evpoll.readable ~timeout:0. r);
  (* Set-based poll: an empty pipe's write end reports ev_out *)
  let set = S.Evpoll.Set.create () in
  let slot_w = S.Evpoll.Set.add set w ~interest:S.Evpoll.ev_out in
  Alcotest.(check int) "write end ready" 1
    (S.Evpoll.Set.poll set ~timeout_ms:0);
  Alcotest.(check bool) "pipe writable" true
    (S.Evpoll.has (S.Evpoll.Set.revents set slot_w) S.Evpoll.ev_out);
  Alcotest.(check int) "wrote" 1 (Unix.write_substring w "x" 0 1);
  Alcotest.(check bool) "now readable" true (S.Evpoll.readable ~timeout:1. r);
  (* the readable fd's slot reports ev_in *)
  let slot_r = S.Evpoll.Set.add set r ~interest:S.Evpoll.ev_in in
  let ready = S.Evpoll.Set.poll set ~timeout_ms:1000 in
  Alcotest.(check bool) "at least one ready" true (ready >= 1);
  Alcotest.(check bool) "ev_in on the slot" true
    (S.Evpoll.has (S.Evpoll.Set.revents set slot_r) S.Evpoll.ev_in)

(* --- mount dispatch (no sockets) ---------------------------------------- *)

let test_mount_capability () =
  Verlib.reset ();
  let m = S.Mount.mount ~n_hint:64 (module Dstruct.Hashtable) in
  Alcotest.(check bool) "unordered" true
    (S.Mount.range_capability m = Dstruct.Map_intf.Unordered);
  (match S.Mount.exec m (P.Range (1, 9)) with
   | P.Err msg ->
       Alcotest.(check bool) "typed unsupported error" true
         (String.length msg >= 11 && String.sub msg 0 11 = "unsupported")
   | r -> Alcotest.fail ("RANGE on hashtable: " ^ P.pp_reply r));
  (* MGET and SCAN still work on unordered structures *)
  ignore (S.Mount.exec m (P.Put (1, 10)));
  ignore (S.Mount.exec m (P.Put (2, 20)));
  (match S.Mount.exec m (P.Mget [| 1; 2; 3 |]) with
   | P.Arr [ P.Int 10; P.Int 20; P.Nil ] -> ()
   | r -> Alcotest.fail ("MGET: " ^ P.pp_reply r));
  match S.Mount.exec m (P.Scan 0) with
  | P.Arr items -> Alcotest.(check int) "scan k;v pairs" 4 (List.length items)
  | r -> Alcotest.fail ("SCAN: " ^ P.pp_reply r)

(* --- live server helpers ------------------------------------------------ *)

let with_server ?(domains = 4) ?(census_interval = 0.) ?(shed_queue = 0) map f
    =
  Verlib.reset ();
  let mount = S.Mount.mount ~n_hint:1024 map in
  let config =
    { S.default_config with S.port = 0; domains; census_interval; shed_queue }
  in
  let srv = S.create ~config mount in
  S.start srv;
  let finally () = S.stop srv in
  Fun.protect ~finally (fun () -> f srv (S.port srv))

let req conn c =
  match C.request conn c with
  | Ok r -> r
  | Error e -> Alcotest.fail ("request: " ^ e)

let await ?(timeout = 10.) msg pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail ("timed out awaiting " ^ msg)
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

(* A member of the in-process STATS object. *)
let stats_member srv k =
  match Harness.Jsonlite.parse_result (S.stats_json srv) with
  | Ok j -> Harness.Jsonlite.member k j
  | Error e -> Alcotest.fail ("STATS json: " ^ e)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- live: basic semantics over the wire -------------------------------- *)

let test_wire_basics () =
  with_server (module Dstruct.Btree) @@ fun _srv port ->
  let conn = C.connect ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  Alcotest.(check bool) "ping" true (req conn P.Ping = P.Pong);
  Alcotest.(check bool) "put" true (req conn (P.Put (1, 10)) = P.Ok_);
  Alcotest.(check bool) "put dup" true (req conn (P.Put (1, 99)) = P.Exists);
  Alcotest.(check bool) "get" true (req conn (P.Get 1) = P.Int 10);
  Alcotest.(check bool) "get absent" true (req conn (P.Get 7) = P.Nil);
  Alcotest.(check bool) "del" true (req conn (P.Del 1) = P.Int 1);
  Alcotest.(check bool) "del absent" true (req conn (P.Del 1) = P.Int 0);
  ignore (req conn (P.Put (5, 50)));
  ignore (req conn (P.Put (6, 60)));
  Alcotest.(check bool) "size" true (req conn P.Size = P.Int 2);
  Alcotest.(check bool) "rangecount" true
    (req conn (P.Rangecount (0, 100)) = P.Int 2);
  (match req conn (P.Range (0, 100)) with
   | P.Arr [ P.Int 5; P.Int 50; P.Int 6; P.Int 60 ] -> ()
   | r -> Alcotest.fail ("range: " ^ P.pp_reply r));
  Alcotest.(check bool) "quit" true (req conn P.Quit = P.Ok_)

let test_wire_pipelining_order () =
  with_server (module Dstruct.Skiplist) @@ fun _srv port ->
  let conn = C.connect ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  let cmds =
    [ P.Put (1, 1); P.Put (2, 2); P.Get 1; P.Get 2; P.Get 3; P.Size; P.Ping ]
  in
  match C.pipeline conn cmds with
  | Ok [ P.Ok_; P.Ok_; P.Int 1; P.Int 2; P.Nil; P.Int 2; P.Pong ] -> ()
  | Ok rs ->
      Alcotest.fail
        ("pipeline order: " ^ String.concat " " (List.map P.pp_reply rs))
  | Error e -> Alcotest.fail e

(* A protocol error must poison neither the connection nor the server. *)
let test_wire_errors_keep_connection () =
  with_server (module Dstruct.Hashtable) @@ fun _srv port ->
  let conn = C.connect ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  (* unsupported capability *)
  (match req conn (P.Range (1, 9)) with
   | P.Err _ -> ()
   | r -> Alcotest.fail ("expected -ERR, got " ^ P.pp_reply r));
  Alcotest.(check bool) "usable after capability error" true
    (req conn P.Ping = P.Pong);
  (* garbage lines: every one answered with -ERR, connection survives *)
  List.iter
    (fun garbage ->
      C.send_raw conn (garbage ^ "\r\n");
      match C.read_reply conn with
      | Ok (P.Err _) -> ()
      | Ok r -> Alcotest.fail ("garbage got " ^ P.pp_reply r)
      | Error e -> Alcotest.fail ("garbage killed connection: " ^ e))
    [
      "";
      "   ";
      "FROB 1 2 3";
      "GET";
      "GET not-a-number";
      "PUT 1";
      "MGET";
      "\x01\x02\x03binary";
      String.make 300 'X';
    ];
  Alcotest.(check bool) "usable after garbage" true (req conn P.Ping = P.Pong);
  ignore (req conn (P.Put (3, 33)));
  Alcotest.(check bool) "state intact" true (req conn (P.Get 3) = P.Int 33)

let test_wire_stats_json () =
  with_server ~census_interval:0.05 (module Dstruct.Btree) @@ fun srv port ->
  let conn = C.connect ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  for k = 1 to 50 do
    ignore (req conn (P.Put (k, k)))
  done;
  Unix.sleepf 0.15;
  (* let the sweep take a census *)
  match req conn P.Stats with
  | P.Bulk raw -> (
      match Harness.Jsonlite.parse_result raw with
      | Error e -> Alcotest.fail ("STATS is not valid JSON: " ^ e)
      | Ok j ->
          let num k =
            Option.bind (Harness.Jsonlite.member k j) Harness.Jsonlite.to_number
          in
          Alcotest.(check (option string))
            "structure" (Some "btree")
            (Option.bind
               (Harness.Jsonlite.member "structure" j)
               Harness.Jsonlite.to_string);
          Alcotest.(check bool) "size reported" true (num "size" = Some 50.);
          Alcotest.(check bool) "commands counted" true
            (match num "commands_total" with Some c -> c >= 50. | None -> false);
          Alcotest.(check bool) "census present" true
            (Harness.Jsonlite.member "census" j <> None);
          Alcotest.(check bool) "no census violations" true
            (Option.bind
               (Harness.Jsonlite.member "census" j)
               (fun c ->
                 Option.map int_of_float
                   (Option.bind
                      (Harness.Jsonlite.member "violations" c)
                      Harness.Jsonlite.to_number))
            = Some 0);
          ignore srv)
  | r -> Alcotest.fail ("STATS: " ^ P.pp_reply r)

(* Traced requests over a live socket: the @-frame arrives ahead of the
   data reply, echoes the client's id, and its exclusive phase µs nest
   inside the whole-span total. *)
let test_wire_traced_request () =
  with_server (module Dstruct.Btree) @@ fun _srv port ->
  let conn = C.connect ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  ignore (req conn (P.Put (1, 10)));
  (match C.request_traced conn ~trace_id:4242 (P.Get 1) with
   | Ok (P.Int 10), Some t ->
       Alcotest.(check int) "id echoed" 4242 t.P.t_id;
       Alcotest.(check string) "outcome" "ok" t.P.t_outcome;
       Alcotest.(check bool) "total positive" true (t.P.t_total_us > 0.);
       let sum = List.fold_left (fun a (_, v) -> a +. v) 0. t.P.t_phase_us in
       Alcotest.(check bool) "phases nest in total" true
         (sum <= t.P.t_total_us +. 0.01);
       Alcotest.(check bool) "op phase present" true
         (List.mem_assoc "op" t.P.t_phase_us)
   | Ok r, Some _ -> Alcotest.fail ("traced GET: " ^ P.pp_reply r)
   | Ok _, None -> Alcotest.fail "no trace frame arrived"
   | Error e, _ -> Alcotest.fail e);
  (* untraced requests on the same connection carry no frame *)
  (match C.request_traced conn ~trace_id:0 (P.Get 1) with
   | Ok (P.Int 10), None -> ()
   | Ok _, Some _ -> Alcotest.fail "frame on an untraced request"
   | Ok r, None -> Alcotest.fail ("untraced GET: " ^ P.pp_reply r)
   | Error e, _ -> Alcotest.fail e);
  (* tracing is per-request and does not poison pipelining *)
  match C.pipeline conn [ P.Get 1; P.Size ] with
  | Ok [ P.Int 10; P.Int 1 ] -> ()
  | Ok rs ->
      Alcotest.fail
        ("pipeline after trace: " ^ String.concat " " (List.map P.pp_reply rs))
  | Error e -> Alcotest.fail e

let test_wire_metrics () =
  with_server (module Dstruct.Btree) @@ fun srv port ->
  let conn = C.connect ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  for k = 1 to 20 do
    ignore (req conn (P.Put (k, k)))
  done;
  match req conn P.Metrics with
  | P.Bulk text -> (
      match Harness.Obs_report.parse_prometheus text with
      | Error e -> Alcotest.fail ("METRICS exposition rejected: " ^ e)
      | Ok samples ->
          let find = Harness.Obs_report.prom_find samples in
          Alcotest.(check bool) "commands counted" true
            (match find "verlib_server_commands_total" with
             | Some c -> c >= 20.
             | None -> false);
          Alcotest.(check (option (float 0.))) "size figure" (Some 20.)
            (find "verlib_server_size");
          (* request-phase histograms ride along, µs-converted *)
          Alcotest.(check bool) "phase hist exported" true
            (match find "verlib_phase_op_us_count" with
             | Some c -> c >= 20.
             | None -> false);
          Alcotest.(check bool) "server text matches helper" true
            (String.length (S.metrics_text srv) > 0))
  | r -> Alcotest.fail ("METRICS: " ^ P.pp_reply r)

(* STATS against a sharded mount must break the census down per shard. *)
let test_wire_stats_shards () =
  with_server ~census_interval:0.05 (Harness.Registry.find "sharded-btree:4")
  @@ fun srv port ->
  let conn = C.connect ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  for k = 1 to 64 do
    ignore (req conn (P.Put (k, k)))
  done;
  await "the sweep's census" (fun () -> stats_member srv "census" <> None);
  match req conn P.Stats with
  | P.Bulk raw -> (
      match Harness.Jsonlite.parse_result raw with
      | Error e -> Alcotest.fail ("STATS json: " ^ e)
      | Ok j -> (
          match Harness.Jsonlite.member "census_shards" j with
          | Some (Harness.Jsonlite.Obj members) ->
              Alcotest.(check int) "one census per shard" 4
                (List.length members);
              List.iter
                (fun (name, shard) ->
                  Alcotest.(check bool)
                    (name ^ " is shard-<i>")
                    true
                    (String.length name > 6
                    && String.sub name 0 6 = "shard-");
                  Alcotest.(check bool)
                    (name ^ " carries versions")
                    true
                    (Harness.Jsonlite.member "versions" shard <> None))
                members
          | Some _ -> Alcotest.fail "census_shards is not an object"
          | None -> Alcotest.fail "no census_shards for a sharded mount"))
  | r -> Alcotest.fail ("STATS: " ^ P.pp_reply r)

(* A connection idling past [idle_timeout] is killed — and with the
   flight recorder armed, the kill files a dump naming the trigger. *)
let test_flight_on_deadline_kill () =
  Verlib.reset ();
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "flight_wire_%d" (Unix.getpid ()))
  in
  let mount = S.Mount.mount ~n_hint:64 (module Dstruct.Btree) in
  let config =
    {
      S.default_config with
      S.port = 0;
      domains = 2;
      idle_timeout = 0.1;
      flight_dir = dir;
      flight_min_interval = 0.;
    }
  in
  let srv = S.create ~config mount in
  S.start srv;
  Fun.protect ~finally:(fun () -> S.stop srv) @@ fun () ->
  let conn = C.connect ~retries:20 ~port:(S.port srv) () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  ignore (req conn P.Ping);
  (* idle past the deadline; the loop kills the connection *)
  let deadline = Unix.gettimeofday () +. 5. in
  while S.flight_last_path srv = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  Alcotest.(check bool) "kill recorded" true (S.deadline_kill_count srv >= 1);
  Alcotest.(check bool) "dump filed" true (S.flight_dump_count srv >= 1);
  match S.flight_last_path srv with
  | None -> Alcotest.fail "no dump path"
  | Some path -> (
      let ic = open_in path in
      let raw =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Harness.Jsonlite.parse_result raw with
      | Error e -> Alcotest.fail ("dump json: " ^ e)
      | Ok j ->
          Alcotest.(check (option string)) "trigger" (Some "deadline-kill")
            (Option.bind
               (Harness.Jsonlite.member "trigger" j)
               Harness.Jsonlite.to_string))

(* The sweep is the census's only owner.  With it off, a STATS on a
   sharded mount walks no chain — no domain's trace ring holds an
   [ev_census] event — and reports no census; with it on,
   [census_shards] holds one census per shard, next to [census]. *)
let test_stats_census_from_sweep () =
  let sharded = Harness.Registry.find "sharded-btree:4" in
  (with_server sharded @@ fun _srv port ->
   let conn = C.connect ~retries:20 ~port () in
   Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
   for k = 1 to 64 do
     ignore (req conn (P.Put (k, k)))
   done;
   Verlib.Obs.set_tracing true;
   let r =
     Fun.protect
       ~finally:(fun () -> Verlib.Obs.set_tracing false)
       (fun () -> req conn P.Stats)
   in
   let censuses = ref 0 in
   for slot = 0 to Flock.Registry.max_slots - 1 do
     List.iter
       (fun (_, code, _) -> if code = Verlib.Obs.ev_census then incr censuses)
       (Flock.Telemetry.events_of_slot slot)
   done;
   Alcotest.(check int) "no census event" 0 !censuses;
   match r with
   | P.Bulk raw -> (
       match Harness.Jsonlite.parse_result raw with
       | Error e -> Alcotest.fail ("STATS json: " ^ e)
       | Ok j ->
           Alcotest.(check bool) "no census" true
             (Harness.Jsonlite.member "census" j = None);
           Alcotest.(check bool) "no census_shards" true
             (Harness.Jsonlite.member "census_shards" j = None))
   | r -> Alcotest.fail ("STATS: " ^ P.pp_reply r));
  with_server ~census_interval:0.02 sharded @@ fun srv _port ->
  await "the sweep's census" (fun () -> stats_member srv "census" <> None);
  match stats_member srv "census_shards" with
  | Some (Harness.Jsonlite.Obj members) ->
      Alcotest.(check (list string)) "one census per shard"
        [ "shard-0"; "shard-1"; "shard-2"; "shard-3" ]
        (List.map fst members)
  | Some _ -> Alcotest.fail "census_shards is not an object"
  | None -> Alcotest.fail "census without census_shards"

(* Every exporter renders one figure list: at a quiescent point (after
   an idle connection's kill filed the one flight dump) each figure
   reads the same in STATS, in METRICS as [verlib_server_<name>] and in
   the STATS object the dump embeds. *)
let test_figures_agree () =
  Verlib.reset ();
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "flight_figures_%d" (Unix.getpid ()))
  in
  let mount = S.Mount.mount ~n_hint:64 (module Dstruct.Btree) in
  let config =
    {
      S.default_config with
      S.port = 0;
      domains = 2;
      idle_timeout = 0.1;
      flight_dir = dir;
      flight_min_interval = 3600.;
    }
  in
  let srv = S.create ~config mount in
  S.start srv;
  Fun.protect ~finally:(fun () -> S.stop srv) @@ fun () ->
  let conn = C.connect ~retries:20 ~port:(S.port srv) () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  for k = 1 to 5 do
    ignore (req conn (P.Put (k, k)))
  done;
  ignore (req conn (P.Exec 0));
  await "the kill's dump" (fun () -> S.flight_last_path srv <> None);
  let parse raw =
    match Harness.Jsonlite.parse_result raw with
    | Ok j -> j
    | Error e -> Alcotest.fail ("json: " ^ e)
  in
  let dump =
    let path = Option.get (S.flight_last_path srv) in
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> parse (really_input_string ic (in_channel_length ic)))
  in
  let in_dump =
    match Harness.Jsonlite.member "stats" dump with
    | Some j -> j
    | None -> Alcotest.fail "no stats object in the dump"
  in
  let stats = parse (S.stats_json srv) in
  let metrics =
    match Harness.Obs_report.parse_prometheus (S.metrics_text srv) with
    | Ok m -> m
    | Error e -> Alcotest.fail ("METRICS: " ^ e)
  in
  let num j k =
    Option.bind (Harness.Jsonlite.member k j) Harness.Jsonlite.to_number
  in
  Alcotest.(check int) "figures" 12 (List.length (S.figures srv));
  List.iter
    (fun (name, v) ->
      let v = Some (float_of_int v) in
      Alcotest.(check (option (float 0.))) ("STATS " ^ name) v (num stats name);
      Alcotest.(check (option (float 0.)))
        ("METRICS " ^ name) v
        (Harness.Obs_report.prom_find metrics ("verlib_server_" ^ name));
      Alcotest.(check (option (float 0.)))
        ("dump " ^ name) v (num in_dump name))
    (S.figures srv);
  Alcotest.(check (option (float 0.))) "the kill counted" (Some 1.)
    (num stats "deadline_kills");
  Alcotest.(check (option (float 0.))) "the dump counts itself" (Some 1.)
    (num in_dump "flight_dumps")

let test_wire_graceful_stop () =
  Verlib.reset ();
  let mount = S.Mount.mount ~n_hint:256 (module Dstruct.Btree) in
  let config =
    { S.default_config with S.port = 0; domains = 2; census_interval = 0.05 }
  in
  let srv = S.create ~config mount in
  S.start srv;
  let port = S.port srv in
  let conn = C.connect ~retries:20 ~port () in
  for k = 1 to 20 do
    ignore (req conn (P.Put (k, k)))
  done;
  C.close conn;
  S.stop srv;
  Alcotest.(check bool) "stopped" false (S.running srv);
  (match S.final_census srv with
   | None -> Alcotest.fail "no final census"
   | Some c ->
       Alcotest.(check int) "quiescent audit clean" 0
         c.Verlib.Chainscan.c_violation_count);
  Alcotest.(check int) "no violations overall" 0 (S.census_violations_total srv);
  (* idempotent *)
  S.stop srv

(* --- live: the event loop past the old architectural ceilings ------------ *)

(* Regression for the FD_SETSIZE bug: burn >1100 fds so every socket the
   server and client open lands above select(2)'s 1024-fd ceiling, then
   do real round-trips.  The select-based server dies here (fd_set
   overflow is undefined behaviour — in practice a crash or a wedge). *)
let test_wire_beyond_fd_setsize () =
  let burn = Array.init 560 (fun _ -> Unix.pipe ~cloexec:true ()) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun (r, w) ->
          Unix.close r;
          Unix.close w)
        burn)
  @@ fun () ->
  with_server (module Dstruct.Btree) @@ fun _srv port ->
  let conn = C.connect ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  Alcotest.(check bool) "ping above fd 1024" true (req conn P.Ping = P.Pong);
  Alcotest.(check bool) "put" true (req conn (P.Put (7, 70)) = P.Ok_);
  (match req conn (P.Get 7) with
   | P.Int 70 -> ()
   | r -> Alcotest.fail ("GET past FD_SETSIZE: " ^ P.pp_reply r));
  match C.pipeline conn [ P.Ping; P.Size; P.Get 7 ] with
  | Ok [ P.Pong; P.Int _; P.Int 70 ] -> ()
  | Ok rs ->
      Alcotest.fail
        ("pipeline past FD_SETSIZE: "
        ^ String.concat ";" (List.map P.pp_reply rs))
  | Error e -> Alcotest.fail ("pipeline past FD_SETSIZE: " ^ e)

(* Far more simultaneous connections than domains: under
   thread-per-connection serving with 2 domains, connection #3 would
   never be accepted and the round-robin below would wedge.  The two
   loops hold 32 each. *)
let test_wire_conns_exceed_domains () =
  with_server ~domains:2 (module Dstruct.Btree) @@ fun _srv port ->
  let conns = Array.init 64 (fun _ -> C.connect ~retries:20 ~port ()) in
  Fun.protect ~finally:(fun () -> Array.iter C.close conns) @@ fun () ->
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) "ping all" true (req c P.Ping = P.Pong);
      Alcotest.(check bool) "put all" true (req c (P.Put (i, i * 10)) = P.Ok_))
    conns;
  (* every connection reads a key written on a different connection *)
  Array.iteri
    (fun i c ->
      let k = (i + 1) mod Array.length conns in
      match req c (P.Get k) with
      | P.Int v -> Alcotest.(check int) "cross-connection read" (k * 10) v
      | r -> Alcotest.fail ("GET: " ^ P.pp_reply r))
    conns

(* Split-delivery ACK framing: an ACK line that arrives in two TCP
   segments must be reassembled, not dropped — the drain_acks partial
   line audit.  Write "ACK <seq> " and the rest after a pause; the
   primary's lag gauge draining to 0 proves the cursor advanced. *)
let test_wire_split_ack () =
  with_server (module Dstruct.Btree) @@ fun _srv port ->
  let pc = C.connect ~retries:20 ~port () in
  let sc = C.connect ~retries:20 ~port () in
  Fun.protect
    ~finally:(fun () ->
      C.close sc;
      C.close pc)
  @@ fun () ->
  Alcotest.(check bool) "subscribe ok" true
    (req sc (P.Subscribe (1, 1000, 0)) = P.Ok_);
  ignore (req pc (P.Put (42, 4200)));
  let record = ref None in
  let deadline = Unix.gettimeofday () +. 10. in
  while !record = None && Unix.gettimeofday () < deadline do
    match C.read_reply sc with
    | Ok P.Ok_ -> () (* heartbeat *)
    | Ok r -> (
        match P.record_of_reply r with
        | Ok rc -> record := Some rc
        | Error e -> Alcotest.fail ("stream frame: " ^ e))
    | Error e -> Alcotest.fail ("stream read: " ^ e)
  done;
  match !record with
  | None -> Alcotest.fail "no change record streamed"
  | Some rc ->
      let line = Printf.sprintf "ACK %d %d\r\n" rc.Repl.r_seq rc.Repl.r_stamp in
      let cut = 2 (* split inside the "ACK" keyword itself *) in
      C.send_raw sc (String.sub line 0 cut);
      Unix.sleepf 0.1;
      C.send_raw sc (String.sub line cut (String.length line - cut));
      await "split-delivered ACK drains the lag" (fun () ->
          match req pc P.Replstats with
          | P.Bulk json -> contains json "\"lag_stamps\":0"
          | _ -> false);
      C.send_raw sc "QUIT\r\n"

(* Two busy connections on a 2-domain server.  A lost wakeup would
   leave later batches waiting out the 200 ms poll timeout, and it
   would stay lost, so the last round trips of each lane show it. *)
let test_wire_two_busy_conns () =
  with_server ~domains:2 (module Dstruct.Btree) @@ fun _srv port ->
  let lane request () =
    let c = C.connect ~retries:20 ~port () in
    Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
    let give_up = Unix.gettimeofday () +. 6. in
    let rec go i acc =
      if i = 1000 || Unix.gettimeofday () > give_up then acc
      else begin
        let t0 = Unix.gettimeofday () in
        request c i;
        go (i + 1) ((Unix.gettimeofday () -. t0) :: acc)
      end
    in
    List.filteri (fun i _ -> i < 20) (go 0 [])
  in
  let txn c i =
    let k = i mod 64 in
    match C.pipeline c [ P.Multi; P.Del k; P.Put (k, i); P.Exec 0 ] with
    | Ok [ P.Ok_; P.Queued; P.Queued; P.Arr _ ] -> ()
    | Ok rs -> Alcotest.fail ("EXEC: " ^ String.concat "," (List.map P.pp_reply rs))
    | Error e -> Alcotest.fail ("EXEC: " ^ e)
  in
  let count c _ =
    match C.request c (P.Rangecount (0, 100)) with
    | Ok (P.Int _) -> ()
    | Ok r -> Alcotest.fail ("RANGECOUNT: " ^ P.pp_reply r)
    | Error e -> Alcotest.fail ("RANGECOUNT: " ^ e)
  in
  let d1 = Domain.spawn (lane txn) and d2 = Domain.spawn (lane count) in
  let last = Array.of_list (Domain.join d1 @ Domain.join d2) in
  Array.sort compare last;
  let median = last.(Array.length last / 2) in
  if median >= 0.05 then
    Alcotest.failf "median of the last round trips %.1f ms" (median *. 1000.)

(* A seeded plan that holds the next lock acquisition (the next write)
   for [ms] milliseconds, once. *)
let stall_plan ms =
  let spec = Printf.sprintf "seed=1;lock.acquire:pause=%d@once" ms in
  match Fault.plan_of_string spec with Ok p -> p | Error e -> Alcotest.fail e

(* Pipelining helpers: write a whole batch in one send, read [n] replies. *)
let send_batch conn cmds =
  C.send_raw conn (String.concat "" (List.map (fun c -> P.command_line c) cmds))

let read_replies conn n =
  List.init n (fun _ ->
      match C.read_reply conn with
      | Ok r -> r
      | Error e -> Alcotest.fail ("reply: " ^ e))

(* 128 connections each with a 4-command batch in flight at once, on
   one loop, next to a connection parked in a PROFILE window.  The
   window parks its connection, not the loop: a METRICS probe and
   every batch are answered while it is still open (the gauge of the
   admission signal is exported), each connection gets its four
   replies in order, and the PROFILE answers last, after its full
   window. *)
let test_wire_many_batches_one_domain () =
  with_server ~domains:1 (module Dstruct.Btree) @@ fun _srv port ->
  let n = 128 and window_ms = 500 in
  let parker = C.connect ~retries:20 ~port () in
  let conns = Array.init n (fun _ -> C.connect ~retries:20 ~port ()) in
  let probe = C.connect ~retries:20 ~port () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter C.close conns;
      C.close probe;
      C.close parker)
  @@ fun () ->
  Alcotest.(check bool) "loop up" true (req probe P.Ping = P.Pong);
  let t0 = Unix.gettimeofday () in
  send_batch parker [ P.Profile window_ms ];
  Unix.sleepf 0.02;
  (match req probe P.Metrics with
   | P.Bulk text -> (
       match Harness.Obs_report.parse_prometheus text with
       | Error e -> Alcotest.fail ("METRICS: " ^ e)
       | Ok samples ->
           Alcotest.(check bool) "admission gauge exported" true
             (Harness.Obs_report.prom_find samples "verlib_server_queue_depth"
             <> None))
   | r -> Alcotest.fail ("METRICS: " ^ P.pp_reply r));
  Array.iteri
    (fun i c -> send_batch c [ P.Put (i, i * 10); P.Get i; P.Del i; P.Get i ])
    conns;
  Array.iteri
    (fun i c ->
      match read_replies c 4 with
      | [ P.Ok_; P.Int v; P.Int 1; P.Nil ] when v = i * 10 -> ()
      | rs ->
          Alcotest.failf "connection %d: %s" i
            (String.concat ";" (List.map P.pp_reply rs)))
    conns;
  let served = Unix.gettimeofday () -. t0 in
  if served >= float_of_int window_ms /. 1000. then
    Alcotest.failf "the batches waited out the PROFILE window (%.0f ms)"
      (served *. 1000.);
  (match read_replies parker 1 with
   | [ P.Bulk json ] ->
       Alcotest.(check bool) "PROFILE reports its window" true
         (contains json "\"window_ms\":")
   | rs ->
       Alcotest.fail ("PROFILE: " ^ String.concat ";" (List.map P.pp_reply rs)));
  let answered = Unix.gettimeofday () -. t0 in
  if answered < float_of_int window_ms /. 1000. then
    Alcotest.failf "PROFILE answered after %.0f ms, inside its window"
      (answered *. 1000.)

(* A peer that leaves while its batch is stalled forfeits the rest of
   the batch.  A stall plan holds the first command of a pipelined
   [PUT a; PUT b] for 300 ms; the client closes during the stall.  The
   stalled PUT completes (it cannot be recalled), but [b] must never be
   applied: it would be a stale write landing after the client gave up
   and replayed elsewhere. *)
let test_peer_gone_cutoff () =
  with_server ~domains:1 (module Dstruct.Btree) @@ fun _srv port ->
  let probe = C.connect ~retries:20 ~port () in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      C.close probe)
  @@ fun () ->
  let a = 11 and b = 12 in
  let x = C.connect ~retries:20 ~port () in
  Alcotest.(check bool) "connected" true (req x P.Ping = P.Pong);
  Fault.arm (stall_plan 300);
  send_batch x [ P.Put (a, 1); P.Put (b, 2) ];
  Unix.sleepf 0.1;
  C.close x;
  Unix.sleepf 0.4;
  Fault.disarm ();
  Alcotest.(check bool) "the stalled PUT a completed" true
    (req probe (P.Get a) = P.Int 1);
  Unix.sleepf 0.1;
  Alcotest.(check bool) "PUT b was never applied" true
    (req probe (P.Get b) = P.Nil)

(* --- live: admission control --------------------------------------------- *)

(* Shedding on the loop's admission signal, at [shed_queue = 1] on one
   loop.  A stall plan holds A's PUT for 200 ms inside the loop; B, C
   and D send the same batch meanwhile, so the next poll round reports
   all three readable.  Whichever the loop serves first runs with two
   still waiting (hard level: every data command shed), the second
   with one (soft level: the snapshot-heavy MGET and EXEC shed, GET
   served), the last with none.  PING and STATS are answered at every
   level, and an EXEC shed keeps its queued transaction. *)
let test_shed_queue_levels () =
  with_server ~domains:1 ~shed_queue:1 (module Dstruct.Btree)
  @@ fun srv port ->
  let a = C.connect ~retries:20 ~port () in
  let others = List.init 3 (fun _ -> C.connect ~retries:20 ~port ()) in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      List.iter C.close (a :: others))
  @@ fun () ->
  Alcotest.(check bool) "seed" true (req a (P.Put (1, 10)) = P.Ok_);
  List.iter (fun x -> ignore (req x P.Ping)) others;
  let kind = function
    | P.Busy _ -> "busy"
    | P.Bulk _ -> "bulk"
    | P.Arr (P.Int _ :: _ :: _) -> "committed"
    | r -> P.pp_reply r
  in
  let mget = P.Mget [| 1; 2 |] and served_mget = P.Arr [ P.Int 10; P.Nil ] in
  let batch k =
    [ P.Get 1; mget; P.Ping; P.Stats; P.Multi; P.Put (k, k); P.Exec 0 ]
  in
  Fault.arm (stall_plan 200);
  send_batch a [ P.Put (3, 30) ];
  Unix.sleepf 0.02;
  List.iteri (fun i x -> send_batch x (batch (100 + i))) others;
  let got =
    List.map (fun x -> List.map kind (read_replies x 7)) others
    |> List.sort compare
  in
  let level gets mgets exec =
    List.map kind [ gets; mgets; P.Pong; P.Bulk ""; P.Ok_; P.Queued; exec ]
  in
  let committed = P.Arr [ P.Int 1; P.Ok_ ] in
  Alcotest.(check (list (list string)))
    "one connection each at hard, soft and empty level"
    (List.sort compare
       [
         level (P.Busy 0) (P.Busy 0) (P.Busy 0);
         level (P.Int 10) (P.Busy 0) (P.Busy 0);
         level (P.Int 10) served_mget committed;
       ])
    got;
  Alcotest.(check bool) "A's stalled PUT" true (read_replies a 1 = [ P.Ok_ ]);
  Fault.disarm ();
  Alcotest.(check int) "shed count" 5 (S.shed_count srv);
  List.iter
    (fun x ->
      match req x (P.Exec 0) with
      | P.Arr (P.Int _ :: _) | P.Err _ -> ()
      | r -> Alcotest.fail ("EXEC retry: " ^ P.pp_reply r))
    others;
  List.iteri
    (fun i _ ->
      Alcotest.(check bool) "every kept transaction committed" true
        (req a (P.Get (100 + i)) = P.Int (100 + i)))
    others

(* --- live: the change feed ---------------------------------------------- *)

let raw_connect ?rcvbuf port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Option.iter (Unix.setsockopt_int fd Unix.SO_RCVBUF) rcvbuf;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let raw_send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let json_int conn cmd field =
  match req conn cmd with
  | P.Bulk json -> (
      let key = Printf.sprintf "\"%s\":" field in
      let nk = String.length key in
      let rec find i =
        if i + nk > String.length json then Alcotest.fail ("no field " ^ field)
        else if String.sub json i nk = key then i + nk
        else find (i + 1)
      in
      let start = find 0 in
      let stop = ref start in
      while !stop < String.length json && json.[!stop] >= '0' && json.[!stop] <= '9' do
        incr stop
      done;
      int_of_string (String.sub json start (!stop - start)))
  | r -> Alcotest.fail ("expected JSON: " ^ P.pp_reply r)

(* The kernel's socket buffers take up to tcp_wmem's maximum before a
   stream write can block, so a stalled stream's backlog counts as full
   once the feed has produced that much for its peer (its REPLSTATS
   lag_bytes, as it never ACKs). *)
let kernel_buf () =
  try
    let ic = open_in "/proc/sys/net/ipv4/tcp_wmem" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    Scanf.sscanf (input_line ic) " %d %d %d" (fun _ _ mx -> mx)
  with _ -> 4 lsl 20

(* A server with a [feed_capacity]-record feed, a SUBSCRIBE peer with a
   4 KB receive buffer that never reads, and a writer pipelining PUTs
   until [stop_writer] is forced.  [f] gets the server and a client. *)
let with_stalled_subscriber ~domains ~feed_capacity ~write_timeout f =
  Verlib.reset ();
  let mount = S.Mount.mount ~n_hint:1024 (module Dstruct.Btree) in
  let config =
    {
      S.default_config with
      S.port = 0;
      domains;
      feed_capacity;
      write_timeout;
    }
  in
  let srv = S.create ~config mount in
  S.start srv;
  Fun.protect ~finally:(fun () -> S.stop srv) @@ fun () ->
  let port = S.port srv in
  let pc = C.connect ~retries:20 ~port () in
  let fd = raw_connect ~rcvbuf:4096 port in
  let close_fd = lazy (try Unix.close fd with Unix.Unix_error _ -> ()) in
  raw_send fd "SUBSCRIBE 0 1000000000 0\r\n";
  await "stream registered" (fun () -> json_int pc P.Replstats "subscribers" = 1);
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let c = C.connect ~retries:20 ~port () in
        Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          let ops = List.init 16 (fun j -> P.Put ((!i * 16) + j, !i)) in
          (match C.pipeline c ops with
           | Ok _ -> ()
           | Error e -> Alcotest.fail ("writer: " ^ e));
          incr i
        done)
  in
  let stop_writer =
    lazy
      (Atomic.set stop true;
       Domain.join writer)
  in
  Fun.protect
    ~finally:(fun () ->
      Lazy.force stop_writer;
      Lazy.force close_fd;
      C.close pc)
  @@ fun () -> f srv pc ~stop_writer ~close_fd

(* A subscriber that never reads cannot hold the server's resources for
   long: with a 64-record feed its cursor falls behind the trim point
   and the stream ends by resync, or the write deadline kills it first.
   Other connections are served throughout, also when the stream shares
   the one loop with the PING client and the writer. *)
let test_feed_stalled_subscriber () =
  let write_timeout = 1.0 in
  List.iter
    (fun domains ->
      with_stalled_subscriber ~domains ~feed_capacity:64 ~write_timeout
      @@ fun srv pc ~stop_writer:_ ~close_fd:_ ->
      let kernel_buf = kernel_buf () in
      let give_up = Unix.gettimeofday () +. 30. in
      let kills0 = S.deadline_kill_count srv in
      let worst = ref 0. in
      let onset = ref None in
      let rec go () =
        let p0 = Unix.gettimeofday () in
        Alcotest.(check bool) "PING" true (req pc P.Ping = P.Pong);
        let now = Unix.gettimeofday () in
        worst := Float.max !worst (now -. p0);
        if !onset = None && json_int pc P.Replstats "lag_bytes" >= kernel_buf
        then onset := Some now;
        let ended =
          S.deadline_kill_count srv > kills0
          || json_int pc P.Replstats "subscribers" = 0
        in
        match !onset with
        | Some t0 when ended ->
            if now -. t0 > write_timeout +. 1. then
              Alcotest.failf
                "%d domains: stalled stream ended %.2f s after its backlog \
                 filled"
                domains (now -. t0)
        | _ when ended -> ()
        | _ when now > give_up ->
            Alcotest.failf "%d domains: stalled stream never ended" domains
        | _ ->
            Unix.sleepf 0.02;
            go ()
      in
      go ();
      if !worst > 0.5 then
        Alcotest.failf
          "%d domains: PING took %.0f ms next to the stalled stream" domains
          (!worst *. 1000.))
    [ 2; 1 ]

(* With no write deadline ([write_timeout] 0 = forever), a stalled
   stream still cannot hold up [stop]: the drain force-closes it at its
   5 s deadline like any other connection.  The feed keeps its default
   size, so the stream stalls on its peer instead of ending by resync
   (a 64-record ring is outrun by the writer within one 1 ms pump).
   [stop] runs under a watchdog, so a hang fails the test instead of
   the suite. *)
let test_feed_stalled_stop () =
  with_stalled_subscriber ~domains:2
    ~feed_capacity:S.default_config.S.feed_capacity ~write_timeout:0.
  @@ fun srv pc ~stop_writer ~close_fd ->
  (* Twice the kernel's share, so the stream is surely stalled: REPLSTATS
     estimates a record's bytes above its wire size. *)
  let backlog = 2 * kernel_buf () in
  await ~timeout:60. "stalled stream backlog" (fun () ->
      json_int pc P.Replstats "lag_bytes" >= backlog);
  Lazy.force stop_writer;
  let stopped = Atomic.make false in
  let t0 = Unix.gettimeofday () in
  let d =
    Domain.spawn (fun () ->
        S.stop srv;
        Atomic.set stopped true)
  in
  let bound = 5. +. 1. in
  while (not (Atomic.get stopped)) && Unix.gettimeofday () -. t0 < bound do
    Unix.sleepf 0.01
  done;
  let took = Unix.gettimeofday () -. t0 in
  if not (Atomic.get stopped) then begin
    (* Release a stop stuck on the stream before failing. *)
    Lazy.force close_fd;
    await ~timeout:30. "stop after the peer closed" (fun () ->
        Atomic.get stopped);
    Domain.join d;
    Alcotest.failf "stop took more than %.1f s with a stalled stream" took
  end;
  Domain.join d

(* One loop serves push streams, parked WATCHes and plain requests
   together: 3 SUBSCRIBE streams, 32 WATCHes each on its own key, a
   writer touching every watched key, and a PING probe.  Every WATCH
   fires on its record, every stream receives every record, and PINGs
   answer within 100 ms throughout. *)
let test_one_domain_streams_watches () =
  with_server ~domains:1 (module Dstruct.Btree) @@ fun _srv port ->
  let nwatch = 32 and key i = 1000 + i in
  (* Read timeouts turn a starved stream or WATCH into a failure, not a
     hang. *)
  let connect () = C.connect ~retries:20 ~read_timeout:10. ~port () in
  let streams = List.init 3 (fun _ -> connect ()) in
  let watchers = Array.init nwatch (fun _ -> connect ()) in
  let writer = C.connect ~retries:20 ~port () in
  let stop = Atomic.make false in
  let prober =
    Domain.spawn (fun () ->
        let c = connect () in
        Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
        let worst = ref 0. in
        while not (Atomic.get stop) do
          let t0 = Unix.gettimeofday () in
          (match C.request c P.Ping with
           | Ok P.Pong -> ()
           | _ -> worst := infinity);
          worst := Float.max !worst (Unix.gettimeofday () -. t0);
          Unix.sleepf 0.005
        done;
        !worst)
  in
  let worst =
    lazy
      (Atomic.set stop true;
       Domain.join prober)
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Lazy.force worst);
      List.iter C.close streams;
      Array.iter C.close watchers;
      C.close writer)
  @@ fun () ->
  List.iter
    (fun sc ->
      Alcotest.(check bool) "subscribe ok" true
        (req sc (P.Subscribe (0, 1_000_000, 0)) = P.Ok_))
    streams;
  Array.iteri
    (fun i w -> send_batch w [ P.Watch (key i, key i, 10_000) ])
    watchers;
  (* Let every WATCH park before the writes it waits for. *)
  Unix.sleepf 0.2;
  for i = 0 to nwatch - 1 do
    Alcotest.(check bool) "PUT" true (req writer (P.Put (key i, i)) = P.Ok_)
  done;
  Array.iteri
    (fun i w ->
      match C.read_reply w with
      | Ok r -> (
          match P.record_of_reply r with
          | Ok rc ->
              Alcotest.(check bool) "WATCH fired on its record" true
                (List.mem (key i, Some i) rc.Repl.r_writes)
          | Error e -> Alcotest.failf "WATCH %d: %s (%s)" i e (P.pp_reply r))
      | Error e -> Alcotest.failf "WATCH %d: %s" i e)
    watchers;
  List.iteri
    (fun s sc ->
      let seen = Hashtbl.create nwatch in
      let deadline = Unix.gettimeofday () +. 10. in
      while Hashtbl.length seen < nwatch && Unix.gettimeofday () < deadline do
        match C.read_reply sc with
        | Ok P.Ok_ -> () (* heartbeat *)
        | Ok r -> (
            match P.record_of_reply r with
            | Ok rc ->
                List.iter (fun (k, _) -> Hashtbl.replace seen k ()) rc.Repl.r_writes
            | Error e -> Alcotest.failf "stream %d frame: %s" s e)
        | Error e -> Alcotest.failf "stream %d read: %s" s e
      done;
      Alcotest.(check int) (Printf.sprintf "stream %d saw every record" s)
        nwatch (Hashtbl.length seen))
    streams;
  let worst = Lazy.force worst in
  if worst > 0.1 then
    Alcotest.failf "PING took %.0f ms next to the streams and WATCHes"
      (worst *. 1000.)

(* --- live: MULTI/EXEC transactions over the wire ------------------------ *)

let test_wire_txn_basics () =
  with_server (module Dstruct.Btree) @@ fun _srv port ->
  let conn = C.connect ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  ignore (req conn (P.Put (1, 10)));
  ignore (req conn (P.Put (2, 20)));
  (* queue a read-modify sequence and commit it *)
  Alcotest.(check bool) "multi" true (req conn P.Multi = P.Ok_);
  Alcotest.(check bool) "queued get" true (req conn (P.Get 1) = P.Queued);
  Alcotest.(check bool) "queued del" true (req conn (P.Del 1) = P.Queued);
  Alcotest.(check bool) "queued put" true (req conn (P.Put (1, 11)) = P.Queued);
  (match req conn (P.Exec 1) with
   | P.Arr (P.Int vs :: steps) ->
       Alcotest.(check bool) "versionstamp positive" true (vs > 0);
       Alcotest.(check bool) "steps" true
         (steps = [ P.Int 10; P.Int 1; P.Ok_ ])
   | r -> Alcotest.fail ("exec: " ^ P.pp_reply r));
  Alcotest.(check bool) "committed" true (req conn (P.Get 1) = P.Int 11);
  (* DISCARD drops the queue without executing *)
  ignore (req conn P.Multi);
  Alcotest.(check bool) "queued" true (req conn (P.Del 2) = P.Queued);
  Alcotest.(check bool) "discard" true (req conn P.Discard = P.Ok_);
  Alcotest.(check bool) "discarded" true (req conn (P.Get 2) = P.Int 20);
  (* state errors *)
  (match req conn (P.Exec 0) with
   | P.Err e ->
       Alcotest.(check bool) "exec without multi" true
         (String.length e >= 4 && String.sub e 0 4 = "EXEC")
   | r -> Alcotest.fail ("exec outside multi: " ^ P.pp_reply r));
  (match req conn P.Discard with
   | P.Err _ -> ()
   | r -> Alcotest.fail ("discard outside multi: " ^ P.pp_reply r));
  (* nested MULTI and non-queueable commands poison the transaction *)
  ignore (req conn P.Multi);
  (match req conn P.Multi with
   | P.Err _ -> ()
   | r -> Alcotest.fail ("nested multi: " ^ P.pp_reply r));
  (match req conn (P.Exec 0) with
   | P.Err e ->
       Alcotest.(check bool) "execabort" true
         (String.length e >= 9 && String.sub e 0 9 = "EXECABORT")
   | r -> Alcotest.fail ("exec on dirty: " ^ P.pp_reply r));
  ignore (req conn P.Multi);
  (match req conn P.Stats with
   | P.Err _ -> ()
   | r -> Alcotest.fail ("STATS in multi: " ^ P.pp_reply r));
  (match req conn (P.Exec 0) with
   | P.Err _ -> ()
   | r -> Alcotest.fail ("exec after poison: " ^ P.pp_reply r));
  (* the connection recovers fully after an EXECABORT *)
  ignore (req conn P.Multi);
  Alcotest.(check bool) "recovered" true (req conn (P.Get 2) = P.Queued);
  (match req conn (P.Exec 0) with
   | P.Arr [ P.Int _; P.Int 20 ] -> ()
   | r -> Alcotest.fail ("exec after recovery: " ^ P.pp_reply r))

let test_wire_txn_range_unordered () =
  with_server (module Dstruct.Hashtable) @@ fun _srv port ->
  let conn = C.connect ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  ignore (req conn P.Multi);
  (* RANGE can never execute on an unordered mount: rejected at queue
     time, poisoning the transaction. *)
  (match req conn (P.Range (1, 9)) with
   | P.Err _ -> ()
   | r -> Alcotest.fail ("range in multi: " ^ P.pp_reply r));
  (match req conn (P.Exec 0) with
   | P.Err e ->
       Alcotest.(check bool) "execabort after range" true
         (String.length e >= 9 && String.sub e 0 9 = "EXECABORT")
   | r -> Alcotest.fail ("exec: " ^ P.pp_reply r))

let test_wire_txn_token_replay () =
  with_server (module Dstruct.Btree) @@ fun _srv port ->
  let conn = C.connect ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  let run_txn () =
    ignore (req conn P.Multi);
    ignore (req conn (P.Put (5, 50)));
    req conn (P.Exec 777)
  in
  let first = run_txn () in
  (match first with
   | P.Arr [ P.Int _; P.Ok_ ] -> ()
   | r -> Alcotest.fail ("first exec: " ^ P.pp_reply r));
  (* Re-sending the same token must replay the cached reply verbatim —
     a live re-execution would answer EXISTS for the PUT. *)
  let second = run_txn () in
  Alcotest.(check bool) "token replay identical" true (first = second);
  Alcotest.(check bool) "effect once" true (req conn (P.Get 5) = P.Int 50)

let test_wire_txn_rt_helper () =
  with_server (module Dstruct.Btree) @@ fun _srv port ->
  let rt = C.connect_rt ~seed:11 ~port () in
  Fun.protect ~finally:(fun () -> C.rt_close rt) @@ fun () ->
  (match C.rt_txn rt [ P.Put (8, 80); P.Put (9, 90) ] with
   | Ok (vs, [ P.Ok_; P.Ok_ ]) ->
       Alcotest.(check bool) "rt_txn vs" true (vs > 0)
   | Ok (_, rs) ->
       Alcotest.fail
         ("rt_txn steps: " ^ String.concat " " (List.map P.pp_reply rs))
   | Error e -> Alcotest.fail ("rt_txn: " ^ e));
  match C.rt_request rt (P.Get 8) with
  | Ok (P.Int 80) -> ()
  | Ok r -> Alcotest.fail ("rt_txn committed: " ^ P.pp_reply r)
  | Error e -> Alcotest.fail ("get after rt_txn: " ^ e)

(* --- live: bank-transfer snapshot invariant ----------------------------- *)

(* Writer domains own disjoint account pairs (a = 2i+1, b = 2i+2, both
   seeded with [base]) and move one unit per transfer with a pipelined
   [DEL a; PUT a (va-1); DEL b; PUT b (vb+1)].  Readers MGET (and RANGE,
   on ordered structures) a pair in one snapshot: with both accounts
   present the sum must be 2*base (no transfer in flight) or 2*base - 1
   (between the two PUTs).  Because va only decreases and vb only
   increases, a non-atomic multi-read drifts outside that window. *)
let bank_over_wire map ~use_range =
  let base = 1_000 in
  let pairs = 8 in
  let nwriters = 2 and nreaders = 2 in
  with_server ~domains:2 map @@ fun _srv port ->
  (let conn = C.connect ~retries:20 ~port () in
   Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
   for i = 0 to pairs - 1 do
     ignore (req conn (P.Put ((2 * i) + 1, base)));
     ignore (req conn (P.Put ((2 * i) + 2, base)))
   done);
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let checks = Atomic.make 0 in
  let transfers = Atomic.make 0 in
  let writer w () =
    let conn = C.connect ~retries:20 ~port () in
    Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
    let owned =
      List.init pairs Fun.id |> List.filter (fun i -> i mod nwriters = w)
    in
    let va = Hashtbl.create 8 and vb = Hashtbl.create 8 in
    List.iter
      (fun i ->
        Hashtbl.replace va i base;
        Hashtbl.replace vb i base)
      owned;
    let rng = Workload.Splitmix.create (100 + w) in
    let owned = Array.of_list owned in
    while not (Atomic.get stop) do
      let i = owned.(Workload.Splitmix.below rng (Array.length owned)) in
      let a = (2 * i) + 1 and b = (2 * i) + 2 in
      let na = Hashtbl.find va i - 1 and nb = Hashtbl.find vb i + 1 in
      match
        C.pipeline conn [ P.Del a; P.Put (a, na); P.Del b; P.Put (b, nb) ]
      with
      | Ok [ _; P.Ok_; _; P.Ok_ ] ->
          Hashtbl.replace va i na;
          Hashtbl.replace vb i nb;
          Atomic.incr transfers
      | Ok _ | Error _ -> Atomic.set stop true
    done
  in
  let reader r () =
    let conn = C.connect ~retries:20 ~port () in
    Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
    let rng = Workload.Splitmix.create (200 + r) in
    while not (Atomic.get stop) do
      let i = Workload.Splitmix.below rng pairs in
      let a = (2 * i) + 1 and b = (2 * i) + 2 in
      let ranged = use_range && Workload.Splitmix.below rng 2 = 0 in
      let sum =
        if ranged then
          match C.request conn (P.Range (a, b)) with
          | Ok (P.Arr items) ->
              let rec kvs = function
                | P.Int k :: P.Int v :: rest -> (k, v) :: kvs rest
                | _ -> []
              in
              let kvs = kvs items in
              (match (List.assoc_opt a kvs, List.assoc_opt b kvs) with
               | Some x, Some y -> Some (x + y)
               | _ -> None)
          | _ -> None
        else
          match C.request conn (P.Mget [| a; b |]) with
          | Ok (P.Arr [ P.Int x; P.Int y ]) -> Some (x + y)
          | _ -> None
      in
      match sum with
      | None -> () (* an account is mid-transfer: visible DEL, skip *)
      | Some s ->
          Atomic.incr checks;
          if s <> 2 * base && s <> (2 * base) - 1 then Atomic.incr violations
    done
  in
  let ds =
    List.init nwriters (fun w -> Domain.spawn (writer w))
    @ List.init nreaders (fun r -> Domain.spawn (reader r))
  in
  Unix.sleepf 0.4;
  Atomic.set stop true;
  List.iter Domain.join ds;
  Alcotest.(check int) "no snapshot violations" 0 (Atomic.get violations);
  Alcotest.(check bool) "made transfers" true (Atomic.get transfers > 0);
  Alcotest.(check bool) "made atomic checks" true (Atomic.get checks > 0);
  (* quiescent audit: money is conserved exactly *)
  let conn = C.connect ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
  let keys = Array.init (2 * pairs) (fun j -> j + 1) in
  match C.request conn (P.Mget keys) with
  | Ok (P.Arr items) ->
      let total =
        List.fold_left
          (fun acc r ->
            match r with
            | P.Int v -> acc + v
            | _ -> Alcotest.fail "account missing at quiescence")
          0 items
      in
      Alcotest.(check int) "total conserved" (2 * base * pairs) total
  | Ok r -> Alcotest.fail ("audit: " ^ P.pp_reply r)
  | Error e -> Alcotest.fail ("audit: " ^ e)

let test_bank_btree () = bank_over_wire (module Dstruct.Btree) ~use_range:true

let test_bank_hashtable () =
  bank_over_wire (module Dstruct.Hashtable) ~use_range:false

(* --- suite -------------------------------------------------------------- *)

(* --- differential: the in-place parser against the token-list one ------ *)

(* The parser the server used before it read lines in place: split on
   single spaces, drop empty tokens, dispatch on the upper-cased verb.
   Kept verbatim as the reference, with its integer conversion made a
   parameter: [int_of_string_opt] is the old grammar, [decimal_only] the
   documented one (optional sign, decimal digits, native range). *)
module Ref_parser = struct
  let tokens line =
    let line =
      let n = String.length line in
      if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
    in
    String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

  let parse_tokens int_of toks =
    let int_arg name s k =
      match int_of s with
      | Some v -> k v
      | None -> Error (Printf.sprintf "%s: not an integer %S" name s)
    in
    try
      match toks with
      | [] -> Error "empty command"
      | verb :: args -> (
          match (String.uppercase_ascii verb, args) with
          | "PING", [] -> Ok P.Ping
          | "GET", [ k ] -> int_arg "key" k (fun k -> Ok (P.Get k))
          | "PUT", [ k; v ] ->
              int_arg "key" k (fun k -> int_arg "value" v (fun v -> Ok (P.Put (k, v))))
          | "DEL", [ k ] -> int_arg "key" k (fun k -> Ok (P.Del k))
          | "MGET", (_ :: _ as ks) ->
              let rec go acc = function
                | [] -> Ok (P.Mget (Array.of_list (List.rev acc)))
                | k :: rest -> int_arg "key" k (fun k -> go (k :: acc) rest)
              in
              go [] ks
          | "MGET", [] -> Error "MGET needs at least one key"
          | "RANGE", [ lo; hi ] ->
              int_arg "lo" lo (fun lo -> int_arg "hi" hi (fun hi -> Ok (P.Range (lo, hi))))
          | "RANGECOUNT", [ lo; hi ] ->
              int_arg "lo" lo (fun lo ->
                  int_arg "hi" hi (fun hi -> Ok (P.Rangecount (lo, hi))))
          | "SCAN", [] -> Ok (P.Scan 0)
          | "SCAN", [ n ] -> int_arg "limit" n (fun n -> Ok (P.Scan (max 0 n)))
          | "SIZE", [] -> Ok P.Size
          | "STATS", [] -> Ok P.Stats
          | "METRICS", [] -> Ok P.Metrics
          | "PROFILE", [] -> Ok (P.Profile 0)
          | "PROFILE", [ ms ] ->
              int_arg "window" ms (fun ms -> Ok (P.Profile (max 0 ms)))
          | "MULTI", [] -> Ok P.Multi
          | "EXEC", [] -> Ok (P.Exec 0)
          | "EXEC", [ t ] ->
              int_arg "token" t (fun t ->
                  if t > 0 then Ok (P.Exec t) else Error "EXEC: token must be > 0")
          | "DISCARD", [] -> Ok P.Discard
          | "SUBSCRIBE", [ lo; hi ] ->
              int_arg "lo" lo (fun lo ->
                  int_arg "hi" hi (fun hi -> Ok (P.Subscribe (lo, hi, 0))))
          | "SUBSCRIBE", [ lo; hi; seq ] ->
              int_arg "lo" lo (fun lo ->
                  int_arg "hi" hi (fun hi ->
                      int_arg "seq" seq (fun seq ->
                          if seq >= 0 then Ok (P.Subscribe (lo, hi, seq))
                          else Error "SUBSCRIBE: seq must be >= 0")))
          | "WATCH", [ lo; hi ] ->
              int_arg "lo" lo (fun lo ->
                  int_arg "hi" hi (fun hi -> Ok (P.Watch (lo, hi, 0))))
          | "WATCH", [ lo; hi; ms ] ->
              int_arg "lo" lo (fun lo ->
                  int_arg "hi" hi (fun hi ->
                      int_arg "timeout" ms (fun ms -> Ok (P.Watch (lo, hi, max 0 ms)))))
          | "SYNC", [] -> Ok P.Sync
          | "REPLSTATS", [] -> Ok P.Replstats
          | "PROMOTE", [] -> Ok P.Promote
          | "ACK", [ seq; stamp ] ->
              int_arg "seq" seq (fun seq ->
                  int_arg "stamp" stamp (fun stamp ->
                      if seq >= 0 && stamp >= 0 then Ok (P.Ack (seq, stamp))
                      else Error "ACK: seq and stamp must be >= 0"))
          | "QUIT", [] -> Ok P.Quit
          | ( (("PING" | "GET" | "PUT" | "DEL" | "RANGE" | "RANGECOUNT" | "SCAN"
               | "SIZE" | "STATS" | "METRICS" | "PROFILE" | "MULTI" | "EXEC"
               | "DISCARD" | "SUBSCRIBE" | "WATCH" | "SYNC" | "REPLSTATS"
               | "PROMOTE" | "ACK" | "QUIT") as v),
              _ ) ->
              Error (Printf.sprintf "wrong number of arguments for %s" v)
          | v, _ ->
              let v = if String.length v > 32 then String.sub v 0 32 ^ "..." else v in
              Error (Printf.sprintf "unknown command %S" v))
    with _ -> Error "unparsable command"

  let parse_traced int_of line =
    match tokens line with
    | verb :: id :: rest when String.uppercase_ascii verb = "TRACE" -> (
        match int_of id with
        | Some id when id > 0 ->
            Result.map (fun c -> (Some id, c)) (parse_tokens int_of rest)
        | Some _ | None -> Error (Printf.sprintf "TRACE: bad trace id %S" id))
    | toks -> Result.map (fun c -> (None, c)) (parse_tokens int_of toks)
end

let is_decimal s =
  let n = String.length s in
  let first = if n > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
  n > first
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s first (n - first))

let decimal_only s = if is_decimal s then int_of_string_opt s else None

(* A token the old grammar read as an integer but the documented one
   does not: hex, octal, binary, unsigned or underscored forms. *)
let non_decimal s = int_of_string_opt s <> None && not (is_decimal s)

let gen_wire_line =
  let open QCheck.Gen in
  let verbs =
    [ "PING"; "GET"; "PUT"; "DEL"; "MGET"; "RANGE"; "RANGECOUNT"; "SCAN";
      "SIZE"; "STATS"; "METRICS"; "PROFILE"; "MULTI"; "EXEC"; "DISCARD";
      "SUBSCRIBE"; "WATCH"; "SYNC"; "REPLSTATS"; "PROMOTE"; "ACK"; "QUIT";
      "TRACE"; "FOO"; "GETS"; "GE"; ""; String.make 40 'z' ]
  in
  let mixed_case s =
    map
      (fun flips ->
        String.mapi
          (fun i c -> if List.nth flips (i mod 8) then Char.lowercase_ascii c else c)
          s)
      (list_repeat 8 bool)
  in
  let number =
    oneof
      [
        map string_of_int (int_range (-1000) 1_000_000);
        map (fun n -> "+" ^ string_of_int n) (int_range 0 1000);
        map (fun n -> "000" ^ string_of_int n) (int_range 0 1000);
        oneofl
          [ string_of_int max_int; string_of_int min_int; "0"; "-0"; "+0" ];
      ]
  in
  let overflow =
    oneofl
      [ "99999999999999999999"; "4611686018427387904";
        "-4611686018427387905"; "-99999999999999999999";
        "18446744073709551616" ]
  in
  let non_decimal_form =
    oneofl
      [ "0x1F"; "0X1f"; "-0x10"; "0b1"; "0B101"; "0o17"; "0u5"; "1_000";
        "-1_0"; "0x_1" ]
  in
  let garbage = oneofl [ "abc"; "1.5"; "-"; "+"; "--1"; "1e3"; "12a"; "\t7"; "7\r" ] in
  let token =
    frequency
      [ (8, number); (1, overflow); (2, non_decimal_form); (1, garbage) ]
  in
  let spaces = map (fun n -> String.make n ' ') (int_range 1 3) in
  let* trace =
    frequency
      [ (3, return []);
        (1, map (fun id -> [ "trace"; id ]) token);
        (1, map (fun id -> [ "TRACE"; id ]) token) ]
  in
  let* verb = oneofl verbs >>= mixed_case in
  let* args = list_size (int_range 0 4) token in
  let words = trace @ (verb :: args) in
  let* seps = list_repeat (List.length words) spaces in
  let* lead = oneofl [ ""; " "; "  " ] in
  let* trail = oneofl [ ""; " "; "\r"; " \r"; "\r\r" ] in
  let body = String.concat "" (List.map2 (fun s w -> s ^ w) seps words) in
  (* [seps] supplies the space before each word; drop the first one so
     [lead] alone decides whether the line starts with spaces *)
  let body = String.sub body (String.length (List.hd seps)) (String.length body - String.length (List.hd seps)) in
  return (lead ^ body ^ trail)

let arb_wire_line = QCheck.make ~print:(Printf.sprintf "%S") gen_wire_line

let line_has_non_decimal line =
  List.exists non_decimal (Ref_parser.tokens line)

let test_parser_differential seed =
  QCheck.Test.make ~count:3000
    ~name:(Printf.sprintf "parser vs reference, seed %d" seed)
    arb_wire_line (fun line ->
      let got = P.parse_command_traced line in
      let strict = Ref_parser.parse_traced decimal_only line in
      let old = Ref_parser.parse_traced int_of_string_opt line in
      (* exact agreement with the reference on the documented grammar *)
      got = strict
      (* and with the old grammar, except that a non-decimal form now
         turns an accepted line into an error *)
      && (got = old
         || (line_has_non_decimal line && Result.is_error got))
      (* the untraced entry point is the traced one minus the prefix *)
      && (match (P.parse_command line, Ref_parser.parse_tokens decimal_only (Ref_parser.tokens line)) with
         | a, b -> a = b))

let differential_seeds = [ 1; 2; 3 ]

(* --- allocation budget ------------------------------------------------- *)

(* Minor-heap words allocated by [n] calls of [f].  [Gc.minor_words] is
   unboxed, so the measurement itself allocates nothing. *)
let minor_words_of n f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  Gc.minor_words () -. w0

let check_budget what ~calls ~per_call words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f words over %d calls <= %d per call" what words
       calls per_call)
    true
    (words <= float_of_int (calls * per_call))

(* Parsing a point command allocates the command and its [Ok] (four
   words), not tokens or copies of the line. *)
let test_parse_alloc_budget () =
  let calls = 10_000 in
  check_budget "parse GET 42" ~calls ~per_call:8
    (minor_words_of calls (fun () -> P.parse_command "GET 42"));
  Alcotest.(check bool) "parses" true (P.parse_command "GET 42" = Ok (P.Get 42))

(* Rendering an integer reply into a reused buffer allocates nothing
   beyond (at most) a small constant. *)
let test_render_alloc_budget () =
  let calls = 10_000 in
  let b = Buffer.create 64 in
  let n = ref 0 in
  check_budget "render Int" ~calls ~per_call:4
    (minor_words_of calls (fun () ->
         Buffer.clear b;
         n := !n + 7919;
         P.render_reply b (P.Int (!n - 5_000_000))));
  List.iter
    (fun n ->
      Buffer.clear b;
      P.render_reply b (P.Int n);
      Alcotest.(check string) "digits" (":" ^ string_of_int n ^ "\r\n") (Buffer.contents b))
    [ 0; 7; -7; 10; -10; 1234567890; max_int; min_int ]

(* The request span of a served GET, driven the way [Server.step],
   [exec_line] and [emit] drive it: start (backdated, [parse] open), the
   [queue] credit, the verb, [op] before the mount call, [reply] before
   rendering, finish with an outcome.  The slot's span record and ring
   entry are reused, so a command allocates nothing. *)
let test_span_alloc_budget () =
  let module Span = Verlib.Obs.Span in
  let calls = 10_000 in
  let mark = ref (Verlib.Hwclock.now ()) in
  let outcome = ref "ok" in
  check_budget "span of a served GET" ~calls ~per_call:0
    (minor_words_of calls (fun () ->
         let sp = Span.start ~begin_ticks:!mark ~cmd:"?" in
         Span.add_to sp Span.Queue (sp.Span.sp_last - sp.Span.sp_begin);
         Span.set_cmd sp "GET";
         Span.switch sp Span.Op;
         Span.switch sp Span.Reply;
         Span.finish sp ~outcome:!outcome;
         mark := sp.Span.sp_end));
  let sp = Span.start ~begin_ticks:0 ~cmd:"GET" in
  Span.switch sp Span.Op;
  Span.switch sp Span.Reply;
  Span.finish sp ~outcome:"ok";
  let sum =
    List.fold_left (fun acc p -> acc + Span.phase_ticks sp p) 0 Span.phases
  in
  Alcotest.(check bool) "phases within total" true (sum <= Span.total_ticks sp)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      test_command_roundtrip;
      test_trace_prefix_roundtrip;
      test_trace_frame_roundtrip;
      test_reply_roundtrip;
      test_parse_never_raises;
      test_reader_never_raises;
      test_record_frame_roundtrip;
      test_record_of_reply_total;
    ]

let () =
  Alcotest.run "server"
    [
      ("protocol", qsuite);
      ( "protocol-diff",
        List.map
          (fun seed ->
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| seed |])
              (test_parser_differential seed))
          differential_seeds );
      ( "alloc-budget",
        [
          Alcotest.test_case "parse GET 42" `Quick test_parse_alloc_budget;
          Alcotest.test_case "render Int" `Quick test_render_alloc_budget;
          Alcotest.test_case "span of a served GET" `Quick
            test_span_alloc_budget;
        ] );
      ( "protocol-framing",
        [
          Alcotest.test_case "split delivery" `Quick test_reader_split_delivery;
          Alcotest.test_case "record split delivery" `Quick
            test_record_split_delivery;
          Alcotest.test_case "line-fed replication frames" `Quick
            test_frames_reassembly;
        ] );
      ( "evloop",
        [
          Alcotest.test_case "Linebuf split feeds" `Quick
            test_linebuf_split_feeds;
          Alcotest.test_case "Evpoll pipe readiness" `Quick test_evpoll_pipe;
          Alcotest.test_case "serving past FD_SETSIZE" `Quick
            test_wire_beyond_fd_setsize;
          Alcotest.test_case "64 connections on 2 domains" `Quick
            test_wire_conns_exceed_domains;
          Alcotest.test_case "split-delivery ACK framing" `Quick
            test_wire_split_ack;
          Alcotest.test_case "two busy connections on 2 domains" `Quick
            test_wire_two_busy_conns;
          Alcotest.test_case "128 batches in flight on 1 domain" `Quick
            test_wire_many_batches_one_domain;
          Alcotest.test_case "peer-gone cut-off under a stall" `Quick
            test_peer_gone_cutoff;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue-length shedding levels" `Quick
            test_shed_queue_levels;
        ] );
      ( "feed",
        [
          Alcotest.test_case "stalled subscriber is bounded" `Quick
            test_feed_stalled_subscriber;
          Alcotest.test_case "streams+WATCHes+PING on 1 domain" `Quick
            test_one_domain_streams_watches;
          Alcotest.test_case "stalled stream cannot hold up stop" `Quick
            test_feed_stalled_stop;
        ] );
      ( "mount",
        [ Alcotest.test_case "typed capability" `Quick test_mount_capability ] );
      ( "wire",
        [
          Alcotest.test_case "basics" `Quick test_wire_basics;
          Alcotest.test_case "pipelining order" `Quick test_wire_pipelining_order;
          Alcotest.test_case "errors keep connection" `Quick
            test_wire_errors_keep_connection;
          Alcotest.test_case "stats json" `Quick test_wire_stats_json;
          Alcotest.test_case "graceful stop" `Quick test_wire_graceful_stop;
        ] );
      ( "txn-wire",
        [
          Alcotest.test_case "MULTI/EXEC/DISCARD state machine" `Quick
            test_wire_txn_basics;
          Alcotest.test_case "RANGE rejected at queue time (unordered)" `Quick
            test_wire_txn_range_unordered;
          Alcotest.test_case "EXEC token replay" `Quick
            test_wire_txn_token_replay;
          Alcotest.test_case "rt_txn helper" `Quick test_wire_txn_rt_helper;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "TRACE prefix rejects garbage" `Quick
            test_trace_prefix_rejects_garbage;
          Alcotest.test_case "traced request over the wire" `Quick
            test_wire_traced_request;
          Alcotest.test_case "METRICS exposition" `Quick test_wire_metrics;
          Alcotest.test_case "per-shard STATS census" `Quick
            test_wire_stats_shards;
          Alcotest.test_case "flight dump on deadline kill" `Quick
            test_flight_on_deadline_kill;
          Alcotest.test_case "STATS census from the sweep" `Quick
            test_stats_census_from_sweep;
          Alcotest.test_case "figures agree across exporters" `Quick
            test_figures_agree;
        ] );
      ( "bank-invariant",
        [
          Alcotest.test_case "btree (mget+range)" `Quick test_bank_btree;
          Alcotest.test_case "hashtable (mget)" `Quick test_bank_hashtable;
        ] );
    ]
