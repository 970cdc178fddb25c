(* The layer ledger, measured from outside the program: the writer's op
   stream of a workload replayed in-process through successive public
   entry points, each with its own prefilled btree:

     map     Dstruct.Btree.find / insert / delete / multifind / range
     txn     Txn.get / put / del / mget / range / exec
     tap     the same, on a store tapped by a Repl.Log
     served  Protocol.parse_command, Mount.exec / exec_txn,
             Protocol.render_reply into one reused Buffer

   Each request goes through all four in turn before the next one, so
   heap growth and host noise fall on every layer alike; the tap cost,
   a small difference of two layers, needs that most.  Every public call
   is timed and recorded as one span.  A layer's self time is its
   figure minus the one below it (mount - txn, txn - map). *)

module P = Server.Protocol
module B = Dstruct.Btree

let mode = Verlib.Vptr.Ind_on_need

let lock_mode = Flock.Lock.Lock_free

type layer = { id : int;  (** span name *) mutable ticks : int; mutable words : float }

type result = {
  ops : int;
  commits : int;  (** state-changing requests among [ops] *)
  map : layer;
  txn : layer;
  tap : layer;
  parse : layer;
  mount : layer;
  render : layer;
  wrong : string option;  (** first Mount reply the checker rejected *)
}

let layer spans name = { id = Spans.intern spans name; ticks = 0; words = 0. }

let ns_per_op r l = Verlib.Hwclock.to_us l.ticks *. 1000. /. float_of_int r.ops

(* What the served path itself spends per request: parse, mount and
   render, in us. *)
let served_us r = (ns_per_op r r.parse +. ns_per_op r r.mount +. ns_per_op r r.render) /. 1000.

let bytes_per_op r l = l.words *. float_of_int (Sys.word_size / 8) /. float_of_int r.ops

(* Clock ticks and minor-heap words of one call.  [Gc.minor_words] is
   unboxed, so the bracket itself allocates nothing. *)
let timed spans l req f =
  let w0 = Gc.minor_words () in
  let t0 = Verlib.Hwclock.now () in
  let r = f () in
  let t1 = Verlib.Hwclock.now () in
  let w1 = Gc.minor_words () in
  l.ticks <- l.ticks + (t1 - t0);
  l.words <- l.words +. (w1 -. w0);
  Spans.add spans ~name:l.id ~req t0 t1;
  r

let prefilled_btree () =
  let h = B.create ~mode ~lock_mode ~n_hint:Ops.n () in
  for k = 1 to Ops.n do
    ignore (B.insert h k k)
  done;
  h

let map_call h (op : Ops.op) =
  match op with
  | Get k -> ignore (B.find h k)
  | Put (k, v) -> ignore (B.insert h k v)
  | Del k -> ignore (B.delete h k)
  | Mget ks -> ignore (B.multifind h ks)
  | Range (lo, hi) -> ignore (B.range h lo hi)
  | Update (k, v) ->
      ignore (B.delete h k);
      ignore (B.insert h k v)
  | Transfer { a; b; va; vb } ->
      ignore (B.delete h a);
      ignore (B.insert h a va);
      ignore (B.delete h b);
      ignore (B.insert h b vb)

let txn_call st ~token (op : Ops.op) =
  match op with
  | Get k -> ignore (Txn.get st k)
  | Put (k, v) -> ignore (Txn.put st k v)
  | Del k -> ignore (Txn.del st k)
  | Mget ks -> ignore (Txn.mget st ks)
  | Range (lo, hi) -> ignore (Txn.range st lo hi)
  | Update (k, v) -> ignore (Txn.exec st [ Txn.Del k; Txn.Put (k, v) ])
  | Transfer { a; b; va; vb } ->
      ignore (Txn.exec ~token st [ Txn.Del a; Txn.Put (a, va); Txn.Del b; Txn.Put (b, vb) ])

(* The way a server worker runs one request: parse every line; MULTI
   and queued lines are session state answered +OK / +QUEUED; a single
   command or the EXEC goes to the mount; every reply is rendered. *)
let served_call spans ~parse ~mount ~render mt buf req lines =
  let cmds =
    List.map
      (fun line ->
        match timed spans parse req (fun () -> P.parse_command line) with
        | Ok c -> c
        | Error e -> failwith ("ledger parse: " ^ e))
      lines
  in
  let replies =
    match cmds with
    | P.Multi :: rest -> (
        match List.rev rest with
        | P.Exec token :: rev_body ->
            let body = List.rev rev_body in
            (P.Ok_ :: List.map (fun _ -> P.Queued) body)
            @ [ timed spans mount req (fun () -> Server.Mount.exec_txn mt ~token body) ]
        | _ -> failwith "ledger: MULTI without EXEC")
    | [ c ] -> [ timed spans mount req (fun () -> Server.Mount.exec mt c) ]
    | _ -> failwith "ledger: unexpected command group"
  in
  Buffer.clear buf;
  List.iter (fun rep -> timed spans render req (fun () -> P.render_reply buf rep)) replies;
  replies

let run (reqs : Ops.req array) spans =
  Verlib.reset ~lock_mode ();
  let h = prefilled_btree () in
  let st = Txn.Store.create (module B) (prefilled_btree ()) in
  let tapped = Txn.Store.create (module B) (prefilled_btree ()) in
  Repl.Log.tap (Repl.Log.create ()) tapped;
  let mt = Server.Mount.mount ~mode ~lock_mode ~n_hint:Ops.n (module B) in
  for k = 1 to Ops.n do
    ignore (Server.Mount.exec mt (P.Put (k, k)))
  done;
  (* Wire lines are rendered before timing starts, without CRLF. *)
  let lines =
    Array.mapi
      (fun i (r : Ops.req) ->
        List.map
          (fun c ->
            let s = P.command_line c in
            String.sub s 0 (String.length s - 2))
          (Ops.commands ~token:(i + 1) r.op))
      reqs
  in
  let map = layer spans "map" and txn = layer spans "txn" and tap = layer spans "txn+tap" in
  let parse = layer spans "protocol.parse"
  and mount = layer spans "mount"
  and render = layer spans "protocol.render" in
  let buf = Buffer.create 65536 in
  let wrong = ref None in
  Gc.full_major ();
  Array.iteri
    (fun i (r : Ops.req) ->
      let replies = ref [] in
      let stages =
        [|
          (fun () -> timed spans map i (fun () -> map_call h r.op));
          (fun () -> timed spans txn i (fun () -> txn_call st ~token:(i + 1) r.op));
          (fun () -> timed spans tap i (fun () -> txn_call tapped ~token:(i + 1) r.op));
          (fun () -> replies := served_call spans ~parse ~mount ~render mt buf i lines.(i));
        |]
      in
      (* Rotate which layer goes first, so none is the one that always
         finds the caches colder. *)
      for s = 0 to 3 do
        stages.((i + s) land 3) ()
      done;
      match Ops.check r !replies with
      | Pass -> ()
      | Failed m | Wrong m -> if !wrong = None then wrong := Some m)
    reqs;
  let commits = Array.fold_left (fun c r -> if Ops.changes_state r then c + 1 else c) 0 reqs in
  { ops = Array.length reqs; commits; map; txn; tap; parse; mount; render; wrong = !wrong }
