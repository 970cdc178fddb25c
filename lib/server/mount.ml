type t =
  | Mount : {
      m : (module Dstruct.Map_intf.MAP with type t = 'a);
      h : 'a;
      store : Txn.Store.t;
          (** transactional facade over [h]; ALL writes (including
              single-key PUT/DEL) route through it so plain traffic
              participates in stripe versioning and transactions
              validate against it *)
    }
      -> t

let mount ?mode ?lock_mode ~n_hint (map : (module Dstruct.Map_intf.MAP)) =
  let module M = (val map) in
  let h = M.create ?mode ?lock_mode ~n_hint () in
  Mount { m = (module M); h; store = Txn.Store.create (module M) h }

let name (Mount { m = (module M); _ }) = M.name

let size (Mount { m = (module M); h; _ }) = M.size h

let range_capability (Mount { m = (module M); _ }) = M.range_capability

let iter_vptrs (Mount { m = (module M); h; _ }) emit = M.iter_vptrs h emit

let shard_views (Mount { m = (module M); h; _ }) = M.shard_views h

let store (Mount { store; _ }) = store

let scan_limit_cap = 1 lsl 20

(* Uncapped snapshot fold — the SYNC bootstrap payload.  Read the feed's
   tail {e before} calling this: any record at or below that tail was
   fully installed before the fold's snapshot, so snapshot + suffix
   replay converges (docs/REPLICATION.md). *)
let dump (Mount { m = (module M); h; _ }) =
  List.rev (M.scan h ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

let unsupported_range name =
  Protocol.Err
    (Printf.sprintf
       "unsupported: RANGE on unordered structure %S; use MGET or SCAN" name)

(* Flat [k; v; k; v; ...] arrays, Redis-style, so the reply grammar
   needs no nesting. *)
let pairs_reply pairs =
  Protocol.Arr (List.concat_map (fun (k, v) -> Protocol.[ Int k; Int v ]) pairs)

let exec (Mount { m = (module M); h; store }) (c : Protocol.command) :
    Protocol.reply =
  try
    match c with
    | Protocol.Ping -> Protocol.Pong
    (* Data reads go through [Txn]'s serialized wrappers, not the bare
       structure: a multi-key install is a sequence of map calls, and
       an unbracketed snapshot could observe its intermediate state.
       SCAN and SIZE below stay structure-level diagnostics. *)
    | Protocol.Get k -> (
        match Txn.get store k with
        | Some v -> Protocol.Int v
        | None -> Protocol.Nil)
    | Protocol.Put (k, v) ->
        if Txn.put store k v then Protocol.Ok_ else Protocol.Exists
    | Protocol.Del k -> Protocol.Int (if Txn.del store k then 1 else 0)
    | Protocol.Mget ks ->
        Protocol.Arr
          (Array.to_list (Txn.mget store ks)
          |> List.map (function
               | Some v -> Protocol.Int v
               | None -> Protocol.Nil))
    | Protocol.Range (lo, hi) -> (
        match M.range_capability with
        | Dstruct.Map_intf.Unordered -> unsupported_range M.name
        | Dstruct.Map_intf.Ordered_range -> pairs_reply (Txn.range store lo hi))
    | Protocol.Rangecount (lo, hi) -> (
        match M.range_capability with
        | Dstruct.Map_intf.Unordered -> unsupported_range M.name
        | Dstruct.Map_intf.Ordered_range ->
            Protocol.Int (Txn.range_count store lo hi))
    | Protocol.Scan limit ->
        let limit = if limit = 0 then scan_limit_cap else min limit scan_limit_cap in
        (* One snapshot fold; bindings beyond [limit] are walked but not
           returned (the fold has no early exit by design — it must
           visit the snapshot it was given). *)
        let _, pairs =
          M.scan h ~init:(0, []) ~f:(fun (n, acc) k v ->
              if n < limit then (n + 1, (k, v) :: acc) else (n + 1, acc))
        in
        pairs_reply (List.rev pairs)
    | Protocol.Size -> Protocol.Int (M.size h)
    | Protocol.Stats | Protocol.Metrics | Protocol.Profile _ | Protocol.Multi
    | Protocol.Exec _ | Protocol.Discard | Protocol.Quit
    | Protocol.Subscribe _ | Protocol.Watch _ | Protocol.Sync
    | Protocol.Replstats | Protocol.Promote | Protocol.Ack _ ->
        Protocol.Err "connection-level command reached the executor"
  with e -> Protocol.Err ("internal: " ^ Printexc.to_string e)

(* --- transactions -------------------------------------------------------- *)

let op_of_command : Protocol.command -> Txn.op option = function
  | Protocol.Get k -> Some (Txn.Get k)
  | Protocol.Put (k, v) -> Some (Txn.Put (k, v))
  | Protocol.Del k -> Some (Txn.Del k)
  | Protocol.Mget ks -> Some (Txn.Mget ks)
  | Protocol.Range (lo, hi) -> Some (Txn.Range (lo, hi))
  | Protocol.Rangecount (lo, hi) -> Some (Txn.Rangecount (lo, hi))
  | Protocol.Ping | Protocol.Scan _ | Protocol.Size | Protocol.Stats
  | Protocol.Metrics | Protocol.Profile _ | Protocol.Multi | Protocol.Exec _
  | Protocol.Discard | Protocol.Quit | Protocol.Subscribe _ | Protocol.Watch _
  | Protocol.Sync | Protocol.Replstats | Protocol.Promote | Protocol.Ack _ ->
      None

let reply_of_step : Txn.step -> Protocol.reply = function
  | Txn.S_ok -> Protocol.Ok_
  | Txn.S_exists -> Protocol.Exists
  | Txn.S_nil -> Protocol.Nil
  | Txn.S_int n -> Protocol.Int n
  | Txn.S_vals vs ->
      Protocol.Arr
        (List.map
           (function Some v -> Protocol.Int v | None -> Protocol.Nil)
           vs)
  | Txn.S_pairs ps -> pairs_reply ps

let exec_txn (Mount { m = (module M); store; _ }) ~token cs :
    Protocol.reply =
  try
    let wants_order =
      List.exists
        (function
          | Protocol.Range _ | Protocol.Rangecount _ -> true | _ -> false)
        cs
    in
    match M.range_capability with
    | Dstruct.Map_intf.Unordered when wants_order -> unsupported_range M.name
    | Dstruct.Map_intf.Unordered | Dstruct.Map_intf.Ordered_range ->
        let ops = List.filter_map op_of_command cs in
        if List.length ops <> List.length cs then
          (* The server only queues transactional commands; this is a
             belt-and-braces guard for direct callers. *)
          Protocol.Err "EXEC: non-transactional command queued"
        else (
          match Txn.exec ~token store ops with
          | Txn.Committed { vs; steps; _ } ->
              Protocol.Arr (Protocol.Int vs :: List.map reply_of_step steps)
          | Txn.Aborted { attempts } -> Protocol.Aborted attempts)
  with e -> Protocol.Err ("internal: " ^ Printexc.to_string e)
