(* The benchmark's op streams, their expected replies, and the checkers.

   Every workload mounts a btree (IndOnNeed, lock-free locks) prefilled
   server-side with keys 1..[n] bound to themselves.  A generator owns a
   sequential model of the state its connection writes; because each
   workload has a single writing connection that the server answers in
   order, the model predicts every reply exactly.  Reads sent to a
   replica race its apply stream, so they are checked for shape and
   atomicity only (present keys, whole ranges, conserved pair sums). *)

module P = Server.Protocol
module Rng = Workload.Splitmix

let n = 100_000

(* txn-feed accounts: pair [i] is (base-1-i, base+1+i).  Prefill binds
   each key to itself, so every pair starts summing to exactly
   [2 * base] and no set-up traffic is needed. *)
let base = n / 2

let pair_count = 256

let pair i = (base - 1 - i, base + 1 + i)

type op =
  | Get of int
  | Put of int * int
  | Del of int
  | Mget of int array
  | Range of int * int
  | Update of int * int  (** MULTI; DEL k; PUT k v; EXEC *)
  | Transfer of { a : int; b : int; va : int; vb : int }
      (** MULTI; DEL a; PUT a va; DEL b; PUT b vb; EXEC token *)

type expect =
  | Value of int option  (** GET, exact *)
  | Any_value  (** GET against a lagging replica *)
  | Put_done of bool  (** [+OK] when true, [+EXISTS] when false *)
  | Del_done of bool  (** [:1] when true, [:0] when false *)
  | Vals of int array  (** MGET: every key present, with these values *)
  | Present  (** MGET: every key present *)
  | Pairs of (int * int) array  (** RANGE: exactly these bindings *)
  | Keys  (** RANGE: exactly one binding per key of the range *)
  | Committed  (** EXEC: versionstamp, then [:1] / [+OK] per DEL / PUT *)
  | Sum of int  (** MGET: every key present, values summing to this *)

type req = { op : op; expect : expect }

(* [Failed] is a request the server refused or could not complete
   ([-ERR], [-BUSY], [-ABORT] after the server's own validation
   retries); [Wrong] is a reply that contradicts the model. *)
type verdict = Pass | Failed of string | Wrong of string

let commands ~token = function
  | Get k -> [ P.Get k ]
  | Put (k, v) -> [ P.Put (k, v) ]
  | Del k -> [ P.Del k ]
  | Mget ks -> [ P.Mget ks ]
  | Range (lo, hi) -> [ P.Range (lo, hi) ]
  | Update (k, v) -> [ P.Multi; P.Del k; P.Put (k, v); P.Exec 0 ]
  | Transfer { a; b; va; vb } ->
      [ P.Multi; P.Del a; P.Put (a, va); P.Del b; P.Put (b, vb); P.Exec token ]

(* A request whose success writes one change record to the feed. *)
let changes_state r =
  match r.expect with Put_done true | Del_done true | Committed -> true | _ -> false

let verb = function
  | Get _ -> "GET"
  | Put _ -> "PUT"
  | Del _ -> "DEL"
  | Mget _ -> "MGET"
  | Range _ -> "RANGE"
  | Update _ -> "UPDATE"
  | Transfer _ -> "TRANSFER"

let refusal = function
  | P.Err e -> Some ("-ERR " ^ e)
  | P.Busy ms -> Some (Printf.sprintf "-BUSY %d" ms)
  | P.Aborted k -> Some (Printf.sprintf "-ABORT %d" k)
  | _ -> None

let rec flat_pairs = function
  | P.Int k :: P.Int v :: tl -> Option.map (fun r -> (k, v) :: r) (flat_pairs tl)
  | [] -> Some []
  | _ -> None

let all_int = List.for_all (function P.Int _ -> true | _ -> false)

(* MULTI answers +OK, each queued step +QUEUED, EXEC the stamp then one
   reply per step: [:1] for a DEL of a present key, [+OK] for the PUT
   that rebinds it. *)
let committed steps replies =
  match replies with
  | P.Ok_ :: rest -> (
      match List.rev rest with
      | P.Arr (P.Int vs :: results) :: queued ->
          vs > 0
          && List.length queued = steps
          && List.for_all (( = ) P.Queued) queued
          && List.length results = steps
          && List.for_all2
               (fun i r -> r = if i land 1 = 0 then P.Int 1 else P.Ok_)
               (List.init steps Fun.id) results
      | _ -> false)
  | _ -> false

let matches req replies =
  match (req.expect, replies) with
  | Value None, [ P.Nil ] -> true
  | Value (Some v), [ P.Int x ] -> x = v
  | Any_value, [ (P.Nil | P.Int _) ] -> true
  | Put_done true, [ P.Ok_ ] | Put_done false, [ P.Exists ] -> true
  | Del_done d, [ P.Int x ] -> x = if d then 1 else 0
  | Vals vs, [ P.Arr l ] ->
      List.length l = Array.length vs
      && List.for_all2 (fun r v -> r = P.Int v) l (Array.to_list vs)
  | Present, [ P.Arr l ] -> (
      match req.op with
      | Mget ks -> List.length l = Array.length ks && all_int l
      | _ -> false)
  | Pairs ps, [ P.Arr l ] -> flat_pairs l = Some (Array.to_list ps)
  | Keys, [ P.Arr l ] -> (
      match (req.op, flat_pairs l) with
      | Range (lo, hi), Some kvs -> List.map fst kvs = List.init (hi - lo + 1) (( + ) lo)
      | _ -> false)
  | Committed, _ -> (
      match req.op with
      | Update _ -> committed 2 replies
      | Transfer _ -> committed 4 replies
      | _ -> false)
  | Sum s, [ P.Arr l ] -> (
      match req.op with
      | Mget ks ->
          List.length l = Array.length ks
          && all_int l
          && List.fold_left (fun acc r -> match r with P.Int v -> acc + v | _ -> acc) 0 l = s
      | _ -> false)
  | _ -> false

let check req replies =
  match List.find_map refusal replies with
  | Some f -> Failed (verb req.op ^ ": " ^ f)
  | None ->
      if matches req replies then Pass
      else
        Wrong
          (Printf.sprintf "%s got %s" (verb req.op)
             (String.concat " " (List.map P.pp_reply replies)))

(* --- generators ---------------------------------------------------------- *)

(* Value by key, 0 = absent (every written value is positive).  Keys
   run 1..2n: kv-point draws from twice the prefilled span. *)
type model = int array

let prefilled () : model = Array.init ((2 * n) + 1) (fun k -> if k <= n then k else 0)

let value rng = 1 + Rng.below rng 1_000_000_000

let found (m : model) k = if m.(k) = 0 then None else Some m.(k)

(* kv-point: 90% GET / 5% PUT / 5% DEL, uniform over 1..2n, so about
   half the GETs miss and PUT/DEL both hit and miss. *)
let kv_point rng (m : model) () =
  let k = 1 + Rng.below rng (2 * n) in
  let r = Rng.below rng 100 in
  if r < 90 then { op = Get k; expect = Value (found m k) }
  else if r < 95 then begin
    let v = value rng in
    let fresh = m.(k) = 0 in
    if fresh then m.(k) <- v;
    { op = Put (k, v); expect = Put_done fresh }
  end
  else begin
    let present = m.(k) <> 0 in
    m.(k) <- 0;
    { op = Del k; expect = Del_done present }
  end

let range_width = 64

let mget_width = 16

(* kv-scan: 40% MGET of 16 keys, 40% RANGE of 64 consecutive keys, 20%
   value updates as one DEL+PUT transaction.  Keys stay in 1..n, so
   every key read is present and every range is full. *)
let kv_scan rng (m : model) () =
  let r = Rng.below rng 100 in
  if r < 40 then
    let ks = Array.init mget_width (fun _ -> 1 + Rng.below rng n) in
    { op = Mget ks; expect = Vals (Array.map (fun k -> m.(k)) ks) }
  else if r < 80 then
    let lo = 1 + Rng.below rng (n - range_width + 1) in
    {
      op = Range (lo, lo + range_width - 1);
      expect = Pairs (Array.init range_width (fun i -> (lo + i, m.(lo + i))));
    }
  else begin
    let k = 1 + Rng.below rng n in
    let v = value rng in
    m.(k) <- v;
    { op = Update (k, v); expect = Committed }
  end

(* txn-feed writer: move 1..3 units between the two accounts of a
   random pair, as one tokened transaction. *)
let transfer rng (m : model) () =
  let a, b = pair (Rng.below rng pair_count) in
  let d = (1 + Rng.below rng 3) * if Rng.below rng 2 = 0 then 1 else -1 in
  m.(a) <- m.(a) - d;
  m.(b) <- m.(b) + d;
  { op = Transfer { a; b; va = m.(a); vb = m.(b) }; expect = Committed }

(* txn-feed auditor: read one pair at once from the replica. *)
let audit rng () =
  let a, b = pair (Rng.below rng pair_count) in
  { op = Mget [| a; b |]; expect = Sum (2 * base) }

(* Replica probe readers for kv-point / kv-scan (traced run only). *)
let replica_point rng () = { op = Get (1 + Rng.below rng (2 * n)); expect = Any_value }

let replica_scan rng () =
  if Rng.below rng 2 = 0 then
    { op = Mget (Array.init mget_width (fun _ -> 1 + Rng.below rng n)); expect = Present }
  else
    let lo = 1 + Rng.below rng (n - range_width + 1) in
    { op = Range (lo, lo + range_width - 1); expect = Keys }

(* --- whole-state checks --------------------------------------------------- *)

(* First difference between a full dump (ascending bindings over
   1..2n) and the model. *)
let state_diff (m : model) bindings =
  let seen = Array.make (Array.length m) 0 in
  let bad = ref None in
  List.iter
    (fun (k, v) ->
      if !bad = None then
        if k < 1 || k >= Array.length m then bad := Some (Printf.sprintf "stray key %d" k)
        else seen.(k) <- v)
    bindings;
  if !bad = None then
    Array.iteri
      (fun k v ->
        if !bad = None && k > 0 && seen.(k) <> v then
          bad := Some (Printf.sprintf "key %d: have %d, model %d (0 = absent)" k seen.(k) v))
      m;
  !bad

(* Exact conservation over every account pair of a dump. *)
let conservation bindings =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bindings;
  let rec go i =
    if i >= pair_count then None
    else
      let a, b = pair i in
      match (Hashtbl.find_opt tbl a, Hashtbl.find_opt tbl b) with
      | Some va, Some vb when va + vb = 2 * base -> go (i + 1)
      | va, vb ->
          let s = function Some v -> string_of_int v | None -> "absent" in
          Some (Printf.sprintf "pair %d/%d: %s + %s <> %d" a b (s va) (s vb) (2 * base))
  in
  go 0
