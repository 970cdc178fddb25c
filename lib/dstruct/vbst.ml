let name = "vbst"

let range_capability = Map_intf.Ordered_range

let supports_mode (m : Verlib.Vptr.mode) = m = Verlib.Vptr.Plain

type node =
  | Empty
  | Leaf of { k : int; v : int }
  | Inner of inner

and inner = {
  key : int; (* keys < key go left, >= key go right *)
  left : node Atomic.t;
  right : node Atomic.t;
  ilock : Mutex.t;
  mutable removed : bool;
}

type t = {
  root : node Atomic.t;
  root_lock : Mutex.t;
  version : int Atomic.t; (* bumped once per completed update *)
  inflight : int Atomic.t; (* updates between swap-start and bump *)
  rw : Rwlock.t; (* escalation path for starved queries *)
}

let create ?mode:_ ?lock_mode:_ ~n_hint:_ () =
  {
    root = Atomic.make Empty;
    root_lock = Mutex.create ();
    version = Atomic.make 0;
    inflight = Atomic.make 0;
    rw = Rwlock.create ();
  }

(* A slot is the atomic cell a node lives in, plus the lock and liveness
   witness guarding it. *)
type slot = { cell : node Atomic.t; lock : Mutex.t; live : unit -> bool }

let root_slot t = { cell = t.root; lock = t.root_lock; live = (fun () -> true) }

let side_slot (p : inner) left =
  {
    cell = (if left then p.left else p.right);
    lock = p.ilock;
    live = (fun () -> not p.removed);
  }

let locked slot f =
  Mutex.lock slot.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock slot.lock) f

(* Publish one atomic swap: the inflight/version pair lets range queries
   detect any swap that overlaps their traversal (seqlock-style). *)
let publish t slot node =
  Atomic.incr t.inflight;
  Atomic.set slot.cell node;
  Atomic.incr t.version;
  Atomic.decr t.inflight

let find t k =
  let rec go node =
    match node with
    | Empty -> None
    | Leaf l -> if l.k = k then Some l.v else None
    | Inner n -> go (Atomic.get (if k < n.key then n.left else n.right))
  in
  go (Atomic.get t.root)

let mk_inner a b =
  (* [a] and [b] are leaves with distinct keys *)
  let ka = match a with Leaf l -> l.k | Empty | Inner _ -> assert false in
  let kb = match b with Leaf l -> l.k | Empty | Inner _ -> assert false in
  let key = max ka kb in
  let lo, hi = if ka < kb then (a, b) else (b, a) in
  Inner
    {
      key;
      left = Atomic.make lo;
      right = Atomic.make hi;
      ilock = Mutex.create ();
      removed = false;
    }

(* Bind [k] under its leaf slot's lock; a present key is overwritten by
   one leaf swap when [replace].  Returns whether [k] was already
   bound. *)
let bind t k v ~replace =
  Rwlock.with_read t.rw (fun () ->
      let rec attempt () =
        (* descend to the leaf slot *)
        let rec go slot node =
          match node with
          | Inner n -> go (side_slot n (k < n.key)) (Atomic.get (if k < n.key then n.left else n.right))
          | Empty | Leaf _ -> (slot, node)
        in
        let slot, seen = go (root_slot t) (Atomic.get t.root) in
        let r =
          locked slot (fun () ->
              if not (slot.live () && Atomic.get slot.cell == seen) then None
              else
                match seen with
                | Empty ->
                    publish t slot (Leaf { k; v });
                    Some false
                | Leaf l when l.k = k ->
                    if replace then publish t slot (Leaf { k; v });
                    Some true
                | Leaf _ ->
                    publish t slot (mk_inner seen (Leaf { k; v }));
                    Some false
                | Inner _ -> None)
        in
        match r with Some b -> b | None -> attempt ()
      in
      attempt ())

let insert t k v = not (bind t k v ~replace:false)

let upsert t k v = bind t k v ~replace:true

let delete t k =
  Rwlock.with_read t.rw (fun () ->
      let rec attempt () =
        (* [pslot] is where [node] lives, [gslot] where its parent [p]
           lives; at the leaf this yields the splice points. *)
        let rec go gslot (p : inner option) pslot node =
          match node with
          | Inner n ->
              let left = k < n.key in
              go pslot (Some n) (side_slot n left)
                (Atomic.get (if left then n.left else n.right))
          | Empty | Leaf _ -> (gslot, p, node)
        in
        let gslot, parent, seen =
          go (root_slot t) None (root_slot t) (Atomic.get t.root)
        in
        match seen with
        | Empty -> false
        | Leaf l when l.k <> k -> false
        | Inner _ -> attempt ()
        | Leaf _ -> (
            match parent with
            | None ->
                (* leaf at root *)
                let r =
                  locked (root_slot t) (fun () ->
                      if Atomic.get t.root == seen then begin
                        publish t (root_slot t) Empty;
                        Some true
                      end
                      else None)
                in
                (match r with Some b -> b | None -> attempt ())
            | Some p ->
                let r =
                  locked gslot (fun () ->
                      if not (gslot.live ()) then None
                      else
                        match Atomic.get gslot.cell with
                        | Inner q when q == p ->
                            Mutex.lock p.ilock;
                            Fun.protect
                              ~finally:(fun () -> Mutex.unlock p.ilock)
                              (fun () ->
                                let on_left = Atomic.get p.left == seen in
                                let on_right = Atomic.get p.right == seen in
                                if not (on_left || on_right) then None
                                else begin
                                  p.removed <- true;
                                  let sibling =
                                    Atomic.get (if on_left then p.right else p.left)
                                  in
                                  publish t gslot sibling;
                                  Some true
                                end)
                        | Empty | Leaf _ | Inner _ -> None)
                in
                (match r with Some b -> b | None -> attempt ()))
      in
      attempt ())

(* Range queries: optimistic traversal validated against the update
   counter, escalating to the writer-excluding lock when starved. *)
let collect_range t lo hi =
  let acc = ref [] in
  let rec go node =
    match node with
    | Empty -> ()
    | Leaf l -> if l.k >= lo && l.k <= hi then acc := (l.k, l.v) :: !acc
    | Inner n ->
        if lo < n.key then go (Atomic.get n.left);
        if hi >= n.key then go (Atomic.get n.right)
  in
  go (Atomic.get t.root);
  List.rev !acc

let max_attempts = 8

let validated t collect =
  let rec attempt tries =
    if tries >= max_attempts then Rwlock.with_write t.rw collect
    else begin
      let v1 = Atomic.get t.version in
      if Atomic.get t.inflight <> 0 then attempt (tries + 1)
      else begin
        let r = collect () in
        if Atomic.get t.inflight = 0 && Atomic.get t.version = v1 then r
        else attempt (tries + 1)
      end
    end
  in
  attempt 0

let range t lo hi = validated t (fun () -> collect_range t lo hi)

let range_count t lo hi = List.length (range t lo hi)

let multifind t keys = validated t (fun () -> Array.map (fun k -> find t k) keys)

(* One validated collect, then a pure fold: the whole scan observes a
   single seqlock-validated state. *)
let scan t ~init ~f =
  List.fold_left
    (fun acc (k, v) -> f acc k v)
    init
    (validated t (fun () -> collect_range t min_int max_int))

(* No versioned pointers: the vbst is a plain-atomics baseline (seqlock
   range queries), so the census has nothing to walk. *)
let iter_vptrs (_ : t) (_ : Verlib.Chainscan.target -> unit) = ()

let shard_views t = Map_intf.single_shard_view name iter_vptrs t

let to_sorted_list t = range t min_int max_int

let size t = List.length (to_sorted_list t)

let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let rec go node lo hi =
    match node with
    | Empty -> ()
    | Leaf l -> if l.k < lo || l.k >= hi then fail "Vbst.check: leaf out of range"
    | Inner n ->
        if n.removed then fail "Vbst.check: removed node reachable";
        if n.key < lo || n.key >= hi then fail "Vbst.check: key out of range";
        (match Atomic.get n.left with
         | Empty -> fail "Vbst.check: empty left slot in external tree"
         | _ -> ());
        (match Atomic.get n.right with
         | Empty -> fail "Vbst.check: empty right slot in external tree"
         | _ -> ());
        go (Atomic.get n.left) lo n.key;
        go (Atomic.get n.right) n.key hi
  in
  go (Atomic.get t.root) min_int max_int
