module Vptr = Verlib.Vptr
module Fatomic = Flock.Fatomic
module Lock = Flock.Lock

let name = "btree"

let range_capability = Map_intf.Ordered_range

let supports_mode (_ : Vptr.mode) = true

(* Occupancy bounds.  Leaves hold [1 .. leaf_max] entries (0 only for an
   empty root); inner nodes hold [2 .. inner_max] children.  The paper's
   B-tree uses 4..22 children; we keep the same shape with slightly
   smaller nodes. *)
let leaf_max = 15

let leaf_min = 4

let inner_max = 16

let inner_min = 4

(* Leaves and inner nodes are inline records: a child cell's head holds
   the node block itself, so reaching a child's keys is three dependent
   loads (cell, node, keys).  [Link] is the versioned pointer's indirect
   version and [Null] its null sentinel; neither ever comes back from
   [Vptr.load] on a well-formed tree. *)
type node =
  | Leaf of {
      lkeys : int array; (* sorted *)
      lvals : int array;
      lmeta : node Verlib.Vtypes.meta;
    }
  | Inner of {
      ikeys : int array; (* separators; length = #children - 1 *)
      children : node Vptr.t array; (* immutable array of versioned cells *)
      imeta : node Verlib.Vtypes.meta;
      ilock : Lock.t;
      iremoved : bool Fatomic.t;
    }
  | Link of node Verlib.Vtypes.link
  | Null

type t = {
  root : node Vptr.t;
  rlock : Lock.t;
  desc : node Vptr.desc;
  lock_mode : Lock.mode;
  rec_once : bool; (* copy instead of re-recording at root collapse *)
}

let corrupt () = failwith "Btree: link or null where a node belongs (corrupt tree)"

let meta_of = function
  | Leaf l -> l.lmeta
  | Inner n -> n.imeta
  | Link l -> l.lmeta
  | Null -> corrupt ()

let value_of = function Link l -> l.lvalue | n -> n

let link_of = function Link l -> l | _ -> invalid_arg "Btree: not a link"

let mk_leaf lkeys lvals = Leaf { lkeys; lvals; lmeta = Verlib.Vtypes.fresh_meta Null }

let mk_inner t ikeys kids =
  Inner
    {
      ikeys;
      children = Array.map (fun c -> Vptr.make t.desc c) kids;
      imeta = Verlib.Vtypes.fresh_meta Null;
      ilock = Lock.create ~mode:t.lock_mode ~site:"btree.ilock" ();
      iremoved = Fatomic.make false;
    }

let create ?(mode = Vptr.Ind_on_need) ?lock_mode ~n_hint:_ () =
  let lock_mode =
    match lock_mode with Some m -> m | None -> Lock.default_mode ()
  in
  let desc =
    Vptr.make_desc ~meta_of ~null:Null ~link:(fun l -> Link l) ~link_of ~value_of ~mode
  in
  {
    root = Vptr.make desc (mk_leaf [||] [||]);
    rlock = Lock.create ~mode:lock_mode ~site:"btree.rlock" ();
    desc;
    lock_mode;
    rec_once = mode = Vptr.Rec_once;
  }

(* A slot is "the place a node is stored": the cell to swing plus the lock
   and liveness witness that guard it.  The root cell is a slot whose
   owner is never removed. *)
type slot = { s_lock : Lock.t; s_cell : node Vptr.t; s_live : unit -> bool }

let root_slot t = { s_lock = t.rlock; s_cell = t.root; s_live = (fun () -> true) }

let child_slot ilock children iremoved i =
  {
    s_lock = ilock;
    s_cell = children.(i);
    s_live = (fun () -> not (Fatomic.load iremoved));
  }

let load_cell t cell = Vptr.load t.desc cell

(* Validation is by physical identity of the loaded node value, so all
   code paths must thread the original [node] they loaded (rebuilding a
   leaf or inner node would never compare equal). *)
let slot_holds t (slot : slot) (expected : node) =
  slot.s_live () && load_cell t slot.s_cell == expected

(* Child index for key [k]: first child whose interval contains [k].
   The descent helpers below are top-level recursions, not local [go]
   closures, so a read-only find allocates nothing on the way down. *)
let rec child_index_from (ikeys : int array) (k : int) i =
  if i < Array.length ikeys && k >= ikeys.(i) then child_index_from ikeys k (i + 1)
  else i

let child_index ikeys k = child_index_from ikeys k 0

let node_full = function
  | Leaf l -> Array.length l.lkeys >= leaf_max
  | Inner n -> Array.length n.children >= inner_max
  | Link _ | Null -> corrupt ()

let node_underfull = function
  | Leaf l -> Array.length l.lkeys < leaf_min
  | Inner n -> Array.length n.children < inner_min
  | Link _ | Null -> corrupt ()

(* --- pure array surgery on immutable nodes --------------------------- *)

let rec leaf_search (lkeys : int array) (lvals : int array) k lo hi =
  if lo >= hi then None
  else
    let mid = (lo + hi) / 2 in
    let km = lkeys.(mid) in
    if km = k then Some lvals.(mid)
    else if km < k then leaf_search lkeys lvals k (mid + 1) hi
    else leaf_search lkeys lvals k lo mid

let leaf_find lkeys lvals k = leaf_search lkeys lvals k 0 (Array.length lkeys)

let array_insert a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let array_remove a i =
  let n = Array.length a in
  let b = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) b i (n - 1 - i);
  b

(* insertion position of k in sorted array *)
let rec lower_bound_from (a : int array) (k : int) i =
  if i < Array.length a && a.(i) < k then lower_bound_from a k (i + 1) else i

let lower_bound a k = lower_bound_from a k 0

let leaf_with lkeys lvals k v =
  let i = lower_bound lkeys k in
  mk_leaf (array_insert lkeys i k) (array_insert lvals i v)

(* An overwrite shares the key array: only the value slot changes. *)
let leaf_replacing lkeys lvals k v =
  let lvals = Array.copy lvals in
  lvals.(lower_bound lkeys k) <- v;
  mk_leaf lkeys lvals

let leaf_without lkeys lvals k =
  let i = lower_bound lkeys k in
  mk_leaf (array_remove lkeys i) (array_remove lvals i)

let split_arrays keys vals =
  let n = Array.length keys in
  let mid = n / 2 in
  ( mk_leaf (Array.sub keys 0 mid) (Array.sub vals 0 mid),
    keys.(mid),
    mk_leaf (Array.sub keys mid (n - mid)) (Array.sub vals mid (n - mid)) )

(* Current children of an inner node; only safe while the node is locked
   (or the tree is quiescent). *)
let snapshot_children t children = Array.map (load_cell t) children

(* Replace the [span] adjacent children of [p] starting at index [i] by
   [replacements], with [seps] as the separators between the replacements
   (so |seps| = |replacements| - 1), producing a fresh inner node.  The
   span-1 separators interior to the replaced range are dropped; the ones
   flanking it are kept. *)
let inner_rebuild t ~ikeys ~children i ~span replacements seps =
  assert (Array.length seps = Array.length replacements - 1);
  let kids = snapshot_children t children in
  let n = Array.length kids in
  let nreps = Array.length replacements in
  let kids' = Array.make (n - span + nreps) replacements.(0) in
  Array.blit kids 0 kids' 0 i;
  Array.blit replacements 0 kids' i nreps;
  Array.blit kids (i + span) kids' (i + nreps) (n - i - span);
  let keys' = Array.make (Array.length kids' - 1) 0 in
  Array.blit ikeys 0 keys' 0 i;
  Array.blit seps 0 keys' i (Array.length seps);
  Array.blit ikeys
    (i + span - 1)
    keys'
    (i + Array.length seps)
    (Array.length ikeys - (i + span - 1));
  mk_inner t keys' kids'

(* Merge children [i] and [i+1] of [p], producing the fresh inner node,
   after the caller has frozen both children. *)
let merge_or_share t ~ikeys ~children i (a : node) (b : node) =
  match (a, b) with
  | Leaf la, Leaf lb ->
      let keys = Array.append la.lkeys lb.lkeys in
      let vals = Array.append la.lvals lb.lvals in
      if Array.length keys <= leaf_max then
        inner_rebuild t ~ikeys ~children i ~span:2 [| mk_leaf keys vals |] [||]
      else begin
        let l1, sep, l2 = split_arrays keys vals in
        inner_rebuild t ~ikeys ~children i ~span:2 [| l1; l2 |] [| sep |]
      end
  | Inner na, Inner nb ->
      let sep = ikeys.(i) in
      let kids =
        Array.append (snapshot_children t na.children) (snapshot_children t nb.children)
      in
      let keys = Array.concat [ na.ikeys; [| sep |]; nb.ikeys ] in
      if Array.length kids <= inner_max then
        inner_rebuild t ~ikeys ~children i ~span:2 [| mk_inner t keys kids |] [||]
      else begin
        let n = Array.length kids in
        let mid = n / 2 in
        let left = mk_inner t (Array.sub keys 0 (mid - 1)) (Array.sub kids 0 mid) in
        let right =
          mk_inner t (Array.sub keys mid (n - 1 - mid)) (Array.sub kids mid (n - mid))
        in
        inner_rebuild t ~ikeys ~children i ~span:2 [| left; right |] [| keys.(mid - 1) |]
      end
  | (Leaf _ | Inner _ | Link _ | Null), _ ->
      failwith "Btree: siblings of different kinds (corrupt tree)"

let mark_removed iremoved = Fatomic.store iremoved true

(* --- structural repairs ----------------------------------------------
   Each repair validates under locks, replaces nodes with fresh copies and
   publishes with a single [store_locked] on the slot's cell.  Returning
   [false] means "validation failed or lock unavailable": the caller
   restarts from the root. *)

(* Split the full child at index [i] of [pnode] (an inner node stored in
   [pslot]): the parent gains a child, so the parent itself is rebuilt and
   published with one swing of [pslot]'s cell.

   Lock order is strictly top-down (pslot owner, then p, then the child),
   and every node whose cells are copied is marked removed while its own
   lock is held — after that point no leaf operation can pass validation
   under it, so the copies cannot lose updates. *)
let split_child t (pslot : slot) (pnode : node) ~ikeys ~children ~ilock ~iremoved i =
  Lock.try_lock_bool pslot.s_lock (fun () ->
      if not (slot_holds t pslot pnode) then false
      else if Array.length children >= inner_max then false (* repair p first *)
      else
        match
          Lock.try_lock ilock (fun () ->
              match load_cell t children.(i) with
              | Leaf l when Array.length l.lkeys >= leaf_max ->
                  let l1, sep, l2 = split_arrays l.lkeys l.lvals in
                  mark_removed iremoved;
                  Some (inner_rebuild t ~ikeys ~children i ~span:1 [| l1; l2 |] [| sep |])
              | Inner c when Array.length c.children >= inner_max ->
                  Lock.try_lock c.ilock (fun () ->
                      let kids = snapshot_children t c.children in
                      let n = Array.length kids in
                      let mid = n / 2 in
                      let left =
                        mk_inner t (Array.sub c.ikeys 0 (mid - 1)) (Array.sub kids 0 mid)
                      in
                      let right =
                        mk_inner t
                          (Array.sub c.ikeys mid (n - 1 - mid))
                          (Array.sub kids mid (n - mid))
                      in
                      mark_removed c.iremoved;
                      mark_removed iremoved;
                      inner_rebuild t ~ikeys ~children i ~span:1 [| left; right |]
                        [| c.ikeys.(mid - 1) |])
              | Leaf _ | Inner _ -> None (* no longer full: nothing to do *)
              | Link _ | Null -> corrupt ())
        with
        | Some (Some replacement) ->
            Vptr.store_locked t.desc pslot.s_cell replacement;
            true
        | Some None | None -> false)

(* Rebalance the under-occupied child at index [i] of [pnode] with its
   right (or left, at the boundary) sibling: merge or redistribute,
   rebuilding the parent. *)
let rebalance_child t (pslot : slot) (pnode : node) ~ikeys ~children ~ilock ~iremoved i =
  if Array.length children < 2 then false
  else begin
    let i = if i = Array.length children - 1 then i - 1 else i in
    Lock.try_lock_bool pslot.s_lock (fun () ->
        if not (slot_holds t pslot pnode) then false
        else
          match
            Lock.try_lock ilock (fun () ->
                match (load_cell t children.(i), load_cell t children.(i + 1)) with
                | (Leaf _ as a), (Leaf _ as b) ->
                    if node_underfull a || node_underfull b then begin
                      mark_removed iremoved;
                      Some (merge_or_share t ~ikeys ~children i a b)
                    end
                    else None
                | (Inner na as a), (Inner nb as b) ->
                    if node_underfull a || node_underfull b then
                      Lock.try_lock na.ilock (fun () ->
                          Lock.try_lock nb.ilock (fun () ->
                              mark_removed na.iremoved;
                              mark_removed nb.iremoved;
                              mark_removed iremoved;
                              merge_or_share t ~ikeys ~children i a b))
                      |> Option.join
                    else None
                | (Leaf _ | Inner _ | Link _ | Null), _ ->
                    failwith "Btree: siblings of different kinds")
          with
          | Some (Some replacement) ->
              Vptr.store_locked t.desc pslot.s_cell replacement;
              true
          | Some None | None -> false)
  end

(* Root repairs: grow on a full root, shrink on a single-child root. *)
let repair_root t =
  ignore
    (Lock.try_lock t.rlock (fun () ->
         match load_cell t t.root with
         | Leaf l when Array.length l.lkeys >= leaf_max ->
             let l1, sep, l2 = split_arrays l.lkeys l.lvals in
             Vptr.store_locked t.desc t.root (mk_inner t [| sep |] [| l1; l2 |])
         | Inner n when Array.length n.children >= inner_max -> begin
             match
               Lock.try_lock n.ilock (fun () ->
                   let kids = snapshot_children t n.children in
                   let c = Array.length kids in
                   let mid = c / 2 in
                   let left = mk_inner t (Array.sub n.ikeys 0 (mid - 1)) (Array.sub kids 0 mid) in
                   let right =
                     mk_inner t (Array.sub n.ikeys mid (c - 1 - mid)) (Array.sub kids mid (c - mid))
                   in
                   mark_removed n.iremoved;
                   mk_inner t [| n.ikeys.(mid - 1) |] [| left; right |])
             with
             | Some r -> Vptr.store_locked t.desc t.root r
             | None -> ()
           end
         | Inner n when Array.length n.children = 1 -> begin
             match
               Lock.try_lock n.ilock (fun () ->
                   let only = load_cell t n.children.(0) in
                   mark_removed n.iremoved;
                   (* re-recording [only] at the root is the one place the
                      paper's btree is not recorded-once; in RecOnce mode
                      copy it instead *)
                   if t.rec_once then
                     match only with
                     | Leaf l -> mk_leaf (Array.copy l.lkeys) (Array.copy l.lvals)
                     | Inner c -> mk_inner t (Array.copy c.ikeys) (snapshot_children t c.children)
                     | Link _ | Null -> corrupt ()
                   else only)
             with
             | Some r -> Vptr.store_locked t.desc t.root r
             | None -> ()
           end
         | Leaf _ | Inner _ -> ()
         | Link _ | Null -> corrupt ()))

(* --- finds ------------------------------------------------------------ *)

let rec find_in t node k =
  match node with
  | Leaf l -> leaf_find l.lkeys l.lvals k
  | Inner p -> find_in t (load_cell t p.children.(child_index p.ikeys k)) k
  | Link _ | Null -> corrupt ()

let find t k = find_in t (load_cell t t.root) k

(* --- updates ----------------------------------------------------------
   Descend eagerly repairing problematic children, then perform the leaf
   update under the leaf's slot lock.  Any validation failure restarts
   from the root (the repair that caused it made progress). *)

type op = Insert of int | Delete | Upsert of int

(* An [Upsert] of a key absent from a full leaf: the leaf must split
   before it can take the key. *)
exception Leaf_full

(* Perform [op] on the leaf [lnode] stored in [lslot]; [None] means the
   situation changed (or the lock was contended) and the caller must
   restart from the root.  An [Upsert] reports whether [k] was bound. *)
let leaf_op t (lslot : slot) (lnode : node) lkeys lvals k op =
  Lock.try_lock lslot.s_lock (fun () ->
      if not (slot_holds t lslot lnode) then None
      else
        match (op, leaf_find lkeys lvals k) with
        | Insert _, Some _ -> Some false (* already present *)
        | Delete, None -> Some false
        | Upsert v, Some _ ->
            Vptr.store_locked t.desc lslot.s_cell (leaf_replacing lkeys lvals k v);
            Some true
        | (Insert v | Upsert v), None ->
            if Array.length lkeys >= leaf_max then None (* split first *)
            else begin
              Vptr.store_locked t.desc lslot.s_cell (leaf_with lkeys lvals k v);
              match op with Insert _ -> Some true | _ -> Some false
            end
        | Delete, Some _ ->
            Vptr.store_locked t.desc lslot.s_cell (leaf_without lkeys lvals k);
            Some true)
  |> Option.join

let update t k op =
  (* [descend] returns [Some result] or [None] to restart from the root;
     each restart follows a repair (progress) or lock contention
     (backoff).  [grow] splits full nodes on the way down: always for an
     insert, and for an upsert only once its key turned out absent from
     a full leaf; an overwrite changes no occupancy. *)
  let rec descend grow pslot node : bool option =
    match node with
    | Leaf l -> (
        match op with
        | Upsert _
          when (not grow)
               && Array.length l.lkeys >= leaf_max
               && leaf_find l.lkeys l.lvals k = None ->
            raise_notrace Leaf_full
        | _ -> leaf_op t pslot node l.lkeys l.lvals k op)
    | Inner p ->
        if Fatomic.load p.iremoved then None
        else begin
          let i = child_index p.ikeys k in
          let child = load_cell t p.children.(i) in
          match op with
          | (Insert _ | Upsert _) when grow && node_full child ->
              ignore
                (split_child t pslot node ~ikeys:p.ikeys ~children:p.children
                   ~ilock:p.ilock ~iremoved:p.iremoved i);
              None
          | Delete when node_underfull child ->
              ignore
                (rebalance_child t pslot node ~ikeys:p.ikeys ~children:p.children
                   ~ilock:p.ilock ~iremoved:p.iremoved i);
              None
          | Insert _ | Delete | Upsert _ ->
              descend grow (child_slot p.ilock p.children p.iremoved i) child
        end
    | Link _ | Null -> corrupt ()
  in
  let backoff = Flock.Backoff.create () in
  let rec attempt grow =
    let r = load_cell t t.root in
    let repair_needed =
      match (r, op) with
      | (Leaf _ | Inner _), (Insert _ | Upsert _) -> grow && node_full r
      | Inner n, Delete -> Array.length n.children = 1
      | Leaf _, Delete -> false
      | (Link _ | Null), _ -> corrupt ()
    in
    if repair_needed then begin
      repair_root t;
      Flock.Backoff.once backoff;
      attempt grow
    end
    else
      match descend grow (root_slot t) r with
      | Some result -> result
      | None ->
          Flock.Backoff.once backoff;
          attempt grow
      | exception Leaf_full -> attempt true
  in
  attempt (match op with Insert _ -> true | Delete | Upsert _ -> false)

let insert t k v = Flock.with_epoch (fun () -> update t k (Insert v))

let delete t k = Flock.with_epoch (fun () -> update t k Delete)

(* One descent: a present key is overwritten by one leaf copy, an
   absent one is inserted into its leaf.  Only a key absent from a full
   leaf descends again, splitting on the way down as an insert does. *)
let upsert t k v = Flock.with_epoch (fun () -> update t k (Upsert v))

(* --- queries ----------------------------------------------------------- *)

let fold_range t lo hi ~init ~f =
  Verlib.with_snapshot (fun () ->
      let rec go acc node =
        Verlib.Snapshot.check_abort ();
        match node with
        | Leaf l ->
            let acc = ref acc in
            for i = 0 to Array.length l.lkeys - 1 do
              let k = l.lkeys.(i) in
              if k >= lo && k <= hi then acc := f !acc k l.lvals.(i)
            done;
            !acc
        | Inner p ->
            (* child i covers [ikeys.(i-1), ikeys.(i)) *)
            let nkids = Array.length p.children in
            let acc = ref acc in
            for i = 0 to nkids - 1 do
              let child_lo = if i = 0 then min_int else p.ikeys.(i - 1) in
              let child_hi = if i = nkids - 1 then max_int else p.ikeys.(i) in
              if child_lo <= hi && (child_hi > lo || child_hi = max_int) then
                acc := go !acc (load_cell t p.children.(i))
            done;
            !acc
        | Link _ | Null -> corrupt ()
      in
      go init (load_cell t t.root))

let range t lo hi = Map_intf.range_as_list fold_range t lo hi

let range_count t lo hi = fold_range t lo hi ~init:0 ~f:(fun acc _ _ -> acc + 1)

let multifind t keys = Map_intf.multifind_via_snapshot find t keys

let scan t ~init ~f = Map_intf.scan_via_fold_range fold_range t ~init ~f

(* Census walk: the root cell plus every child cell, recursively.
   Passive ([Vptr.peek]): the census must not help, shortcut or
   truncate. *)
let iter_vptrs t emit =
  let rec walk cell =
    emit (Verlib.Chainscan.Target (t.desc, cell));
    match Vptr.peek t.desc cell with
    | Inner n -> Array.iter walk n.children
    | Leaf _ | Link _ | Null -> ()
  in
  walk t.root

let shard_views t = Map_intf.single_shard_view name iter_vptrs t

let to_sorted_list t = range t min_int max_int

let size t = range_count t min_int max_int

(* --- invariant checking (quiescent) ------------------------------------ *)

let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* returns depth *)
  let rec go node lo hi is_root =
    match node with
    | Leaf l ->
        let n = Array.length l.lkeys in
        if n <> Array.length l.lvals then fail "Btree.check: key/val length mismatch";
        if n > leaf_max then fail "Btree.check: leaf too large";
        if n = 0 && not is_root then fail "Btree.check: empty non-root leaf";
        for i = 0 to n - 1 do
          let k = l.lkeys.(i) in
          if i > 0 && l.lkeys.(i - 1) >= k then fail "Btree.check: leaf keys not sorted";
          if k < lo || k >= hi then fail "Btree.check: leaf key %d outside [%d,%d)" k lo hi
        done;
        1
    | Inner p ->
        let c = Array.length p.children in
        if c > inner_max then fail "Btree.check: inner too wide";
        if c < 2 then fail "Btree.check: inner with <2 children";
        if Array.length p.ikeys <> c - 1 then fail "Btree.check: key/child count mismatch";
        if Fatomic.load p.iremoved then fail "Btree.check: removed node reachable";
        Array.iteri
          (fun i k ->
            if k < lo || k >= hi then fail "Btree.check: separator outside range";
            if i > 0 && p.ikeys.(i - 1) >= k then fail "Btree.check: separators not sorted")
          p.ikeys;
        let depths =
          Array.to_list
            (Array.mapi
               (fun i cell ->
                 let clo = if i = 0 then lo else p.ikeys.(i - 1) in
                 let chi = if i = c - 1 then hi else p.ikeys.(i) in
                 go (load_cell t cell) clo chi false)
               p.children)
        in
        (match depths with
         | d :: rest ->
             if not (List.for_all (fun x -> x = d) rest) then
               fail "Btree.check: unbalanced depths";
             d + 1
         | [] -> assert false)
    | Link _ | Null -> fail "Btree.check: link or null in the tree"
  in
  ignore (go (load_cell t t.root) min_int max_int true)

let shape t =
  let rec go (inner, leaves) node =
    match node with
    | Leaf _ -> (inner, leaves + 1)
    | Inner p ->
        Array.fold_left (fun acc c -> go acc (load_cell t c)) (inner + 1, leaves)
          p.children
    | Link _ | Null -> corrupt ()
  in
  go (0, 0) (load_cell t t.root)

(* Debug aid: print the tree shape with occupancy and removal marks. *)
let debug_dump t =
  let rec go node indent =
    match node with
    | Leaf l ->
        Printf.printf "%sLeaf[%d]%s\n" indent (Array.length l.lkeys)
          (if Array.length l.lkeys = 0 then " EMPTY" else
           Printf.sprintf " %d..%d" l.lkeys.(0) l.lkeys.(Array.length l.lkeys - 1))
    | Inner p ->
        Printf.printf "%sInner[%d]%s keys=%s\n" indent (Array.length p.children)
          (if Fatomic.load p.iremoved then " REMOVED" else "")
          (String.concat "," (Array.to_list (Array.map string_of_int p.ikeys)));
        Array.iter (fun c -> go (load_cell t c) (indent ^ "  ")) p.children
    | Link _ | Null -> Printf.printf "%s(link or null)\n" indent
  in
  go (load_cell t t.root) ""
