module Vptr = Verlib.Vptr
module Fatomic = Flock.Fatomic
module Lock = Flock.Lock

let name = "skiplist"

let range_capability = Map_intf.Ordered_range

let supports_mode (m : Vptr.mode) = m <> Vptr.Rec_once

let max_levels = 20

(* Every level's next pointer is versioned: snapshot queries use the upper
   levels to position themselves, so those pointers are "followed by
   queries" in the sense of §3.1 and must be part of the snapshot.  The
   towers also make this structure a showcase for indirection-on-need:
   linking an (already claimed) node into a higher level is exactly the
   metadata-sharing situation of Figure 1, resolved with an indirect link
   that shortcutting later removes. *)
(* A node is an inline record, so a tower cell's head holds the node
   block itself.  [Link] is the versioned pointer's indirect version and
   [Null] its null sentinel (the tail's tower). *)
type node =
  | Node of {
      key : int;
      value : int;
      nexts : node Vptr.t array; (* index = level; length = tower height *)
      removed : bool Fatomic.t; (* set at the level-0 splice (under locks) *)
      unlinked : bool Fatomic.t array;
      (* [unlinked.(l)]: this node has been spliced out of level [l] (set
         under both splice locks, monotone — a torn node is never re-linked).
         The upper-level analogue of [removed]: "p not removed" alone does NOT
         witness that p is still reachable at level l, because deletion
         unlinks the uppers first and sets [removed] only at the level-0
         splice.  Without this flag, an unlink pass with a stale predecessor
         can splice against an already-unlinked chain and silently miss its
         victim, leaving a fully-deleted node permanently reachable at an
         upper level — a ghost on which every later [find_preds] below it
         spins. *)
      tearing : bool Fatomic.t; (* removal announced; uppers being unlinked *)
      lock : Lock.t;
      meta : node Verlib.Vtypes.meta;
    }
  | Link of node Verlib.Vtypes.link
  | Null

let not_a_node () = failwith "Skiplist: link or null where a node belongs"

let meta_of = function Node n -> n.meta | Link l -> l.lmeta | Null -> not_a_node ()

let value_of = function Link l -> l.lvalue | n -> n

let link_of = function Link l -> l | _ -> invalid_arg "Skiplist: not a link"

let key = function Node n -> n.key | Link _ | Null -> not_a_node ()

let value = function Node n -> n.value | Link _ | Null -> not_a_node ()

let nexts = function Node n -> n.nexts | Link _ | Null -> not_a_node ()

let removed = function Node n -> n.removed | Link _ | Null -> not_a_node ()

let unlinked = function Node n -> n.unlinked | Link _ | Null -> not_a_node ()

let tearing = function Node n -> n.tearing | Link _ | Null -> not_a_node ()

let lock = function Node n -> n.lock | Link _ | Null -> not_a_node ()

type t = {
  head : node;
  tail : node;
  desc : node Vptr.desc;
  lock_mode : Lock.mode;
  level_rng : Workload.Splitmix.t Domain.DLS.key;
}

let height n = Array.length (nexts n)

let make_node desc lock_mode key value ~levels ~next =
  Node
    {
      key;
      value;
      nexts = Array.init levels (fun i -> Vptr.make desc (next i));
      removed = Fatomic.make false;
      unlinked = Array.init levels (fun _ -> Fatomic.make false);
      tearing = Fatomic.make false;
      lock = Lock.create ~mode:lock_mode ~site:"skiplist.lock" ();
      meta = Verlib.Vtypes.fresh_meta Null;
    }

let create ?(mode = Vptr.Ind_on_need) ?lock_mode ~n_hint:_ () =
  let lock_mode =
    match lock_mode with Some m -> m | None -> Lock.default_mode ()
  in
  let desc =
    Vptr.make_desc ~meta_of ~null:Null ~link:(fun l -> Link l) ~link_of ~value_of ~mode
  in
  let tail =
    make_node desc lock_mode max_int 0 ~levels:max_levels ~next:(fun _ -> Null)
  in
  let head =
    make_node desc lock_mode min_int 0 ~levels:max_levels ~next:(fun _ -> tail)
  in
  {
    head;
    tail;
    desc;
    lock_mode;
    level_rng =
      Domain.DLS.new_key (fun () ->
          Workload.Splitmix.create (1 + Flock.Registry.my_id ()));
  }

(* Geometric tower heights with p = 1/2. *)
let random_levels t =
  let rng = Domain.DLS.get t.level_rng in
  let rec go l =
    if l < max_levels && Workload.Splitmix.below rng 2 = 0 then go (l + 1) else l
  in
  go 1

(* Predecessor of [k] at each level (preds.(l).key < k).  All loads are
   versioned, so inside a snapshot the walk observes the tower structure
   as of the snapshot's stamp. *)
let find_preds t k =
  let preds = Array.make max_levels t.head in
  let rec go node level =
    let rec advance node =
      match Vptr.load t.desc (nexts node).(level) with
      | Node _ as nxt when key nxt < k -> advance nxt
      | Node _ | Link _ | Null -> node
    in
    let node = advance node in
    preds.(level) <- node;
    if level > 0 then go node (level - 1)
  in
  go t.head (max_levels - 1);
  preds

(* The level-0 walk continues from [preds.(0)] rather than trusting a
   single reload: between [find_preds]'s last load and a re-load of
   [preds.(0).nexts.(0)], a concurrent insert can place a key from
   (preds.(0).key, k) after the predecessor, so the re-load may surface a
   {e smaller} key.  Point operations outside snapshots must treat that
   as "keep walking" (or retry), never as evidence about [k]. *)
let find t k =
  let preds = find_preds t k in
  let rec go node =
    match Vptr.load t.desc (nexts node).(0) with
    | Node _ as n when key n < k -> go n
    | Node _ as n when key n = k -> Some (value n)
    | Node _ | Link _ | Null -> None
  in
  go preds.(0)

let check_key k =
  if k <= min_int || k >= max_int then invalid_arg "Skiplist: key out of range"

(* Ordering discipline, for snapshot soundness of [find_preds]: a node is
   linked bottom-up and unlinked top-down, so every upper-level link's
   version interval is contained in the node's level-0 interval.  A
   snapshot that reaches a node through an upper level therefore always
   finds that node's level-0 pointers live at its stamp, and the level-0
   walk cannot skip concurrently inserted keys.

   Splice [node] into level [level] after a valid predecessor; the upper
   levels are retried a few times and otherwise abandoned — they are
   search accelerators, level 0 alone defines the contents.  Returns
   whether the level is linked, so [link_upper] can keep towers {e prefix
   contiguous}: a node occupies levels [0..k] with no holes.  This is not
   cosmetic.  [find_preds] descends by walking level [l] starting from
   the predecessor it found at level [l+1], which is only sound if
   "reachable at [l+1] implies reachable at [l]" — a hole-y tower
   (linked at 2, abandoned at 1) breaks it: the hole node passes the
   liveness validation below yet its level-1 pointer is a vacuous [Null],
   so an unlink pass descending through it confirms its victim absent
   while the victim is live in the real level-1 chain, leaving a
   fully-deleted ghost permanently reachable there (and every later walk
   below the ghost spinning on dead predecessors). *)
let link_level t node level =
  let rec attempt tries =
    if tries > 0 && not (Fatomic.load (tearing node)) then begin
      let preds = find_preds t (key node) in
      let p = preds.(level) in
      let ok =
        Lock.try_lock_bool (lock p) (fun () ->
            if Fatomic.load (removed p) || Fatomic.load (unlinked p).(level) then
              false (* p is no longer reachable at this level *)
            else
              match Vptr.load t.desc (nexts p).(level) with
              | s when s == node -> true (* already linked *)
              | Node _ as s when key s > key node && not (Fatomic.load (tearing node)) ->
                  Vptr.store_locked t.desc (nexts node).(level) s;
                  Vptr.store_locked t.desc (nexts p).(level) node;
                  true
              | Node _ | Link _ | Null -> false)
      in
      if ok then true else attempt (tries - 1)
    end
    else false
  in
  attempt 3

(* Remove [node] from level [level] and do not return until its absence
   has been confirmed {e under the predecessor's lock}.  The locked
   confirmation is what makes the tearing handshake airtight: an in-flight
   linker holds the same lock while it checks [tearing] and commits, so
   either the linker commits first (and this pass, serialized after it,
   sees and removes the link) or this pass confirms absence first (and the
   linker's subsequent in-lock [tearing] check forbids the commit).

   "The same lock" is only guaranteed because both sides re-validate that
   their predecessor is still live at this level ([removed] and
   [unlinked.(level)]): the reachable chain at a level is sorted, so two
   passes that each hold a {e live} predecessor of the same key hold the
   {e same} predecessor.  A stale (already unlinked) predecessor would let
   the two passes lock different nodes and miss each other. *)
let unlink_level t node level =
  let backoff = Flock.Backoff.create () in
  let rec confirm () =
    let preds = find_preds t (key node) in
    let p = preds.(level) in
    let verdict =
      Lock.try_lock (lock p) (fun () ->
          if Fatomic.load (removed p) || Fatomic.load (unlinked p).(level) then
            (* p itself left this level between our walk and the lock:
               confirming [node]'s absence against p's (now orphaned)
               chain would be meaningless — re-locate on the live chain. *)
            `Shifted
          else
            match Vptr.load t.desc (nexts p).(level) with
            | s when s == node -> (
                (* Splice under BOTH locks.  [node.nexts.(level)] is
                   written by the unlink of [node]'s successor (which
                   holds [node.lock] as its predecessor lock), so reading
                   it with only [p.lock] races: a stale read here would
                   re-link an already-unlinked successor — a fully deleted
                   ghost permanently reachable at this level, on which
                   later unlink/link passes spin forever.  Nesting
                   [node.lock] (ascending key order, the same pred→victim
                   discipline [delete] uses at level 0; [try_lock] never
                   blocks, so lock-order cycles cannot deadlock) makes
                   read-and-splice atomic wrt successor unlinks. *)
                match
                  Lock.try_lock (lock node) (fun () ->
                      Fatomic.store (unlinked node).(level) true;
                      Vptr.store_locked t.desc (nexts p).(level)
                        (Vptr.load t.desc (nexts node).(level)))
                with
                | Some () -> `Gone
                | None -> `Shifted)
            | Node _ as s when key s > key node || (key s = key node && s != node) ->
                `Gone (* position for node's key is occupied by another/none *)
            | Null -> `Gone
            | Node _ | Link _ -> `Shifted (* list moved under us; re-locate *))
    in
    match verdict with
    | Some `Gone -> ()
    | Some `Shifted | None ->
        Flock.Backoff.once backoff;
        confirm ()
  in
  confirm ()

let unlink_upper t node =
  for level = height node - 1 downto 1 do
    unlink_level t node level
  done

let link_upper t node =
  (* Stop at the first abandoned level: towers are prefix contiguous
     (see [link_level]); giving up on level [l] gives up on [l+1..]. *)
  let rec go level =
    if level < height node && link_level t node level then go (level + 1)
  in
  go 1;
  (* close the link/delete race: if removal was announced while we were
     linking, finish the unlinking on its behalf (whichever of the two
     passes runs last sees the other's work) *)
  if Fatomic.load (tearing node) then unlink_upper t node

let insert t k v =
  check_key k;
  Flock.with_epoch (fun () ->
      let backoff = Flock.Backoff.create () in
      let rec loop () =
        let preds = find_preds t k in
        let pred = preds.(0) in
        match Vptr.load t.desc (nexts pred).(0) with
        | Node _ as succ when key succ = k -> false
        | Node _ as succ when key succ < k ->
            (* [pred] went stale between the walk and this load (see
               [find]): a key in (pred.key, k) slid in behind it.
               Committing here would order [k] before that key and
               corrupt level 0 — re-locate instead. *)
            Flock.Backoff.once backoff;
            loop ()
        | succ_or_null -> (
            let succ = match succ_or_null with Null -> t.tail | s -> s in
            let levels = random_levels t in
            let outcome =
              Lock.try_lock (lock pred) (fun () ->
                  if
                    Fatomic.load (removed pred)
                    || Vptr.load t.desc (nexts pred).(0) != succ
                  then `Retry
                  else begin
                    let node =
                      Flock.new_obj (fun () ->
                          make_node t.desc t.lock_mode k v ~levels ~next:(fun i ->
                              if i = 0 then succ else Null))
                    in
                    (* linearization point *)
                    Vptr.store_locked t.desc (nexts pred).(0) node;
                    `Done node
                  end)
            in
            match outcome with
            | Some (`Done node) ->
                if height node > 1 then link_upper t node;
                true
            | Some `Retry | None ->
                Flock.Backoff.once backoff;
                loop ())
      in
      loop ())

let delete t k =
  check_key k;
  Flock.with_epoch (fun () ->
      let backoff = Flock.Backoff.create () in
      let rec loop () =
        let preds = find_preds t k in
        let pred = preds.(0) in
        match Vptr.load t.desc (nexts pred).(0) with
        | Node _ as n when key n < k ->
            (* stale predecessor (see [find]): this load says nothing
               about [k]'s presence — re-locate *)
            Flock.Backoff.once backoff;
            loop ()
        | Node _ as victim when key victim = k -> (
            (* announce, then unlink top-down, then splice level 0: upper
               links must disappear (version-wise) before the level-0
               presence does *)
            Fatomic.store (tearing victim) true;
            if height victim > 1 then unlink_upper t victim;
            let outcome =
              Lock.try_lock (lock pred) (fun () ->
                  if
                    Fatomic.load (removed pred)
                    || Vptr.load t.desc (nexts pred).(0) != victim
                  then `Retry
                  else
                    match
                      Lock.try_lock (lock victim) (fun () ->
                          Fatomic.store (removed victim) true;
                          (* linearization point *)
                          Vptr.store_locked t.desc (nexts pred).(0)
                            (Vptr.load t.desc (nexts victim).(0)))
                    with
                    | Some () -> `Done
                    | None -> `Retry)
            in
            match outcome with
            | Some `Done -> true
            | Some `Retry | None ->
                Flock.Backoff.once backoff;
                loop ())
        | Node _ | Link _ | Null -> false
      in
      loop ())

let fold_range t lo hi ~init ~f =
  Verlib.with_snapshot (fun () ->
      let start = find_preds t lo in
      let rec collect acc node =
        match Vptr.load t.desc (nexts node).(0) with
        | Node _ as n when key n <= hi && key n <> max_int ->
            Verlib.Snapshot.check_abort ();
            collect (f acc (key n) (value n)) n
        | Node _ | Link _ | Null -> acc
      in
      collect init start.(0))

let range t lo hi = Map_intf.range_as_list fold_range t lo hi

let range_count t lo hi = fold_range t lo hi ~init:0 ~f:(fun acc _ _ -> acc + 1)

let multifind t keys = Map_intf.multifind_via_snapshot find t keys

let scan t ~init ~f = Map_intf.scan_via_fold_range fold_range t ~init ~f

(* Census walk: every tower cell of every node reachable at level 0 —
   the level where all nodes appear.  Passive ([Vptr.peek]). *)
let iter_vptrs t emit =
  let rec walk n =
    Array.iter (fun c -> emit (Verlib.Chainscan.Target (t.desc, c))) (nexts n);
    if key n <> max_int then
      match Vptr.peek t.desc (nexts n).(0) with
      | Node _ as m -> walk m
      | Link _ | Null -> ()
  in
  walk t.head

let shard_views t = Map_intf.single_shard_view name iter_vptrs t

let to_sorted_list t =
  let rec collect acc node =
    match Vptr.load t.desc (nexts node).(0) with
    | Node _ as n when key n <> max_int -> collect ((key n, (value n)) :: acc) n
    | Node _ | Link _ | Null -> List.rev acc
  in
  collect [] t.head

let size t = List.length (to_sorted_list t)

(* Quiescent invariants: level 0 sorted with no removed nodes; each upper
   level a sorted sublist of level 0. *)
let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let level0 = Hashtbl.create 256 in
  let rec walk0 node =
    match Vptr.load t.desc (nexts node).(0) with
    | Node _ as n when key n <> max_int ->
        if Fatomic.load (removed n) then
          fail "Skiplist.check: removed node reachable at level 0";
        if key n <= key node then fail "Skiplist.check: level-0 keys not increasing";
        Hashtbl.replace level0 (key n) ();
        walk0 n
    | Node _ | Link _ | Null -> ()
  in
  walk0 t.head;
  for level = 1 to max_levels - 1 do
    let rec walk node prev_key =
      match Vptr.load t.desc (nexts node).(level) with
      | Node _ as n when key n <> max_int ->
          if key n <= prev_key then fail "Skiplist.check: level %d not sorted" level;
          if not (Hashtbl.mem level0 (key n)) then
            fail "Skiplist.check: level %d key %d missing from level 0" level (key n);
          walk n (key n)
      | Node _ | Link _ | Null -> ()
    in
    walk t.head min_int
  done
