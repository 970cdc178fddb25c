module Vptr = Verlib.Vptr
module Fatomic = Flock.Fatomic
module Lock = Flock.Lock

let name = "dlist"

let range_capability = Map_intf.Ordered_range

(* Removal stores an existing node into the predecessor's next pointer, so
   the list is not recorded-once (the paper, likewise, only builds a
   recorded-once variant of the B-tree). *)
let supports_mode (m : Vptr.mode) = m <> Vptr.Rec_once

(* Keys are restricted to ]min_int, max_int[ so the sentinels can carry
   the extreme keys, as the paper assumes ("a sentinel infinite key"). *)
(* A node is an inline record, so a [next] head holds the node block
   itself.  [Link] is the versioned pointer's indirect version and [Null]
   its null sentinel (the tail's [next]). *)
type node =
  | Node of {
      key : int;
      value : int;
      next : node Vptr.t;
      prev : node Fatomic.t; (* not versioned: queries never follow it *)
      removed : bool Fatomic.t; (* not versioned *)
      lock : Lock.t;
      meta : node Verlib.Vtypes.meta;
    }
  | Link of node Verlib.Vtypes.link
  | Null

type t = { head : node; desc : node Vptr.desc; lock_mode : Lock.mode }

let not_a_node () = invalid_arg "Dlist: key out of supported range"

let meta_of = function
  | Node n -> n.meta
  | Link l -> l.lmeta
  | Null -> not_a_node ()

let value_of = function Link l -> l.lvalue | n -> n

let link_of = function Link l -> l | _ -> invalid_arg "Dlist: not a link"

let key = function Node n -> n.key | Link _ | Null -> not_a_node ()

let value = function Node n -> n.value | Link _ | Null -> not_a_node ()

let next = function Node n -> n.next | Link _ | Null -> not_a_node ()

let prev = function Node n -> n.prev | Link _ | Null -> not_a_node ()

let removed = function Node n -> n.removed | Link _ | Null -> not_a_node ()

let lock = function Node n -> n.lock | Link _ | Null -> not_a_node ()

let make_node desc lock_mode key value ~next ~prev =
  Node
    {
      key;
      value;
      next = Vptr.make desc next;
      prev = Fatomic.make prev;
      removed = Fatomic.make false;
      lock = Lock.create ~mode:lock_mode ~site:"dlist.lock" ();
      meta = Verlib.Vtypes.fresh_meta Null;
    }

let create ?(mode = Vptr.Ind_on_need) ?lock_mode ~n_hint:_ () =
  let lock_mode =
    match lock_mode with Some m -> m | None -> Lock.default_mode ()
  in
  let desc =
    Vptr.make_desc ~meta_of ~null:Null ~link:(fun l -> Link l) ~link_of ~value_of ~mode
  in
  let tail = make_node desc lock_mode max_int 0 ~next:Null ~prev:Null in
  let head = make_node desc lock_mode min_int 0 ~next:tail ~prev:Null in
  Fatomic.store (prev tail) head;
  { head; desc; lock_mode }

let next_node t n = Vptr.load t.desc (next n)

(* First node with key >= k (Algorithm 3's find_node). *)
let find_node t k =
  let rec advance cur = if k > key cur then advance (next_node t cur) else cur in
  advance (next_node t t.head)

let find t k =
  let cur = find_node t k in
  if key cur = k then Some (value cur) else None

let check_key k =
  if k <= min_int || k >= max_int then invalid_arg "Dlist: key out of range"

let insert t k v =
  check_key k;
  Flock.with_epoch (fun () ->
      let rec loop () =
        let nxt = find_node t k in
        if key nxt = k then false
        else begin
          let prv =
            match Fatomic.load (prev nxt) with Null -> t.head | p -> p
          in
          let ok =
            key prv < k
            && Lock.try_lock_bool (lock prv) (fun () ->
                   if
                     Fatomic.load (removed prv) (* validate *)
                     || Vptr.load t.desc (next prv) != nxt
                   then false (* try again *)
                   else begin
                     let cur =
                       Flock.new_obj (fun () ->
                           make_node t.desc t.lock_mode k v ~next:nxt ~prev:prv)
                     in
                     Vptr.store_locked t.desc (next prv) cur (* splice in *);
                     Fatomic.store (prev nxt) cur;
                     true
                   end)
          in
          if ok then true else loop ()
        end
      in
      loop ())

let delete t k =
  check_key k;
  Flock.with_epoch (fun () ->
      let rec loop () =
        let cur = find_node t k in
        if key cur <> k then false
        else begin
          let prv = match Fatomic.load (prev cur) with Null -> t.head | p -> p in
          let outcome =
            Lock.try_lock (lock prv) (fun () ->
                if
                  Fatomic.load (removed prv)
                  || Vptr.load t.desc (next prv) != cur
                then `Retry
                else
                  (* holding prev's lock with prev.next = cur pins cur in
                     the list, so cur cannot be concurrently removed *)
                  match
                    Lock.try_lock (lock cur) (fun () ->
                        Fatomic.store (removed cur) true;
                        let nxt = next_node t cur in
                        Vptr.store_locked t.desc (next prv) nxt (* splice out *);
                        Fatomic.store (prev nxt) prv)
                  with
                  | Some () -> `Done
                  | None -> `Retry)
          in
          match outcome with
          | Some `Done -> true
          | Some `Retry | None -> loop ()
        end
      in
      loop ())

let upsert t k v = Map_intf.upsert_via_delete_insert insert delete t k v

let fold_range t lo hi ~init ~f =
  Verlib.with_snapshot (fun () ->
      let rec collect acc cur =
        let k = key cur in
        if k > hi || k = max_int (* tail sentinel *) then acc
        else begin
          Verlib.Snapshot.check_abort ();
          collect (f acc k (value cur)) (next_node t cur)
        end
      in
      collect init (find_node t lo))

let range t lo hi = Map_intf.range_as_list fold_range t lo hi

let range_count t lo hi = fold_range t lo hi ~init:0 ~f:(fun acc _ _ -> acc + 1)

let multifind t keys = Map_intf.multifind_via_snapshot find t keys

let scan t ~init ~f = Map_intf.scan_via_fold_range fold_range t ~init ~f

let to_sorted_list t =
  let rec collect acc cur =
    if key cur = max_int then List.rev acc
    else collect ((key cur, value cur) :: acc) (next_node t cur)
  in
  collect [] (next_node t t.head)

let size t = List.length (to_sorted_list t)

(* Census walk: every reachable node's next pointer, head sentinel
   included.  Passive ([Vptr.peek]) so the walk never helps, shortcuts
   or truncates. *)
let iter_vptrs t emit =
  let rec walk n =
    emit (Verlib.Chainscan.Target (t.desc, next n));
    match Vptr.peek t.desc (next n) with Node _ as m -> walk m | Link _ | Null -> ()
  in
  walk t.head

(* Quiescent structural check: strictly sorted keys, consistent back
   pointers, no removed node reachable. *)
let shard_views t = Map_intf.single_shard_view name iter_vptrs t

let check t =
  let rec walk prv cur =
    if Fatomic.load (removed cur) then failwith "Dlist.check: removed node reachable";
    if key cur <> max_int || key prv <> min_int then
      if key cur <= key prv then failwith "Dlist.check: keys not increasing";
    if Fatomic.load (prev cur) != prv && key prv <> min_int then
      failwith "Dlist.check: prev pointer inconsistent";
    if key cur < max_int then walk cur (next_node t cur)
  in
  walk t.head (next_node t t.head)
