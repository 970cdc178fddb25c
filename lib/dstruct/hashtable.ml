module Vptr = Verlib.Vptr

let name = "hashtable"

let range_capability = Map_intf.Unordered

(* RecOnce is unsound here: deleting down to a shared state re-records
   bucket objects?  No — every update installs a freshly allocated bucket,
   and empties are null; null stores are what RecOnce cannot express. *)
let supports_mode (m : Vptr.mode) = m <> Vptr.Rec_once

(* A cell's head holds the bucket block itself; [Empty] is the null
   sentinel and [Link] the versioned pointer's indirect version. *)
type bucket =
  | Bucket of { entries : (int * int) array; meta : bucket Verlib.Vtypes.meta }
  | Link of bucket Verlib.Vtypes.link
  | Empty

type t = { cells : bucket Vptr.t array; mask : int; desc : bucket Vptr.desc }

(* Splitmix-style finalizer (constants truncated to OCaml's 63-bit ints):
   benchmark keys are arbitrary integers, so the index must mix all
   bits. *)
let hash k =
  let h = k * 0x1E3779B97F4A7C15 in
  let h = h lxor (h lsr 29) in
  let h = h * 0x3F58476D1CE4E5B9 in
  h lxor (h lsr 32)

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let meta_of = function
  | Bucket b -> b.meta
  | Link l -> l.lmeta
  | Empty -> invalid_arg "Hashtable: the empty bucket has no metadata"

let value_of = function Link l -> l.lvalue | b -> b

let link_of = function Link l -> l | _ -> invalid_arg "Hashtable: not a link"

let create ?(mode = Vptr.Ind_on_need) ?lock_mode:_ ~n_hint () =
  let desc =
    Vptr.make_desc ~meta_of ~null:Empty ~link:(fun l -> Link l) ~link_of ~value_of ~mode
  in
  let n = next_pow2 (max 16 n_hint) in
  { cells = Array.init n (fun _ -> Vptr.make desc Empty); mask = n - 1; desc }

let cell t k = t.cells.(hash k land t.mask)

let mk_bucket entries = Bucket { entries; meta = Verlib.Vtypes.fresh_meta Empty }

(* Entries of a loaded bucket ([Vptr.load] never returns a link). *)
let entries_of = function Bucket b -> b.entries | Link _ | Empty -> [||]

let bucket_find entries k =
  let rec scan i =
    if i >= Array.length entries then None
    else
      let k', v = entries.(i) in
      if k' = k then Some v else scan (i + 1)
  in
  scan 0

let find t k = bucket_find (entries_of (Vptr.load t.desc (cell t k))) k

let insert t k v =
  Flock.with_epoch (fun () ->
      let c = cell t k in
      let rec loop () =
        let cur = Vptr.load t.desc c in
        let entries = entries_of cur in
        if bucket_find entries k <> None then false
        else begin
          let n = Array.length entries in
          let entries' = Array.make (n + 1) (k, v) in
          Array.blit entries 0 entries' 0 n;
          if Vptr.cas t.desc c cur (mk_bucket entries') then true else loop ()
        end
      in
      loop ())

let delete t k =
  Flock.with_epoch (fun () ->
      let c = cell t k in
      let rec loop () =
        let cur = Vptr.load t.desc c in
        let entries = entries_of cur in
        if bucket_find entries k = None then false
        else begin
          let entries' =
            Array.of_list (List.filter (fun (k', _) -> k' <> k) (Array.to_list entries))
          in
          let next = if Array.length entries' = 0 then Empty else mk_bucket entries' in
          if Vptr.cas t.desc c cur next then true else loop ()
        end
      in
      loop ())

let multifind t keys = Map_intf.multifind_via_snapshot find t keys

let range (_ : t) (_ : int) (_ : int) =
  invalid_arg "Hashtable: range queries are not supported on unordered maps"

let range_count t lo hi = List.length (range t lo hi)

let fold t ~init ~f =
  Array.fold_left
    (fun acc c ->
      Array.fold_left (fun acc (k, v) -> f acc k v) acc (entries_of (Vptr.load t.desc c)))
    init t.cells

let size t = fold t ~init:0 ~f:(fun acc _ _ -> acc + 1)

(* The snapshot makes the bucket-by-bucket walk atomic: every [Vptr.load]
   inside resolves against one timestamp, so an unordered map can serve
   the same multi-point read paths (wire MGET / SCAN) as the ordered
   ones. *)
let scan t ~init ~f = Map_intf.scan_via_snapshot fold t ~init ~f

let to_sorted_list t =
  List.sort compare (fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

(* Census walk: one versioned cell per bucket, the whole structure. *)
let iter_vptrs t emit =
  Array.iter (fun c -> emit (Verlib.Chainscan.Target (t.desc, c))) t.cells

let shard_views t = Map_intf.single_shard_view name iter_vptrs t

let check t =
  Array.iteri
    (fun i c ->
      match Vptr.load t.desc c with
      | Empty -> ()
      | Link _ -> failwith "Hashtable.check: load returned a link"
      | Bucket b ->
          if Array.length b.entries = 0 then
            failwith "Hashtable.check: empty bucket should be null";
          Array.iter
            (fun (k, _) ->
              if hash k land t.mask <> i then
                failwith "Hashtable.check: entry in wrong bucket")
            b.entries;
          let keys = Array.to_list (Array.map fst b.entries) in
          if List.length (List.sort_uniq compare keys) <> List.length keys then
            failwith "Hashtable.check: duplicate keys in bucket")
    t.cells
