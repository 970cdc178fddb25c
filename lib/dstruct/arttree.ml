module Vptr = Verlib.Vptr
module Fatomic = Flock.Fatomic
module Lock = Flock.Lock

let name = "arttree"

let range_capability = Map_intf.Ordered_range

(* Deletion stores null into cells, which RecOnce cannot express. *)
let supports_mode (m : Vptr.mode) = m <> Vptr.Rec_once

let small_max = 16

let indexed_max = 48

(* Inline records: a cell's head holds the node block itself.  [Link] is
   the versioned pointer's indirect version and [Empty] its null
   sentinel (an empty slot). *)
type node =
  | Leaf of { akey : int; avalue : int; lmeta : node Verlib.Vtypes.meta }
  | Inner of {
      depth : int; (* byte position this node discriminates on, 0 = MSB *)
      kind : kind;
      imeta : node Verlib.Vtypes.meta;
      ilock : Lock.t;
      iremoved : bool Fatomic.t;
    }
  | Link of node Verlib.Vtypes.link
  | Empty

and kind =
  | Small of { bytes : int array; cells : node Vptr.t array } (* sorted *)
  | Indexed of { index : int array (* 256 entries, -1 = absent *); cells : node Vptr.t array }
  | Direct of { cells : node Vptr.t array (* 256 *) }

type t = {
  root : node Vptr.t; (* always an Inner (Direct) at depth 0 *)
  rlock : Lock.t;
  desc : node Vptr.desc;
  lock_mode : Lock.mode;
}

let corrupt () = failwith "Arttree: link where a node belongs (corrupt tree)"

let meta_of = function
  | Leaf l -> l.lmeta
  | Inner n -> n.imeta
  | Link l -> l.lmeta
  | Empty -> corrupt ()

let value_of = function Link l -> l.lvalue | n -> n

let link_of = function Link l -> l | _ -> invalid_arg "Arttree: not a link"

let key_byte k d = (k lsr ((7 - d) * 8)) land 0xff

let mk_leaf k v = Leaf { akey = k; avalue = v; lmeta = Verlib.Vtypes.fresh_meta Empty }

let mk_inner t depth kind =
  Inner
    {
      depth;
      kind;
      imeta = Verlib.Vtypes.fresh_meta Empty;
      ilock = Lock.create ~mode:t.lock_mode ~site:"arttree.ilock" ();
      iremoved = Fatomic.make false;
    }

let mk_cell t v = Vptr.make t.desc v

let create ?(mode = Vptr.Ind_on_need) ?lock_mode ~n_hint:_ () =
  let lock_mode =
    match lock_mode with Some m -> m | None -> Lock.default_mode ()
  in
  let desc =
    Vptr.make_desc ~meta_of ~null:Empty ~link:(fun l -> Link l) ~link_of ~value_of ~mode
  in
  let t =
    {
      root = Vptr.make desc Empty;
      rlock = Lock.create ~mode:lock_mode ~site:"arttree.rlock" ();
      desc;
      lock_mode;
    }
  in
  let root_node =
    mk_inner t 0 (Direct { cells = Array.init 256 (fun _ -> mk_cell t Empty) })
  in
  Vptr.store desc t.root root_node;
  t

let load t cell = Vptr.load t.desc cell

(* Cell holding byte [b]'s child, if this node has a slot for it. *)
let cell_for kind b =
  match kind with
  | Small s ->
      let rec scan i =
        if i >= Array.length s.bytes then None
        else if s.bytes.(i) = b then Some s.cells.(i)
        else if s.bytes.(i) > b then None
        else scan (i + 1)
      in
      scan 0
  | Indexed x -> if x.index.(b) >= 0 then Some x.cells.(x.index.(b)) else None
  | Direct d -> Some d.cells.(b)

(* Present (byte, child) pairs in ascending byte order, loading cells;
   used by rebuilds (under lock) and traversals (in snapshots). *)
let iter_children t kind f =
  let visit b c = if c != Empty then f b c in
  match kind with
  | Small s -> Array.iteri (fun i b -> visit b (load t s.cells.(i))) s.bytes
  | Indexed x ->
      for b = 0 to 255 do
        if x.index.(b) >= 0 then visit b (load t x.cells.(x.index.(b)))
      done
  | Direct d ->
      for b = 0 to 255 do
        visit b (load t d.cells.(b))
      done

let live_children t kind =
  let acc = ref [] in
  iter_children t kind (fun b c -> acc := (b, c) :: !acc);
  List.rev !acc

(* Rebuild [n] with byte [b] additionally mapped to [child]: drops empty
   slots and upgrades the kind when the occupancy outgrows it.  Caller
   holds [n]'s lock. *)
let grown_copy t ~depth ~kind b child =
  let entries =
    List.sort (fun (a, _) (b, _) -> compare a b) (live_children t kind @ [ (b, child) ])
  in
  let count = List.length entries in
  let kind =
    if count <= small_max then
      Small
        {
          bytes = Array.of_list (List.map fst entries);
          cells = Array.of_list (List.map (fun (_, c) -> mk_cell t c) entries);
        }
    else if count <= indexed_max then begin
      let index = Array.make 256 (-1) in
      let cells =
        Array.of_list
          (List.mapi
             (fun i (byte, c) ->
               index.(byte) <- i;
               mk_cell t c)
             entries)
      in
      Indexed { index; cells }
    end
    else begin
      (* Initialise every cell at construction ([Vptr.make], an unlogged
         initialising write).  Storing into the fresh cells instead would
         be a logged operation on replica-private state, which the
         idempotence log must never see: helpers replaying this section
         would exchange chain cells across replicas and lose children. *)
      let by_byte = Array.make 256 Empty in
      List.iter (fun (byte, c) -> by_byte.(byte) <- c) entries;
      Direct { cells = Array.init 256 (fun byte -> mk_cell t by_byte.(byte)) }
    end
  in
  mk_inner t depth kind

(* Chain of single-child nodes from [depth] down to the first byte where
   the two keys diverge, ending in a two-leaf node (lazy expansion, no
   path compression). *)
let rec branch t depth leaf1 k1 k2 v2 =
  let b1 = key_byte k1 depth and b2 = key_byte k2 depth in
  if b1 = b2 then begin
    let sub = branch t (depth + 1) leaf1 k1 k2 v2 in
    mk_inner t depth (Small { bytes = [| b1 |]; cells = [| mk_cell t sub |] })
  end
  else begin
    let lo_b, lo_n, hi_b, hi_n =
      if b1 < b2 then (b1, leaf1, b2, mk_leaf k2 v2)
      else (b2, mk_leaf k2 v2, b1, leaf1)
    in
    mk_inner t depth
      (Small { bytes = [| lo_b; hi_b |]; cells = [| mk_cell t lo_n; mk_cell t hi_n |] })
  end

let check_key k = if k < 0 then invalid_arg "Arttree: keys must be non-negative"

let root_node t = load t t.root

(* --- find -------------------------------------------------------------- *)

let find t k =
  if k < 0 then None
  else
  let rec go node =
    match node with
    | Leaf l -> if l.akey = k then Some l.avalue else None
    | Inner n -> (
        match cell_for n.kind (key_byte k n.depth) with
        | None -> None
        | Some cell -> go (load t cell))
    | Empty -> None
    | Link _ -> corrupt ()
  in
  go (root_node t)

(* --- updates ------------------------------------------------------------
   [None] result = restart from root (validation or lock failure). *)

let not_removed iremoved () = not (Fatomic.load iremoved)

(* Bind [k]; a present key is overwritten by one leaf store under its
   node's lock when [replace].  Returns whether [k] was already bound. *)
let bind t k v ~replace =
  check_key k;
  Flock.with_epoch (fun () ->
      (* [pslot] is where the current inner node is stored, for grows. *)
      let rec go ~plock ~pcell ~plive node : bool option =
        match node with
        | Leaf _ | Empty | Link _ -> assert false (* handled at the cell below *)
        | Inner n -> (
            let b = key_byte k n.depth in
            match cell_for n.kind b with
            | None ->
                (* no slot: grow [n] under its parent's lock *)
                let holds_node () = load t pcell == node in
                Lock.try_lock plock (fun () ->
                    if not (plive () && holds_node ()) then None
                    else
                      Lock.try_lock n.ilock (fun () ->
                          Fatomic.store n.iremoved true;
                          let n' =
                            grown_copy t ~depth:n.depth ~kind:n.kind b (mk_leaf k v)
                          in
                          Vptr.store_locked t.desc pcell n';
                          false)
                      |> function
                      | Some r -> Some r
                      | None -> None)
                |> Option.join
            | Some cell -> (
                match load t cell with
                | Empty ->
                    (* empty slot: fill it under [n]'s lock *)
                    Lock.try_lock n.ilock (fun () ->
                        if Fatomic.load n.iremoved then None
                        else
                          match load t cell with
                          | Empty ->
                              Vptr.store_locked t.desc cell (mk_leaf k v);
                              Some false
                          | Leaf _ | Inner _ | Link _ -> None (* someone filled it; retry *))
                    |> Option.join
                | Leaf l as leaf ->
                    let present = l.akey = k in
                    if present && not replace then Some true
                    else
                      (* overwrite the leaf, or split it into a branch,
                         under [n]'s lock *)
                      Lock.try_lock n.ilock (fun () ->
                          if Fatomic.load n.iremoved then None
                          else if load t cell == leaf then begin
                            Vptr.store_locked t.desc cell
                              (if present then mk_leaf k v
                               else branch t (n.depth + 1) leaf l.akey k v);
                            Some present
                          end
                          else None)
                      |> Option.join
                | Inner _ as child ->
                    go ~plock:n.ilock ~pcell:cell ~plive:(not_removed n.iremoved) child
                | Link _ -> corrupt ()))
      in
      let backoff = Flock.Backoff.create () in
      let rec attempt () =
        match
          go ~plock:t.rlock ~pcell:t.root ~plive:(fun () -> true) (root_node t)
        with
        | Some r -> r
        | None ->
            Flock.Backoff.once backoff;
            attempt ()
      in
      attempt ())

let insert t k v = not (bind t k v ~replace:false)

let upsert t k v = bind t k v ~replace:true

let delete t k =
  check_key k;
  Flock.with_epoch (fun () ->
      let rec go node : bool option =
        match node with
        | Leaf _ | Empty | Link _ -> assert false
        | Inner n -> (
            match cell_for n.kind (key_byte k n.depth) with
            | None -> Some false
            | Some cell -> (
                match load t cell with
                | Empty -> Some false
                | Leaf l as leaf ->
                    if l.akey <> k then Some false
                    else
                      Lock.try_lock n.ilock (fun () ->
                          if Fatomic.load n.iremoved then None
                          else if load t cell == leaf then begin
                            Vptr.store_locked t.desc cell Empty;
                            Some true
                          end
                          else None)
                      |> Option.join
                | Inner _ as child -> go child
                | Link _ -> corrupt ()))
      in
      let backoff = Flock.Backoff.create () in
      let rec attempt () =
        match go (root_node t) with
        | Some r -> r
        | None ->
            Flock.Backoff.once backoff;
            attempt ()
      in
      attempt ())

(* --- range queries ------------------------------------------------------
   DFS in byte order inside a snapshot.  [prefix] is the key prefix of the
   path so far; a child under byte [b] at depth [d] covers the key
   interval [prefix + b*2^(8*(7-d)), prefix + (b+1)*2^(8*(7-d)) - 1]. *)

(* Like {!iter_children} but only over bytes in [bmin, bmax]: range
   queries prune whole fan-outs this way instead of loading all 256 cells
   of a [Direct] node. *)
let iter_children_between t kind bmin bmax f =
  let visit b c = if c != Empty then f b c in
  match kind with
  | Small s ->
      Array.iteri
        (fun i b -> if b >= bmin && b <= bmax then visit b (load t s.cells.(i)))
        s.bytes
  | Indexed x ->
      for b = bmin to bmax do
        if x.index.(b) >= 0 then visit b (load t x.cells.(x.index.(b)))
      done
  | Direct d ->
      for b = bmin to bmax do
        visit b (load t d.cells.(b))
      done

let fold_range t lo hi ~init ~f =
  let lo = max lo 0 in
  Verlib.with_snapshot (fun () ->
      let rec go acc node prefix =
        Verlib.Snapshot.check_abort ();
        match node with
        | Leaf l -> if l.akey >= lo && l.akey <= hi then f acc l.akey l.avalue else acc
        | Inner n ->
            let width = 1 lsl (8 * (7 - n.depth)) in
            (* child byte b covers [prefix + b*width, prefix + (b+1)*width) *)
            let bmin = if lo <= prefix then 0 else min 255 ((lo - prefix) / width) in
            let bmax =
              let d = (hi - prefix) / width in
              if d > 255 then 255 else d
            in
            if bmax < 0 then acc
            else begin
              let acc = ref acc in
              iter_children_between t n.kind bmin bmax (fun b c ->
                  acc := go !acc c (prefix + (b * width)));
              !acc
            end
        | Empty -> acc
        | Link _ -> corrupt ()
      in
      if hi < 0 then init else go init (root_node t) 0)

let range t lo hi = Map_intf.range_as_list fold_range t lo hi

let range_count t lo hi = fold_range t lo hi ~init:0 ~f:(fun acc _ _ -> acc + 1)

let multifind t keys = Map_intf.multifind_via_snapshot find t keys

(* ART keys are non-negative (radix on byte decomposition), so the
   whole-keyspace fold starts at 0, like [to_sorted_list]. *)
let scan t ~init ~f = Map_intf.scan_via_fold_range ~lo:0 fold_range t ~init ~f

(* Census walk: the root cell plus every child cell of every inner node,
   including empty slots (a Direct node's nil cells still carry version
   history).  Passive ([Vptr.peek]), unlike [iter_children]. *)
let iter_vptrs t emit =
  let rec walk cell =
    emit (Verlib.Chainscan.Target (t.desc, cell));
    match Vptr.peek t.desc cell with
    | Leaf _ | Link _ | Empty -> ()
    | Inner n -> (
        match n.kind with
        | Small s -> Array.iter walk s.cells
        | Indexed x -> Array.iter walk x.cells
        | Direct d -> Array.iter walk d.cells)
  in
  walk t.root

let shard_views t = Map_intf.single_shard_view name iter_vptrs t

let to_sorted_list t = range t 0 max_int

let size t = range_count t 0 max_int

(* --- invariants ---------------------------------------------------------- *)

let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* [path] is the list of bytes taken from the root, most significant
     first; every leaf's key must agree with it. *)
  let rec go node depth path =
    match node with
    | Leaf l ->
        List.iteri
          (fun j b ->
            if key_byte l.akey j <> b then
              fail "Arttree.check: leaf key %d disagrees with its path" l.akey)
          (List.rev path)
    | Inner n ->
        if n.depth <> depth then fail "Arttree.check: depth mismatch";
        if depth > 7 then fail "Arttree.check: tree too deep";
        if Fatomic.load n.iremoved then fail "Arttree.check: removed node reachable";
        (match n.kind with
         | Small s ->
             if Array.length s.bytes > small_max then fail "Arttree.check: Small too big";
             if Array.length s.bytes <> Array.length s.cells then
               fail "Arttree.check: Small byte/cell mismatch";
             Array.iteri
               (fun i b ->
                 if i > 0 && s.bytes.(i - 1) >= b then
                   fail "Arttree.check: Small bytes not sorted")
               s.bytes
         | Indexed x ->
             if Array.length x.cells > indexed_max then
               fail "Arttree.check: Indexed too big";
             Array.iter
               (fun slot ->
                 if slot >= Array.length x.cells then
                   fail "Arttree.check: Indexed slot out of bounds")
               x.index
         | Direct d ->
             if Array.length d.cells <> 256 then fail "Arttree.check: Direct size");
        iter_children t n.kind (fun b c -> go c (depth + 1) (b :: path))
    | Empty | Link _ -> fail "Arttree.check: empty or link where a node belongs"
  in
  go (root_node t) 0 []

let debug_dump t =
  let rec go node indent =
    match node with
    | Leaf l -> Printf.printf "%sLeaf key=%d\n" indent l.akey
    | Inner n ->
        let kind_name, occ =
          match n.kind with
          | Small s -> ("Small", Array.length s.bytes)
          | Indexed x -> ("Indexed", Array.length x.cells)
          | Direct _ -> ("Direct", 256)
        in
        Printf.printf "%s%s d=%d occ=%d%s\n" indent kind_name n.depth occ
          (if Fatomic.load n.iremoved then " REMOVED" else "");
        iter_children t n.kind (fun b c ->
            Printf.printf "%s [%02x]\n" indent b;
            go c (indent ^ "  "))
    | Empty | Link _ -> Printf.printf "%s(empty or link)\n" indent
  in
  go (root_node t) ""
