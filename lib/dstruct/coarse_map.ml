module IntMap = Map.Make (Int)

let name = "coarse"

let range_capability = Map_intf.Ordered_range

let supports_mode (m : Verlib.Vptr.mode) = m = Verlib.Vptr.Plain

type t = { mutable map : int IntMap.t; rw : Rwlock.t }

let create ?mode:_ ?lock_mode:_ ~n_hint:_ () = { map = IntMap.empty; rw = Rwlock.create () }

let insert t k v =
  Rwlock.with_write t.rw (fun () ->
      if IntMap.mem k t.map then false
      else begin
        t.map <- IntMap.add k v t.map;
        true
      end)

let delete t k =
  Rwlock.with_write t.rw (fun () ->
      if IntMap.mem k t.map then begin
        t.map <- IntMap.remove k t.map;
        true
      end
      else false)

let upsert t k v =
  Rwlock.with_write t.rw (fun () ->
      let present = IntMap.mem k t.map in
      t.map <- IntMap.add k v t.map;
      present)

let find t k = Rwlock.with_read t.rw (fun () -> IntMap.find_opt k t.map)

let range t lo hi =
  Rwlock.with_read t.rw (fun () ->
      let rec collect acc seq =
        match seq () with
        | Seq.Cons ((k, v), rest) when k <= hi -> collect ((k, v) :: acc) rest
        | Seq.Cons _ | Seq.Nil -> List.rev acc
      in
      collect [] (IntMap.to_seq_from lo t.map))

let range_count t lo hi = List.length (range t lo hi)

let multifind t keys =
  Rwlock.with_read t.rw (fun () -> Array.map (fun k -> IntMap.find_opt k t.map) keys)

let scan t ~init ~f =
  Rwlock.with_read t.rw (fun () -> IntMap.fold (fun k v acc -> f acc k v) t.map init)

let size t = Rwlock.with_read t.rw (fun () -> IntMap.cardinal t.map)

let to_sorted_list t = Rwlock.with_read t.rw (fun () -> IntMap.bindings t.map)

(* No versioned pointers: a reader-writer-locked functional map. *)
let iter_vptrs (_ : t) (_ : Verlib.Chainscan.target -> unit) = ()

let shard_views t = Map_intf.single_shard_view name iter_vptrs t

let check (_ : t) = ()
