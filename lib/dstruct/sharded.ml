(* Sharding combinator: partition one logical map over N sub-maps.

   The point of building this on VERLIB rather than on lock striping is
   that cross-shard atomicity is free: a snapshot is an O(1) timestamp
   read against the global clock every shard already shares, so wrapping
   a multi-point operation in ONE [Verlib.with_snapshot] makes the walk
   over all N shards exactly as linearizable as the single-shard case.
   The base structures' own snapshot wrappers ([multifind], [scan],
   [fold_range]) nest inside the outer snapshot as no-ops, sharing its
   stamp, so per-shard calls compose without code changes underneath.

   Partitioning policy follows the base's range capability:

   - [Unordered] bases are hash-partitioned (same splitmix-style
     finalizer as the hash table, folded to a shard index), spreading
     contention evenly;
   - [Ordered_range] bases are range-partitioned into contiguous key
     intervals, so [range]/[range_count] touch only the shards that
     intersect the query and per-shard sorted output concatenates into
     globally sorted output.  The interval width is derived from
     [n_hint] at creation: the benchmark workloads draw keys from
     [0, 2n) for a size-n structure (see [Workload.Keys]), so shard [i]
     of [N] covers [i*w, (i+1)*w) with [w = max 1 (2n/N)], the first
     and last shards absorbing the open ends.  Keys outside the hinted
     universe still route correctly (monotonically, to the end shards);
     they only lose balance, never correctness. *)

module Vptr = Verlib.Vptr

module type SPEC = sig
  module Base : Map_intf.MAP

  val shards : int
end

module Make (S : SPEC) = struct
  module Base = S.Base

  let shards = S.shards

  let () =
    if shards < 1 then
      invalid_arg
        (Printf.sprintf "Sharded.Make: shard count must be >= 1 (got %d)" shards)

  let name = Printf.sprintf "sharded-%s:%d" Base.name shards

  let range_capability = Base.range_capability

  let supports_mode = Base.supports_mode

  type t = { subs : Base.t array; route : int -> int }

  (* Splitmix-style finalizer (as in [Hashtable.hash]): shard choice must
     mix all key bits or partitioned benchmarks would hammer one shard. *)
  let mix k =
    let h = k * 0x1E3779B97F4A7C15 in
    let h = h lxor (h lsr 29) in
    let h = h * 0x3F58476D1CE4E5B9 in
    h lxor (h lsr 32)

  let create ?(mode = Vptr.Ind_on_need) ?lock_mode ~n_hint () =
    let sub_hint = max 1 (n_hint / shards) in
    let subs =
      Array.init shards (fun _ -> Base.create ~mode ?lock_mode ~n_hint:sub_hint ())
    in
    let route =
      match Base.range_capability with
      | Map_intf.Unordered -> fun k -> mix k land max_int mod shards
      | Map_intf.Ordered_range ->
          let width = max 1 (2 * max 1 n_hint / shards) in
          fun k -> if k < 0 then 0 else min (shards - 1) (k / width)
    in
    { subs; route }

  let sub t k = t.subs.(t.route k)

  (* Request-span attribution: every per-shard sub-call books to the
     [route] phase of the current request span (exclusive accounting —
     inside the outer snapshot this subtracts from the [snapshot] phase)
     and bumps the span's fanout counter.  One atomic load when no span
     exists anywhere in the process. *)
  let routed f =
    Verlib.Obs.Span.note_fanout ();
    Verlib.Obs.Span.in_phase Verlib.Obs.Span.Route f

  (* Point operations touch exactly one shard — no snapshot, no fan-out. *)
  let insert t k v = routed (fun () -> Base.insert (sub t k) k v)

  let delete t k = routed (fun () -> Base.delete (sub t k) k)

  let upsert t k v = routed (fun () -> Base.upsert (sub t k) k v)

  let find t k = routed (fun () -> Base.find (sub t k) k)

  (* Multi-point operations: ONE snapshot around the per-shard work.
     Every shard is then read at the same timestamp, which is the whole
     claim of this module. *)

  let range t lo hi =
    match range_capability with
    | Map_intf.Unordered ->
        invalid_arg (name ^ ": range queries are not supported on unordered maps")
    | Map_intf.Ordered_range ->
        Verlib.with_snapshot (fun () ->
            if lo > hi then []
            else begin
              let i0 = t.route lo and i1 = t.route hi in
              let acc = ref [] in
              (* Walk shards high-to-low so each sorted per-shard slice is
                 prepended in order: contiguous partitioning makes the
                 concatenation globally sorted with no merge. *)
              for i = i1 downto i0 do
                acc := routed (fun () -> Base.range t.subs.(i) lo hi) @ !acc
              done;
              !acc
            end)

  let range_count t lo hi =
    match range_capability with
    | Map_intf.Unordered ->
        invalid_arg (name ^ ": range queries are not supported on unordered maps")
    | Map_intf.Ordered_range ->
        Verlib.with_snapshot (fun () ->
            if lo > hi then 0
            else begin
              let n = ref 0 in
              for i = t.route lo to t.route hi do
                n := !n + routed (fun () -> Base.range_count t.subs.(i) lo hi)
              done;
              !n
            end)

  let multifind t keys =
    (* Per-key dispatch under one snapshot: each find lands on one shard,
       all of them resolve against the same stamp. *)
    Verlib.with_snapshot (fun () -> Array.map (fun k -> find t k) keys)

  let scan t ~init ~f =
    Verlib.with_snapshot (fun () ->
        Array.fold_left
          (fun acc s -> routed (fun () -> Base.scan s ~init:acc ~f))
          init t.subs)

  let size t =
    Verlib.with_snapshot (fun () ->
        Array.fold_left
          (fun acc s -> acc + routed (fun () -> Base.size s))
          0 t.subs)

  let to_sorted_list t =
    Verlib.with_snapshot (fun () ->
        match range_capability with
        | Map_intf.Ordered_range ->
            (* Contiguous partitioning: concatenation is already sorted. *)
            List.concat_map Base.to_sorted_list (Array.to_list t.subs)
        | Map_intf.Unordered ->
            List.sort compare
              (List.concat_map Base.to_sorted_list (Array.to_list t.subs)))

  (* Census and invariant fan-out: the chain census and the structural
     audit must see all shards or per-shard pathologies would hide. *)

  let iter_vptrs t emit = Array.iter (fun s -> Base.iter_vptrs s emit) t.subs

  let shard_views t =
    Array.to_list
      (Array.mapi
         (fun i s -> (Printf.sprintf "shard-%d" i, fun f -> Base.iter_vptrs s f))
         t.subs)

  let check t =
    Array.iteri
      (fun i s ->
        Base.check s;
        (* Partition invariant: every key a shard holds routes to it. *)
        Base.scan s ~init:() ~f:(fun () k _ ->
            if t.route k <> i then
              failwith
                (Printf.sprintf
                   "Sharded.check: key %d found in shard %d, routes to %d" k i
                   (t.route k))))
      t.subs
end

(* First-class-module convenience for call sites that pick base and shard
   count at run time (the CLI registry, the benchmark sweep). *)
let make ~shards (module M : Map_intf.MAP) : (module Map_intf.MAP) =
  let module S = struct
    module Base = M

    let shards = shards
  end in
  let module Sh = Make (S) in
  (module Sh)
