(* Tests shared across the concurrent maps: sequential semantics against a
   model, structural invariants, qcheck model-based random testing, and
   multi-domain stress with linearizability checks on snapshots. *)

module V = Verlib

module type MAP = Dstruct.Map_intf.MAP

(* Sharded instances run the same battery as their bases: the combinator
   must be indistinguishable from a single map.  Two bases (one ordered,
   one unordered) at two shard counts each, one of them deliberately not
   a divisor of anything, to exercise interval clamping. *)
module Sharded_hashtable_2 = Dstruct.Sharded.Make (struct
  module Base = Dstruct.Hashtable

  let shards = 2
end)

module Sharded_hashtable_5 = Dstruct.Sharded.Make (struct
  module Base = Dstruct.Hashtable

  let shards = 5
end)

module Sharded_btree_2 = Dstruct.Sharded.Make (struct
  module Base = Dstruct.Btree

  let shards = 2
end)

module Sharded_btree_8 = Dstruct.Sharded.Make (struct
  module Base = Dstruct.Btree

  let shards = 8
end)

let maps : (module MAP) list =
  [
    (module Dstruct.Dlist);
    (module Dstruct.Hashtable);
    (module Dstruct.Btree);
    (module Dstruct.Arttree);
    (module Dstruct.Skiplist);
    (module Dstruct.Vbst);
    (module Dstruct.Coarse_map);
    (module Sharded_hashtable_2);
    (module Sharded_hashtable_5);
    (module Sharded_btree_2);
    (module Sharded_btree_8);
  ]

let modes_for (module M : MAP) =
  List.filter M.supports_mode
    V.Vptr.[ Ind_on_need; Indirect; No_shortcut; Rec_once; Plain ]

(* --- sequential semantics --------------------------------------------- *)

let test_sequential_basic (module M : MAP) mode () =
  V.reset ();
  let t = M.create ~mode ~n_hint:64 () in
  Alcotest.(check (option int)) "find on empty" None (M.find t 5);
  Alcotest.(check bool) "insert new" true (M.insert t 5 50);
  Alcotest.(check bool) "insert duplicate" false (M.insert t 5 99);
  Alcotest.(check (option int)) "find present" (Some 50) (M.find t 5);
  Alcotest.(check bool) "delete present" true (M.delete t 5);
  Alcotest.(check bool) "delete absent" false (M.delete t 5);
  Alcotest.(check (option int)) "find after delete" None (M.find t 5);
  M.check t

let test_sequential_bulk (module M : MAP) mode () =
  V.reset ();
  let t = M.create ~mode ~n_hint:1024 () in
  let n = 1000 in
  let keys = Array.init n (fun i -> (i * 7919) mod 10007) in
  let inserted = Hashtbl.create n in
  Array.iter
    (fun k ->
      let fresh = not (Hashtbl.mem inserted k) in
      Alcotest.(check bool) "insert agrees with model" fresh (M.insert t k (k * 2));
      Hashtbl.replace inserted k ())
    keys;
  Alcotest.(check int) "size" (Hashtbl.length inserted) (M.size t);
  M.check t;
  Hashtbl.iter
    (fun k () ->
      Alcotest.(check (option int)) "find each" (Some (k * 2)) (M.find t k))
    inserted;
  (* delete every other key *)
  let removed = ref 0 in
  Hashtbl.iter
    (fun k () ->
      if k mod 2 = 0 then begin
        Alcotest.(check bool) "delete" true (M.delete t k);
        incr removed
      end)
    inserted;
  Alcotest.(check int) "size after deletes" (Hashtbl.length inserted - !removed) (M.size t);
  M.check t

let test_sorted_order (module M : MAP) () =
  if M.range_capability = Dstruct.Map_intf.Unordered then ()
  else begin
    V.reset ();
    let t = M.create ~n_hint:256 () in
    let keys = [ 42; 7; 99; 1; 63; 55; 13; 27; 88; 5 ] in
    List.iter (fun k -> ignore (M.insert t k k)) keys;
    let got = List.map fst (M.to_sorted_list t) in
    Alcotest.(check (list int)) "sorted" (List.sort compare keys) got
  end

let test_range_semantics (module M : MAP) () =
  if M.range_capability = Dstruct.Map_intf.Unordered then ()
  else begin
    V.reset ();
    let t = M.create ~n_hint:256 () in
    for k = 0 to 100 do
      ignore (M.insert t (k * 2) k) (* even keys 0..200 *)
    done;
    let r = M.range t 10 20 in
    Alcotest.(check (list (pair int int)))
      "inclusive range"
      [ (10, 5); (12, 6); (14, 7); (16, 8); (18, 9); (20, 10) ]
      r;
    Alcotest.(check int) "range_count" 6 (M.range_count t 10 20);
    Alcotest.(check int) "empty range" 0 (M.range_count t 11 11);
    Alcotest.(check int) "full range" 101 (M.range_count t min_int max_int)
  end

let test_multifind (module M : MAP) () =
  V.reset ();
  let t = M.create ~n_hint:64 () in
  for k = 0 to 20 do
    ignore (M.insert t k (100 + k))
  done;
  let res = M.multifind t [| 3; 99; 0; 20; -5 |] in
  Alcotest.(check (array (option int)))
    "multifind" [| Some 103; None; Some 100; Some 120; None |] res

(* --- qcheck model-based ------------------------------------------------ *)

module IntMap = Map.Make (Int)

type cmd = Cins of int * int | Cups of int * int | Cdel of int | Cfind of int

let cmd_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Cins (k, v)) (int_bound 400) (int_bound 10000));
        (3, map2 (fun k v -> Cups (k, v)) (int_bound 400) (int_bound 10000));
        (3, map (fun k -> Cdel k) (int_bound 400));
        (2, map (fun k -> Cfind k) (int_bound 400));
      ])

let cmd_print = function
  | Cins (k, v) -> Printf.sprintf "insert %d %d" k v
  | Cups (k, v) -> Printf.sprintf "upsert %d %d" k v
  | Cdel k -> Printf.sprintf "delete %d" k
  | Cfind k -> Printf.sprintf "find %d" k

let cmds_arb = QCheck.make ~print:QCheck.Print.(list cmd_print) QCheck.Gen.(list_size (int_bound 200) cmd_gen)

let model_agrees (module M : MAP) mode cmds =
  V.reset ();
  let t = M.create ~mode ~n_hint:64 () in
  let model = ref IntMap.empty in
  List.for_all
    (fun c ->
      match c with
      | Cins (k, v) ->
          let expect = not (IntMap.mem k !model) in
          if expect then model := IntMap.add k v !model;
          M.insert t k v = expect
      | Cups (k, v) ->
          let expect = IntMap.mem k !model in
          model := IntMap.add k v !model;
          M.upsert t k v = expect
      | Cdel k ->
          let expect = IntMap.mem k !model in
          model := IntMap.remove k !model;
          M.delete t k = expect
      | Cfind k -> M.find t k = IntMap.find_opt k !model)
    cmds
  &&
  (M.check t;
   let range_ok =
     if M.range_capability = Dstruct.Map_intf.Unordered then true
     else
       let lo = 50 and hi = 270 in
       let expected =
         List.filter (fun (k, _) -> k >= lo && k <= hi) (IntMap.bindings !model)
       in
       M.range t lo hi = expected
   in
   range_ok
   && M.size t = IntMap.cardinal !model
   && M.to_sorted_list t = IntMap.bindings !model)

let qcheck_model_tests =
  List.concat_map
    (fun (module M : MAP) ->
      List.map
        (fun mode ->
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make
               ~name:(Printf.sprintf "%s/%s agrees with Map" M.name (V.Vptr.mode_name mode))
               ~count:60 cmds_arb
               (model_agrees (module M) mode)))
        (modes_for (module M)))
    maps

(* --- concurrent stress -------------------------------------------------- *)

(* Random concurrent ops, then quiescent validation: invariants hold and
   contents is a plausible outcome (every key maps to a value some thread
   actually wrote for it). *)
let test_concurrent_updates (module M : MAP) mode lock_mode () =
  let mode = if M.supports_mode mode then mode else V.Vptr.Plain in
  V.reset ~lock_mode ();
  let t = M.create ~mode ~lock_mode ~n_hint:256 () in
  let key_space = 128 in
  let domains = 4 and per_domain = 2500 in
  let worker seed () =
    let st = Random.State.make [| seed |] in
    for _ = 1 to per_domain do
      let k = Random.State.int st key_space in
      match Random.State.int st 3 with
      | 0 -> ignore (M.insert t k ((k * 1000) + seed))
      | 1 -> ignore (M.delete t k)
      | _ -> ignore (M.find t k)
    done
  in
  let ds = List.init domains (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join ds;
  M.check t;
  List.iter
    (fun (k, v) ->
      if not (k >= 0 && k < key_space) then Alcotest.fail "key out of space";
      if v / 1000 <> k then Alcotest.fail "value not written by any thread")
    (M.to_sorted_list t)

(* Writers insert increasing keys; snapshots must see a prefix: if key k
   is visible, every key written before it (same writer) is too, unless
   deleted — here nothing is deleted, so visibility must be a prefix per
   writer.  This is a direct linearizability probe for range queries. *)
let test_range_prefix_linearizable (module M : MAP) mode () =
  let mode = if M.supports_mode mode then mode else V.Vptr.Plain in
  if M.range_capability = Dstruct.Map_intf.Unordered then ()
  else begin
    V.reset ();
    let t = M.create ~mode ~n_hint:4096 () in
    let writers = 2 and keys_per_writer = 1500 in
    let key writer i = (i * 8) + writer in
    let writer_fn w () =
      for i = 0 to keys_per_writer - 1 do
        ignore (M.insert t (key w i) i)
      done
    in
    let violations = ref 0 in
    let reader () =
      for _ = 1 to 150 do
        let visible = M.range t min_int max_int in
        (* per writer, the observed keys must form a prefix of its
           insertion sequence *)
        for w = 0 to writers - 1 do
          let ks =
            List.filter_map
              (fun (k, _) -> if k mod 8 = w then Some ((k - w) / 8) else None)
              visible
          in
          let sorted = List.sort compare ks in
          let n = List.length sorted in
          let expected = List.init n (fun i -> i) in
          if sorted <> expected then incr violations
        done
      done
    in
    let ws = List.init writers (fun w -> Domain.spawn (writer_fn w)) in
    let r = Domain.spawn reader in
    reader ();
    List.iter Domain.join ws;
    Domain.join r;
    Alcotest.(check int) "ranges see per-writer prefixes" 0 !violations;
    M.check t
  end

(* Multifind atomicity: a writer keeps a pair of keys in sync (deletes
   one, inserts the other, values always equal); a multifind over both
   must never see matching presence with mismatched values. *)
let test_multifind_atomic (module M : MAP) mode () =
  let mode = if M.supports_mode mode then mode else V.Vptr.Plain in
  V.reset ();
  let t = M.create ~mode ~n_hint:64 () in
  ignore (M.insert t 1 0);
  ignore (M.insert t 2 0);
  let stop = Atomic.make false in
  let writer () =
    let i = ref 1 in
    while not (Atomic.get stop) do
      (* each key's value only grows; snapshot must see consistent values *)
      ignore (M.delete t 1);
      ignore (M.insert t 1 !i);
      ignore (M.delete t 2);
      ignore (M.insert t 2 !i);
      incr i
    done
  in
  let violations = ref 0 in
  let reader () =
    for _ = 1 to 4000 do
      match M.multifind t [| 1; 2 |] with
      | [| Some v1; Some v2 |] ->
          (* key 2 is updated after key 1, so v2 <= v1 <= v2 + 1 *)
          if not (v2 <= v1 && v1 <= v2 + 1) then incr violations
      | [| None; Some _ |] | [| _; None |] -> () (* mid-delete states are fine *)
      | _ -> incr violations
    done
  in
  let w = Domain.spawn writer in
  let r = Domain.spawn reader in
  reader ();
  Atomic.set stop true;
  Domain.join r;
  Domain.join w;
  Alcotest.(check int) "multifind sees consistent cuts" 0 !violations

(* Upsert atomicity: one domain overwrites a present key between two
   values while others read it in snapshots.  On the structures whose
   upsert is one cell swing the key is never absent; dlist and skiplist
   compose delete then insert and are exempt. *)
let single_step_upsert (module M : MAP) =
  not (List.mem M.name [ "dlist"; "skiplist" ])

let test_upsert_never_absent (module M : MAP) () =
  let mode = if M.supports_mode V.Vptr.Ind_on_need then V.Vptr.Ind_on_need else V.Vptr.Plain in
  V.reset ();
  let t = M.create ~mode ~n_hint:64 () in
  for k = 1 to 32 do
    ignore (M.insert t k 0)
  done;
  let stop = Atomic.make false in
  let writer () =
    let i = ref 0 and misses = ref 0 in
    while not (Atomic.get stop) do
      incr i;
      if not (M.upsert t 7 (1 + (!i land 1))) then incr misses
    done;
    !misses
  in
  let absent = Atomic.make 0 in
  let reader () =
    for _ = 1 to 4000 do
      match M.multifind t [| 6; 7; 8 |] with
      | [| Some _; Some _; Some _ |] -> ()
      | _ -> Atomic.incr absent
    done
  in
  let w = Domain.spawn writer in
  let r = Domain.spawn reader in
  reader ();
  Domain.join r;
  Atomic.set stop true;
  Alcotest.(check int) "upsert always finds the key" 0 (Domain.join w);
  Alcotest.(check int) "snapshots never see the key absent" 0 (Atomic.get absent);
  Alcotest.(check bool) "value is one the writer wrote" true
    (List.mem (M.find t 7) [ Some 0; Some 1; Some 2 ]);
  M.check t

(* Overwriting present keys replaces leaves one for one: no split, no
   merge, no new node anywhere in the tree.  Keys go in scrambled, so
   leaves sit at every occupancy, full ones (which an insert descent
   would split) included. *)
let test_btree_upsert_shape () =
  V.reset ();
  let module B = Dstruct.Btree in
  let t = B.create ~n_hint:2048 () in
  let key i = (i * 7919 mod 10007) * 3 in
  for i = 1 to 2000 do
    ignore (B.insert t (key i) i)
  done;
  let before = B.shape t in
  for i = 1 to 2000 do
    if not (B.upsert t (key i) (-i)) then Alcotest.fail "present key reported absent"
  done;
  Alcotest.(check (pair int int)) "(inner, leaves) unchanged" before (B.shape t);
  B.check t;
  Alcotest.(check (option int)) "value replaced" (Some (-500)) (B.find t (key 500));
  Alcotest.(check bool) "absent key inserts" false (B.upsert t 1 1);
  Alcotest.(check int) "size" 2001 (B.size t);
  B.check t;
  (* Absent keys fill leaves past full: those upserts split on the way
     down as an insert would. *)
  for i = 1 to 2000 do
    if B.upsert t (key i + 1) i then Alcotest.fail "absent key reported present"
  done;
  Alcotest.(check int) "size after absent upserts" 4001 (B.size t);
  B.check t;
  for i = 1 to 2000 do
    if B.find t (key i + 1) <> Some i then Alcotest.fail "upserted key missing"
  done

(* --- cross-shard bank atomicity (qcheck-randomized) -------------------- *)

(* The sharded combinator's headline claim under test: a multi-point
   read spanning shards is one atomic snapshot.  Bank invariant, as in
   test_server's wire variant: pair [i] is the accounts
   [a = 2i + 1] (low keys) and [b = a + 100] (high keys), both seeded
   with [base].  Writers own disjoint pairs and move one unit per
   transfer with the deliberately non-atomic sequence
   [DEL a; INS a (va-1); DEL b; INS b (vb+1)], so [va] only decreases
   and [vb] only increases.  A snapshot that sees both members must see
   [va + vb] in {2*base - 1, 2*base}; a torn per-shard read drifts
   below the window and stays there.

   Pair placement straddles shards: deterministically for the
   range-partitioned btree (with [n_hint = 64] and 8 shards the
   combinator carves [0, 128) into width-16 intervals, and the members
   differ by 100 > 6 intervals), probabilistically for the
   hash-partitioned table (splitmix placement scatters the members).

   Readers audit both cross-shard read paths: [multifind] on one pair,
   and a whole-map [scan] whose single snapshot must show EVERY pair
   inside the window at once.  4 domains beyond the main one: 2 writers
   + 2 readers, all racing on a single core so domains preempt one
   another mid-transfer constantly. *)
let bank_violations (module M : MAP) ~seed ~pairs =
  V.reset ();
  let base = 1_000 in
  let t = M.create ~mode:V.Vptr.Ind_on_need ~n_hint:64 () in
  let key_a i = (2 * i) + 1 in
  let key_b i = key_a i + 100 in
  for i = 0 to pairs - 1 do
    assert (M.insert t (key_a i) base);
    assert (M.insert t (key_b i) base)
  done;
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let readers_done = Atomic.make 0 in
  let nwriters = 2 and nreaders = 2 in
  let writer w () =
    let owned =
      List.init pairs Fun.id
      |> List.filter (fun i -> i mod nwriters = w)
      |> Array.of_list
    in
    let va = Array.make pairs base and vb = Array.make pairs base in
    let rng = Workload.Splitmix.create (seed + (w * 7919)) in
    while not (Atomic.get stop) do
      let i = owned.(Workload.Splitmix.below rng (Array.length owned)) in
      let na = va.(i) - 1 and nb = vb.(i) + 1 in
      ignore (M.delete t (key_a i));
      ignore (M.insert t (key_a i) na);
      ignore (M.delete t (key_b i));
      ignore (M.insert t (key_b i) nb);
      va.(i) <- na;
      vb.(i) <- nb
    done
  in
  let audit_sum = function
    | Some x, Some y ->
        if not (x + y = 2 * base || x + y = (2 * base) - 1) then
          Atomic.incr violations
    | _ -> () (* a member mid-delete: no sum to audit *)
  in
  let reader r () =
    let rng = Workload.Splitmix.create (seed + 104729 + (r * 31)) in
    for check = 1 to 600 do
      if check land 1 = 0 then begin
        (* point audit: one pair through the snapshot multifind *)
        let i = Workload.Splitmix.below rng pairs in
        match M.multifind t [| key_a i; key_b i |] with
        | [| a; b |] -> audit_sum (a, b)
        | _ -> Atomic.incr violations
      end
      else begin
        (* global audit: one scan snapshot must show every pair coherent *)
        let kvs = M.scan t ~init:[] ~f:(fun acc k v -> (k, v) :: acc) in
        for i = 0 to pairs - 1 do
          audit_sum (List.assoc_opt (key_a i) kvs, List.assoc_opt (key_b i) kvs)
        done
      end
    done;
    if Atomic.fetch_and_add readers_done 1 = nreaders - 1 then
      Atomic.set stop true
  in
  let ws = List.init nwriters (fun w -> Domain.spawn (writer w)) in
  let rs = List.init nreaders (fun r -> Domain.spawn (reader r)) in
  List.iter Domain.join rs;
  List.iter Domain.join ws;
  M.check t;
  Atomic.get violations

let bank_qcheck_tests =
  List.map
    (fun (m : (module MAP)) ->
      let module M = (val m) in
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:3
           ~name:(M.name ^ " cross-shard bank atomicity")
           QCheck.(pair small_nat (int_range 4 10))
           (fun (seed, pairs) -> bank_violations m ~seed ~pairs = 0)))
    [ (module Sharded_btree_8 : MAP); (module Sharded_hashtable_5 : MAP) ]

(* --- allocation budget ------------------------------------------------- *)

(* Minor-heap words allocated by [n] calls of [f].  [Gc.minor_words] is
   unboxed, so the measurement itself allocates nothing. *)
let minor_words_of n f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  Gc.minor_words () -. w0

(* A read-only find outside any snapshot allocates at most the [Some]
   it returns (two words): the descent itself is allocation-free. *)
let test_btree_find_alloc_budget () =
  V.reset ();
  let n = 100_000 in
  let h = Dstruct.Btree.create ~mode:V.Vptr.Ind_on_need ~n_hint:n () in
  for k = 1 to n do
    ignore (Dstruct.Btree.insert h k (k * 2))
  done;
  let calls = 10_000 in
  let next = ref 0 in
  let words =
    minor_words_of calls (fun () ->
        next := (!next + 7919) mod n;
        Dstruct.Btree.find h (!next + 1))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words over %d hits <= %d" words calls (2 * calls))
    true
    (words <= float_of_int (2 * calls));
  let misses = minor_words_of calls (fun () -> Dstruct.Btree.find h (n + 1)) in
  Alcotest.(check (float 0.)) "a miss allocates nothing" 0. misses;
  Alcotest.(check (option int)) "value" (Some 84) (Dstruct.Btree.find h 42)

let case name f = Alcotest.test_case name `Quick f

let per_map_cases (module M : MAP) =
  let modes = modes_for (module M) in
  List.concat
    [
      List.map
        (fun m ->
          case
            (Printf.sprintf "%s basics (%s)" M.name (V.Vptr.mode_name m))
            (test_sequential_basic (module M) m))
        modes;
      [
        case (M.name ^ " bulk") (test_sequential_bulk (module M) V.Vptr.Ind_on_need);
        case (M.name ^ " sorted order") (test_sorted_order (module M));
        case (M.name ^ " range semantics") (test_range_semantics (module M));
        case (M.name ^ " multifind") (test_multifind (module M));
        case
          (M.name ^ " concurrent (lock-free)")
          (test_concurrent_updates (module M) V.Vptr.Ind_on_need Flock.Lock.Lock_free);
        case
          (M.name ^ " concurrent (blocking)")
          (test_concurrent_updates (module M) V.Vptr.Ind_on_need Flock.Lock.Blocking);
        case
          (M.name ^ " range prefix linearizable")
          (test_range_prefix_linearizable (module M) V.Vptr.Ind_on_need);
        case (M.name ^ " multifind atomic")
          (test_multifind_atomic (module M) V.Vptr.Ind_on_need);
        case (M.name ^ " multifind atomic (Indirect)")
          (test_multifind_atomic (module M) V.Vptr.Indirect);
      ];
      (if single_step_upsert (module M) then
         [ case (M.name ^ " upsert never absent") (test_upsert_never_absent (module M)) ]
       else []);
    ]

let () =
  Alcotest.run "dstruct"
    [
      ("maps", List.concat_map per_map_cases maps);
      ("qcheck-model", qcheck_model_tests);
      ("sharded-bank", bank_qcheck_tests);
      ("alloc-budget", [ case "btree find on 100k keys" test_btree_find_alloc_budget ]);
      ("upsert", [ case "btree overwrite keeps the shape" test_btree_upsert_shape ]);
    ]
