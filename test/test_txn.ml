(* Transaction-layer tests (lib/txn).

   Three families:

   - serializability: racing domains run random multi-key transactions;
     every committed outcome is recorded with its versionstamp, and an
     offline checker replays the log in versionstamp order against a
     sequential model.  Every recorded step must match what the model
     would have returned at that point, and the final model must equal
     the structure's contents.  If commits were not serializable in
     versionstamp order, some step (or the final state) disagrees.  The
     store's counted size must equal the structure's.

   - exactly-once tokens: a token already committed replays the cached
     (versionstamp, steps) without re-executing, including under a
     concurrent same-token race.

   - abort-storm chaos: with the [abort-storm] fault plan armed, bank
     transfers either commit fully or abort without effect — pair sums
     stay exact under concurrent serialized reads, and every stripe
     latch is released when the storm ends. *)

module T = Txn
module F = Fault
module Splitmix = Workload.Splitmix

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Sequential model: replay one op against a Hashtbl, producing the
   step a serial execution would observe.  Mirrors the insert-only PUT
   and read-your-writes overlay semantics of [Txn.exec]. *)

let sim_step model op =
  match op with
  | T.Get k ->
      (match Hashtbl.find_opt model k with
       | Some v -> T.S_int v
       | None -> T.S_nil)
  | T.Put (k, v) ->
      if Hashtbl.mem model k then T.S_exists
      else begin
        Hashtbl.replace model k v;
        T.S_ok
      end
  | T.Del k ->
      if Hashtbl.mem model k then begin
        Hashtbl.remove model k;
        T.S_int 1
      end
      else T.S_int 0
  | T.Mget ks ->
      T.S_vals (Array.to_list (Array.map (fun k -> Hashtbl.find_opt model k) ks))
  | T.Range (lo, hi) ->
      T.S_pairs
        (Hashtbl.fold
           (fun k v acc -> if lo <= k && k <= hi then (k, v) :: acc else acc)
           model []
        |> List.sort compare)
  | T.Rangecount (lo, hi) ->
      T.S_int
        (Hashtbl.fold
           (fun k _ n -> if lo <= k && k <= hi then n + 1 else n)
           model 0)

(* A transaction takes the writer commit path (unique versionstamp via
   fetch-and-add) only when its write buffer ends non-empty; otherwise
   it commits on the read-only path and its stamp equals some writer's,
   so ties must order the (unique) effective writer first.  Whether the
   buffer ended non-empty is exactly reconstructible from ops + steps
   by mirroring [Txn.exec]'s bookkeeping: a PUT answering [S_ok] on a
   key with no underlying binding cancels against a later DEL of the
   same key (the pair drops out of the buffer), while writes that
   no-op ([S_exists], DEL answering 0) never enter it. *)
let effective_writer ops steps =
  let buf = Hashtbl.create 4 in
  List.iter2
    (fun o s ->
      match (o, s) with
      | T.Put (k, _), T.S_ok ->
          let underlying = Hashtbl.find_opt buf k = Some `Del in
          Hashtbl.replace buf k (`Put underlying)
      | T.Del k, T.S_int 1 -> (
          match Hashtbl.find_opt buf k with
          | Some (`Put true) -> Hashtbl.replace buf k `Del
          | Some (`Put false) -> Hashtbl.remove buf k
          | Some `Del | None -> Hashtbl.replace buf k `Del)
      | _ -> ())
    ops steps;
  Hashtbl.length buf > 0

let gen_ops rng ~universe ~ranges_ok =
  let nops = 2 + Splitmix.below rng 4 in
  let key () = 1 + Splitmix.below rng universe in
  List.init nops (fun _ ->
      match Splitmix.below rng (if ranges_ok then 6 else 4) with
      | 0 -> T.Get (key ())
      | 1 -> T.Put (key (), Splitmix.below rng 1000)
      | 2 -> T.Del (key ())
      | 3 -> T.Mget (Array.init (1 + Splitmix.below rng 3) (fun _ -> key ()))
      | 4 ->
          let a = key () and b = key () in
          T.Range (min a b, max a b)
      | _ ->
          let a = key () and b = key () in
          T.Rangecount (min a b, max a b))

(* Run the race and return the number of violations found by the
   offline checker (step mismatches + final-state mismatch). *)
let run_race (module M : Dstruct.Map_intf.MAP) ~seed ~domains ~ntxn ~universe =
  Verlib.reset ();
  let h = M.create ~n_hint:universe () in
  let store = T.Store.create (module M) h in
  let ranges_ok = M.range_capability = Dstruct.Map_intf.Ordered_range in
  (* Pre-fill through the store so the checker sees these commits too. *)
  let prefill = ref [] in
  for k = 1 to universe do
    if k mod 2 = 0 then
      match T.exec store [ T.Put (k, k * 10) ] with
      | T.Committed { vs; steps; _ } ->
          prefill := (vs, [ T.Put (k, k * 10) ], steps) :: !prefill
      | T.Aborted _ -> Alcotest.fail "prefill aborted with no contention"
  done;
  let worker i () =
    let rng = Splitmix.create ((seed * 1_000_003) + i) in
    let acc = ref [] in
    for _ = 1 to ntxn do
      let ops = gen_ops rng ~universe ~ranges_ok in
      match T.exec ~max_attempts:64 store ops with
      | T.Committed { vs; steps; _ } -> acc := (vs, ops, steps) :: !acc
      | T.Aborted _ -> ()
    done;
    !acc
  in
  let ds = List.init domains (fun i -> Domain.spawn (worker (i + 1))) in
  let logs = List.concat_map Domain.join ds in
  (* Versionstamp order; a read-only transaction committing at clock
     value [c] observed every writer with vs <= c, so on ties the
     writer (unique per vs) sorts first. *)
  let sorted =
    List.sort
      (fun (v1, o1, s1) (v2, o2, s2) ->
        match compare v1 v2 with
        | 0 -> compare (effective_writer o2 s2) (effective_writer o1 s1)
        | c -> c)
      (!prefill @ logs)
  in
  let model = Hashtbl.create 64 in
  let violations = ref 0 in
  List.iter
    (fun (vs, ops, steps) ->
      let expect = List.map (sim_step model) ops in
      if expect <> steps then begin
        incr violations;
        Printf.printf "  [%s] vs=%d: recorded steps disagree with model replay\n"
          M.name vs
      end)
    sorted;
  let final =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare
  in
  if final <> M.to_sorted_list h then begin
    incr violations;
    Printf.printf "  [%s] final structure contents diverge from model\n" M.name
  end;
  if not (T.Store.quiescent store) then begin
    incr violations;
    Printf.printf "  [%s] store not quiescent after race\n" M.name
  end;
  if T.size store <> M.size h then begin
    incr violations;
    Printf.printf "  [%s] counted size %d, structure holds %d\n" M.name
      (T.size store) (M.size h)
  end;
  M.check h;
  !violations

let serializability_tests =
  let prop map seed =
    let module M = (val map : Dstruct.Map_intf.MAP) in
    run_race (module M) ~seed ~domains:4 ~ntxn:150 ~universe:24 = 0
  in
  List.map
    (fun (name, map) ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:3
           ~name:(Printf.sprintf "serializable in versionstamp order (%s)" name)
           QCheck.(int_range 1 100_000)
           (prop map)))
    [
      ("btree", (module Dstruct.Btree : Dstruct.Map_intf.MAP));
      ("hashtable", (module Dstruct.Hashtable));
      ("sharded-btree:4", Harness.Registry.find "sharded-btree:4");
    ]

(* ------------------------------------------------------------------ *)
(* Exactly-once tokens. *)

let test_token_replay () =
  Verlib.reset ();
  let h = Dstruct.Btree.create ~n_hint:64 () in
  let store = T.Store.create (module Dstruct.Btree) h in
  let r0 = T.replays () in
  let vs1, steps1 =
    match T.exec ~token:42 store [ T.Put (1, 7) ] with
    | T.Committed { vs; steps; attempts } ->
        Alcotest.(check bool) "live commit has attempts" true (attempts > 0);
        (vs, steps)
    | T.Aborted _ -> Alcotest.fail "uncontended commit aborted"
  in
  (* Same token, different body: the cached outcome must be replayed
     verbatim and the body must NOT run (PUT 1 would answer EXISTS). *)
  (match T.exec ~token:42 store [ T.Put (1, 999) ] with
   | T.Committed { vs; steps; attempts } ->
       Alcotest.(check int) "replayed versionstamp" vs1 vs;
       Alcotest.(check bool) "replayed steps" true (steps = steps1);
       Alcotest.(check int) "replay marked attempts=0" 0 attempts
   | T.Aborted _ -> Alcotest.fail "token replay aborted");
  Alcotest.(check (option int)) "effect applied once" (Some 7) (T.get store 1);
  Alcotest.(check bool) "replay counter moved" true (T.replays () - r0 >= 1)

let test_token_race () =
  Verlib.reset ();
  let h = Dstruct.Btree.create ~n_hint:64 () in
  let store = T.Store.create (module Dstruct.Btree) h in
  (match T.exec store [ T.Put (5, 0) ] with
   | T.Committed _ -> ()
   | T.Aborted _ -> Alcotest.fail "seed aborted");
  let n = 4 in
  let ready = Atomic.make 0 in
  let worker () =
    Atomic.incr ready;
    while Atomic.get ready < n do
      Domain.cpu_relax ()
    done;
    T.exec ~token:777 store [ T.Del 5; T.Put (5, 1) ]
  in
  let outs = List.map Domain.join (List.init n (fun _ -> Domain.spawn worker)) in
  let stamps =
    List.map
      (function
        | T.Committed { vs; steps; _ } ->
            Alcotest.(check bool) "race steps" true
              (steps = [ T.S_int 1; T.S_ok ]);
            vs
        | T.Aborted _ -> Alcotest.fail "token race aborted")
      outs
  in
  (match stamps with
   | vs :: rest ->
       List.iter (Alcotest.(check int) "all callers see one versionstamp" vs) rest
   | [] -> assert false);
  Alcotest.(check (option int)) "counter bumped exactly once" (Some 1)
    (T.get store 5)

(* ------------------------------------------------------------------ *)
(* Abort-storm chaos: transfers are all-or-nothing, reads stay exact,
   and no stripe latch leaks past the storm. *)

let test_abort_storm () =
  Verlib.reset ();
  let h = Dstruct.Btree.create ~n_hint:64 () in
  let store = T.Store.create (module Dstruct.Btree) h in
  let writers = 3 and per = 200 and base = 1000 in
  for k = 1 to 2 * writers do
    match T.exec store [ T.Put (k, base) ] with
    | T.Committed _ -> ()
    | T.Aborted _ -> Alcotest.fail "seed aborted"
  done;
  (match F.find_plan "abort-storm" with
   | Ok p -> F.arm p
   | Error e -> Alcotest.fail ("abort-storm preset missing: " ^ e));
  let stop = Atomic.make false in
  let writer i () =
    let a = (2 * i) + 1 and b = (2 * i) + 2 in
    let va = ref base and vb = ref base in
    let rng = Splitmix.create (0x5eed + i) in
    let committed = ref 0 and aborted = ref 0 in
    for _ = 1 to per do
      let amt = Splitmix.below rng 21 - 10 in
      let na = !va - amt and nb = !vb + amt in
      match
        T.exec store [ T.Del a; T.Put (a, na); T.Del b; T.Put (b, nb) ]
      with
      | T.Committed { steps = [ T.S_int 1; T.S_ok; T.S_int 1; T.S_ok ]; _ } ->
          va := na;
          vb := nb;
          incr committed
      | T.Committed _ -> Alcotest.fail "transfer saw unexpected steps"
      | T.Aborted _ -> incr aborted (* all-or-nothing: shadows unchanged *)
    done;
    (!committed, !aborted)
  in
  let reader () =
    (* Serialized plain reads must never see a transfer mid-install. *)
    let viol = ref 0 and looks = ref 0 in
    while not (Atomic.get stop) do
      for i = 0 to writers - 1 do
        let a = (2 * i) + 1 and b = (2 * i) + 2 in
        incr looks;
        (match T.mget store [| a; b |] with
         | [| Some x; Some y |] -> if x + y <> 2 * base then incr viol
         | _ -> incr viol);
        let pairs = T.range store a b in
        (match pairs with
         | [ (_, x); (_, y) ] -> if x + y <> 2 * base then incr viol
         | _ -> incr viol)
      done
    done;
    (!viol, !looks)
  in
  let r = Domain.spawn reader in
  let ws = List.init writers (fun i -> Domain.spawn (writer i)) in
  let results = List.map Domain.join ws in
  Atomic.set stop true;
  let viol, looks = Domain.join r in
  let fired = F.fired_at "txn.validate" + F.fired_at "txn.commit" in
  F.disarm ();
  let committed = List.fold_left (fun s (c, _) -> s + c) 0 results in
  Alcotest.(check bool) "storm actually fired" true (fired > 0);
  Alcotest.(check bool) "some transfers still commit" true (committed > 0);
  Alcotest.(check bool) "reader observed state" true (looks > 0);
  Alcotest.(check int) "reader saw exact pair sums" 0 viol;
  Alcotest.(check bool) "no stripe latch leaked" true (T.Store.quiescent store);
  let total =
    List.fold_left (fun s (_, v) -> s + v) 0 (Dstruct.Btree.to_sorted_list h)
  in
  Alcotest.(check int) "money conserved exactly" (2 * writers * base) total;
  Dstruct.Btree.check h

(* ------------------------------------------------------------------ *)
(* Allocation budget of a plain write. *)

(* Minor-heap words allocated by [n] calls of [f]. *)
let minor_words_of n f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. w0

(* A plain PUT then DEL through [Txn] allocates what the same two map
   calls allocate on an identical tree, plus the two feed records,
   nothing more: the uncontended stripe latch builds no retry state.
   Per record: the written [Some v] (PUT only, 2 words), the one-write
   list and its pair (6), the log's record (4) and ring slot (2). *)
let test_single_write_alloc_budget () =
  Verlib.reset ();
  let module B = Dstruct.Btree in
  let n = 4096 in
  let tree () =
    let h = B.create ~n_hint:n () in
    for k = 1 to n do
      ignore (B.insert h (2 * k) k)
    done;
    h
  in
  let bare = tree () in
  let store = T.Store.create (module B) (tree ()) in
  Repl.Log.tap (Repl.Log.create ~capacity:64 ()) store;
  let calls = 4096 in
  let pair put del =
    let i = ref 0 in
    minor_words_of calls (fun () ->
        i := (!i + 1) mod n;
        let k = (2 * !i) + 1 in
        if not (put k !i && del k) then Alcotest.fail "write refused")
  in
  let map = pair (B.insert bare) (B.delete bare) in
  let txn = pair (T.put store) (T.del store) in
  let per_pair = (txn -. map) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per PUT+DEL beyond the map's <= 26" per_pair)
    true (per_pair <= 26.)

let () =
  Alcotest.run "txn"
    [
      ("serializability", serializability_tests);
      ( "tokens",
        [ case "replay is exactly-once" test_token_replay;
          case "concurrent same-token race" test_token_race ] );
      ("chaos", [ case "abort-storm: exact sums, no leaks" test_abort_storm ]);
      ( "alloc-budget",
        [ case "plain PUT/DEL: the feed record, nothing more"
            test_single_write_alloc_budget ] );
    ]
