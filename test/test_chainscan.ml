(* Chainscan: census counts and invariant audit on handcrafted chains
   (vtypes is interface-free precisely so tests can build broken chains
   the real algorithms never produce), plus a qcheck property running
   the census concurrently with mutators — the walker must neither
   crash nor report violations on correct executions.

   [Vtypes.meta.prev] is written before publication and read-only after,
   so poking it directly from a single-threaded test is representation-
   faithful, not a cheat. *)

module V = Verlib
module C = Verlib.Chainscan

type obj = Obj of { v : int; meta : obj V.Vtypes.meta } | Link of obj V.Vtypes.link | Null

let mk v = Obj { v; meta = V.Vtypes.fresh_meta Null }

let meta = function
  | Obj o -> o.meta
  | Link l -> l.lmeta
  | Null -> invalid_arg "null has no metadata"

let desc mode =
  V.Vptr.make_desc ~meta_of:meta ~null:Null
    ~link:(fun l -> Link l)
    ~link_of:(function Link l -> l | _ -> invalid_arg "not a link")
    ~value_of:(function Link l -> l.lvalue | o -> o)
    ~mode

(* Build an object chain [stamps = [s0; s1; ...]] with s0 the head
   version; returns the head object.  [tbd] stamps stay unset. *)
let build_chain stamps =
  match stamps with
  | [] -> invalid_arg "build_chain"
  | s0 :: rest ->
      let head = mk 0 in
      Atomic.set (meta head).stamp s0;
      let rec extend (prev : obj) i = function
        | [] -> ()
        | s :: rest ->
            let o = mk i in
            Atomic.set (meta o).stamp s;
            (meta prev).prev <- o;
            extend o (i + 1) rest
      in
      extend head 1 rest;
      head

(* [Vptr.make] only claims a TBD stamp, so crafted heads (whose stamps
   are already set) are installed untouched, chain and all. *)
let target_of_head mode head =
  let d = desc mode in
  C.Target (d, V.Vptr.make d head)

let census_of target = C.census_of_targets [ target ]

let codes c = List.map C.violation_code c.C.c_violations

(* --- clean chains -------------------------------------------------------- *)

let test_sorted_chain () =
  V.reset ();
  let head = build_chain [ 30; 20; 20; 10 ] in
  let c = census_of (target_of_head V.Vptr.Ind_on_need head) in
  Alcotest.(check int) "pointers" 1 c.C.c_pointers;
  Alcotest.(check int) "versions" 4 c.C.c_versions;
  Alcotest.(check int) "max chain" 4 c.C.c_max_chain;
  Alcotest.(check int) "no violations" 0 c.C.c_violation_count;
  Alcotest.(check int) "live + reclaimable = versions" 4
    (c.C.c_live_versions + c.C.c_reclaimable);
  Alcotest.(check int) "direct head" 1 c.C.c_direct_heads

let test_empty_and_plain () =
  V.reset ();
  let c = census_of (target_of_head V.Vptr.Ind_on_need Null) in
  Alcotest.(check int) "nil head" 1 c.C.c_nil_heads;
  Alcotest.(check int) "no versions" 0 c.C.c_versions;
  let c = census_of (target_of_head V.Vptr.Plain (mk 1)) in
  Alcotest.(check int) "plain pointer counted" 1 c.C.c_plain_pointers;
  Alcotest.(check int) "plain is one version" 1 c.C.c_versions;
  Alcotest.(check int) "plain audits nothing" 0 c.C.c_violation_count

(* --- handcrafted violations ---------------------------------------------- *)

let test_unsorted_stamps () =
  V.reset ();
  (* stamp rises from 10 to 50 walking towards older versions *)
  let head = build_chain [ 10; 50; 5 ] in
  let c = census_of (target_of_head V.Vptr.Ind_on_need head) in
  Alcotest.(check bool) "unsorted detected" true (List.mem 1 (codes c));
  Alcotest.(check bool) "counted" true (c.C.c_violation_count >= 1);
  match
    List.find_opt (function C.Unsorted _ -> true | _ -> false) c.C.c_violations
  with
  | Some (C.Unsorted { newer; older; depth }) ->
      Alcotest.(check int) "newer stamp" 10 newer;
      Alcotest.(check int) "older stamp" 50 older;
      Alcotest.(check int) "at depth" 1 depth
  | _ -> Alcotest.fail "no Unsorted detail retained"

let test_buried_tbd () =
  V.reset ();
  let head = build_chain [ 10 ] in
  let tbd = mk 1 in
  (* fresh_meta leaves the stamp TBD *)
  (meta head).prev <- tbd;
  let c = census_of (target_of_head V.Vptr.Ind_on_need head) in
  Alcotest.(check bool) "buried TBD detected" true (List.mem 2 (codes c));
  (* a TBD *head* is legal: an in-flight CAS publishes with TBD and
     relies on set-stamp helping, which the passive census must not do *)
  let d = desc V.Vptr.Ind_on_need in
  let p = V.Vptr.make d Null in
  ignore (V.Vptr.cas d p Null (mk 3));
  let c = census_of (C.Target (d, p)) in
  Alcotest.(check int) "no violation for head-stamp states" 0
    c.C.c_violation_count

let test_dangling_link () =
  V.reset ();
  let a = mk 1 in
  (* a link whose value is itself a link — shortcutting it would publish
     a link as the location's object *)
  let bad =
    Link
      (V.Vtypes.make_link ~stamp:7 ~prev:Null
         (Link (V.Vtypes.make_link ~stamp:6 ~prev:Null a)))
  in
  let head = build_chain [ 9 ] in
  (meta head).prev <- bad;
  let c = census_of (target_of_head V.Vptr.Ind_on_need head) in
  Alcotest.(check bool) "dangling link detected" true (List.mem 3 (codes c));
  Alcotest.(check int) "link counted" 1 c.C.c_indirect_links;
  (* the well-formed link built by make_link passes the same audit *)
  let good = Link (V.Vtypes.make_link ~stamp:8 ~prev:Null a) in
  let head2 = build_chain [ 9 ] in
  (meta head2).prev <- good;
  let c2 = census_of (target_of_head V.Vptr.Ind_on_need head2) in
  Alcotest.(check int) "well-formed link is clean" 0 c2.C.c_violation_count;
  Alcotest.(check int) "link still counted" 1 c2.C.c_indirect_links

let test_depth_cap () =
  V.reset ();
  let head = build_chain (List.init 100 (fun i -> 1000 - i)) in
  let c =
    C.census_of_iter ~max_depth:10 (fun emit ->
        emit (target_of_head V.Vptr.Ind_on_need head))
  in
  Alcotest.(check int) "walk truncated" 1 c.C.c_truncated_walks;
  Alcotest.(check int) "capped versions" 10 c.C.c_versions

(* --- shortcut accounting on the real mechanism --------------------------- *)

(* Drive a real Ind_on_need pointer through claimed stores (the Figure 1
   situation that creates indirect links), then check the census sees the
   link and that the shortcut ratio moves once shortcutting runs. *)
let test_shortcut_effectiveness () =
  V.reset ();
  let d = desc V.Vptr.Ind_on_need in
  let shared = mk 42 in
  let p = V.Vptr.make d (mk 1) in
  let q = V.Vptr.make d (mk 2) in
  (* storing [shared] into both pointers forces the second store to take
     the indirection fallback: the object's meta is already claimed *)
  V.Vptr.store_norace d p shared;
  V.Vptr.store_norace d q shared;
  let c = C.census_of_targets [ C.Target (d, p); C.Target (d, q) ] in
  Alcotest.(check bool) "indirect link created" true
    (c.C.c_indirect_links >= 1 || c.C.c_indirect_created >= 1);
  Alcotest.(check int) "clean audit" 0 c.C.c_violation_count;
  (* loads shortcut resolved links out once the stamp is old enough *)
  ignore (V.Vptr.load d p);
  ignore (V.Vptr.load d q);
  let c2 = C.census_of_targets [ C.Target (d, p); C.Target (d, q) ] in
  Alcotest.(check bool) "shortcut ratio in [0,1]" true
    (C.shortcut_ratio c2 >= 0. && C.shortcut_ratio c2 <= 1.)

(* --- registry ------------------------------------------------------------ *)

let test_registry () =
  V.reset ();
  let target = target_of_head V.Vptr.Ind_on_need (mk 1) in
  let before = List.length (C.registered ()) in
  let r = C.register ~name:"t1" (fun emit -> emit target) in
  Alcotest.(check int) "registered" (before + 1) (List.length (C.registered ()));
  let all = C.census_all () in
  Alcotest.(check bool) "census_all includes t1" true
    (List.exists (fun (n, c) -> n = "t1" && c.C.c_pointers = 1) all);
  C.unregister r;
  Alcotest.(check int) "unregistered" before (List.length (C.registered ()))

(* --- concurrent censuses (qcheck) ---------------------------------------- *)

(* Property: a census running concurrently with real mutators never
   crashes and never reports violations — on a correct implementation,
   set-stamp runs before a successor is published and truncation only
   severs edges, so even racing walks see well-formed chains.  Runs on
   the hashtable (versioned cells) and the vbst (no versioned pointers:
   the census must come back empty rather than wander). *)
let concurrent_census_prop (module M : Dstruct.Map_intf.MAP) seed =
  V.reset ();
  let mode = if M.supports_mode V.Vptr.Ind_on_need then V.Vptr.Ind_on_need else V.Vptr.Plain in
  let t = M.create ~mode ~n_hint:256 () in
  for k = 1 to 64 do
    ignore (M.insert t k k)
  done;
  let stop = Atomic.make false in
  let mutator i () =
    let rng = Workload.Splitmix.create (seed + (i * 77)) in
    while not (Atomic.get stop) do
      let k = 1 + Workload.Splitmix.below rng 128 in
      if Workload.Splitmix.below rng 2 = 0 then ignore (M.insert t k k)
      else ignore (M.delete t k)
    done
  in
  let domains = List.init 2 (fun i -> Domain.spawn (mutator i)) in
  let ok = ref true in
  for _ = 1 to 20 do
    let c = C.census_of_iter (fun emit -> M.iter_vptrs t emit) in
    if c.C.c_violation_count <> 0 then ok := false;
    if c.C.c_versions < 0 || c.C.c_live_versions + c.C.c_reclaimable <> c.C.c_versions
    then ok := false
  done;
  Atomic.set stop true;
  List.iter Domain.join domains;
  (* quiescent census for good measure *)
  let c = C.census_of_iter (fun emit -> M.iter_vptrs t emit) in
  !ok && c.C.c_violation_count = 0

let qcheck_concurrent =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:5 ~name:"census concurrent with hashtable mutators"
         QCheck.small_nat
         (concurrent_census_prop (module Dstruct.Hashtable)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:3 ~name:"census concurrent with vbst mutators (empty census)"
         QCheck.small_nat
         (fun seed ->
           concurrent_census_prop (module Dstruct.Vbst) seed
           &&
           let t = Dstruct.Vbst.create ~n_hint:8 () in
           let c =
             C.census_of_iter (fun emit -> Dstruct.Vbst.iter_vptrs t emit)
           in
           c.C.c_pointers = 0 && c.C.c_versions = 0));
  ]

let () =
  Alcotest.run "chainscan"
    [
      ( "census",
        [
          Alcotest.test_case "sorted chain counts" `Quick test_sorted_chain;
          Alcotest.test_case "empty and plain pointers" `Quick test_empty_and_plain;
          Alcotest.test_case "depth cap" `Quick test_depth_cap;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "audit",
        [
          Alcotest.test_case "unsorted stamps" `Quick test_unsorted_stamps;
          Alcotest.test_case "buried TBD" `Quick test_buried_tbd;
          Alcotest.test_case "dangling indirect link" `Quick test_dangling_link;
          Alcotest.test_case "shortcut effectiveness" `Quick test_shortcut_effectiveness;
        ] );
      ("concurrent", qcheck_concurrent);
    ]
