(** VERLIB — concurrent versioned pointers (Blelloch & Wei, PPoPP 2024),
    reproduced in OCaml.

    Quick tour (mirroring the paper's Algorithm 2 interface):

    {[
      (* a versioned object: embed metadata, the OCaml "inherit versioned";
         the node type also carries indirect links and a null sentinel *)
      type node =
        | Node of { key : int; next : node Verlib.Vptr.t; meta : node Verlib.Vtypes.meta }
        | Link of node Verlib.Vtypes.link
        | Null

      let desc =
        Verlib.Vptr.make_desc ~mode:Verlib.Vptr.Ind_on_need ~null:Null
          ~meta_of:(function Node n -> n.meta | Link l -> l.lmeta | Null -> assert false)
          ~link:(fun l -> Link l)
          ~link_of:(function Link l -> l | _ -> assert false)
          ~value_of:(function Link l -> l.lvalue | n -> n)

      (* atomic loads / stores / CAS on versioned pointers; the head holds
         the object itself, and a load never returns a link *)
      let v = match n with Node n -> Verlib.Vptr.load desc n.next | _ -> Null

      (* a function f applied on an atomic snapshot *)
      let keys = Verlib.with_snapshot (fun () -> collect n)
    ]}

    The [Flock] library supplies the lock-free locks, idempotent atomics,
    idempotent allocation and epochs of the paper's companion interface
    ([flck::] in Algorithm 2). *)

module Stamp = Stamp
module Hwclock = Hwclock
module Vtypes = Vtypes
module Snapctx = Snapctx
module Done_stamp = Done_stamp
module Vptr = Vptr
module Snapshot = Snapshot
module Stats = Stats
module Obs = Obs
module Chainscan = Chainscan

let with_snapshot = Snapshot.with_snapshot

(** Reset global configuration to library defaults and clear statistics;
    used between experiment runs. *)
let reset ?(scheme = Stamp.Query_ts) ?(lock_mode = Flock.Lock.Lock_free)
    ?(direct_stores = true) () =
  Stamp.set_scheme scheme;
  Done_stamp.reset ();
  Flock.Lock.set_default_mode lock_mode;
  Vptr.set_direct_stores direct_stores;
  Stats.reset_all ();
  Obs.Span.reset ()
