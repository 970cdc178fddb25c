(** Representation types shared by all versioned-pointer modes.

    Each versioned location holds a {!chain}: either a direct value
    ([Cval]) whose version metadata lives on the pointed-to object itself
    (the indirection-free case of §5), or an indirect version link
    ([Clink]) carrying its own metadata (the WBB+ fallback).  The [meta]
    record is what user objects embed by "inheriting [versioned]" in the
    C++ API: a timestamp (initially {!Stamp.tbd}) and a pointer to the
    previous version.

    C++ Verlib steals a pointer bit to distinguish direct from indirect;
    OCaml cannot tag pointers, so the distinction is the [chain]
    constructor.  [Cval] wraps the value in every mode — including the
    non-versioned baseline — so cross-mode comparisons stay fair. *)

type 'a meta = {
  stamp : int Atomic.t;
      (** [Stamp.tbd] until the version is installed and timestamped; set
          exactly once thereafter (set-stamp helping, §4). *)
  mutable prev : 'a chain;
      (** The superseded version.  Written before the version is published
          and immutable afterwards, so plain (non-atomic) access is
          data-race free. *)
}

and 'a chain = Cval of 'a option | Clink of 'a link

and 'a link = {
  lmeta : 'a meta;
  lvalue : 'a option;
  ldirect : 'a chain;
      (** The canonical [Cval lvalue] cell installed when this link is
          shortcut out.  Precomputed so that the shortcutter and any CAS
          that raced with it agree on one physically-unique cell — the role
          the stripped pointer plays in the C++ implementation. *)
}

let fresh_meta () = { stamp = Atomic.make Stamp.tbd; prev = Cval None }

let make_link ~stamp ~prev value =
  let v = Cval value in
  { lmeta = { stamp = Atomic.make stamp; prev }; lvalue = value; ldirect = v }

(* Equality of user values: versioned pointers compare pointees by
   physical identity, as the C++ library compares raw pointers. *)
let opt_eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x == y
  | None, Some _ | Some _, None -> false

let chain_value = function Cval v -> v | Clink l -> l.lvalue
