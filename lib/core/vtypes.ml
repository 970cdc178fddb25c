(** Representation types shared by all versioned-pointer modes.

    A versioned location's head holds a {e version}: either the user
    object itself, whose version metadata lives on the object (the
    indirection-free case of §5), or an indirect version link carrying its
    own metadata (the WBB+ fallback).  The [meta] record is what user
    objects embed by "inheriting [versioned]" in the C++ API: a timestamp
    (initially {!Stamp.tbd}) and a pointer to the previous version.

    C++ Verlib steals a pointer bit to tell a link from an object.  Here
    the structure's own node type carries links as one more constructor
    (say [Link of node Vtypes.link]), and its null sentinel (a constant
    constructor) stands where C++ has [nullptr]; the structure hands both
    to {!Vptr.make_desc}.  Telling a link from an object is then a tag
    check, and the direct path has no box.  Every mode, the non-versioned
    baseline included, uses this one layout, so cross-mode comparisons
    stay fair. *)

type 'a meta = {
  stamp : int Atomic.t;
      (** [Stamp.tbd] until the version is installed and timestamped; set
          exactly once thereafter (set-stamp helping, §4). *)
  mutable prev : 'a;
      (** The superseded version, or the structure's null sentinel at the
          end of the chain.  Written before the version is published and
          afterwards only severed to null by truncation, so plain
          (non-atomic) access is data-race free. *)
}

type 'a link = {
  lmeta : 'a meta;
  lvalue : 'a;
  mutable lepoch : int;
      (** The {!Flock.Epoch.current_epoch} read by the first thread that
          saw this link installed with its stamp set, or [-1] until then.
          A shortcut waits until every domain inside an epoch at that
          moment has left it (see [Vptr.shortcut]).  Racing writers all
          store epochs read after that moment, so any value read back
          serves. *)
}
(** An indirect version: the value it installs (an object or the null
    sentinel) and its own metadata. *)

let fresh_meta null = { stamp = Atomic.make Stamp.tbd; prev = null }

let make_link ~stamp ~prev value =
  { lmeta = { stamp = Atomic.make stamp; prev }; lvalue = value; lepoch = -1 }
