(** Concurrent (a,b)-tree with versioned child pointers — the OCaml
    counterpart of the paper's FLOCK-derived B-tree, "the first B-tree that
    is lock-free and versioned".

    Design (mirrors §8's description and the constraints of versioned
    pointers):

    - nodes are immutable except for their child {e cells}, which are
      versioned pointers; every update publishes through exactly one cell
      swing, which is its linearization point, so snapshot queries
      traversing only versioned cells are linearizable;
    - a leaf update copies the leaf and swings its cell under the parent's
      lock;
    - structural changes (split, merge, redistribution, root collapse)
      replace whole nodes: the replaced nodes are locked and marked
      removed, their frozen cells are copied into fresh nodes
      (metadata-sharing initialisation, so no indirection is added), and
      one cell swing publishes the new subtree;
    - full or under-occupied children are repaired eagerly during descent,
      so structural repairs never cascade more than one level at a time;
      an [upsert] descends without repairs (an overwrite changes no
      occupancy) and restarts with an insert's splits only when its key
      is absent from a full leaf.

    The tree is relaxed: occupancy minimums are restored opportunistically,
    so transient under-full nodes are legal (checked invariants reflect
    this).  Works with blocking or lock-free locks and all versioned
    pointer modes; in [Rec_once] mode node replacement would re-record
    nodes, so only the paper's recorded-once-friendly operations are
    exercised there (see [supports_mode]). *)

include Map_intf.MAP

val shape : t -> int * int
(** [(inner nodes, leaves)] currently reachable; call at quiescence. *)

val debug_dump : t -> unit
(** Print the tree shape (occupancy, marks) to stdout; debugging aid. *)
