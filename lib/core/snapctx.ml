let none = min_int

type ctx = { mutable local : int; mutable optimistic : bool; mutable aborted : bool }

let key : ctx Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { local = none; optimistic = false; aborted = false })

let ctx () = Domain.DLS.get key

let local_stamp () = (ctx ()).local

let set_local_stamp s = (ctx ()).local <- s

let clear_local_stamp () = (ctx ()).local <- none

let optimistic () = (ctx ()).optimistic

let set_optimistic b = (ctx ()).optimistic <- b

let aborted () = (ctx ()).aborted

let clear_aborted () = (ctx ()).aborted <- false

let note_equal_in c = if c.optimistic then c.aborted <- true

let current = ctx

let stamp_of c = c.local
