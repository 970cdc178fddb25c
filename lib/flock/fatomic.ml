type 'a box = { v : 'a }

type 'a t = 'a box Atomic.t

let make v = Atomic.make { v }

let load t = (Idem.get t).v

let store t x =
  if Idem.in_frame () then begin
    (* All helpers agree on the pre-state box and share one new box, so the
       CAS lands exactly once.  If it fails, another helper already
       performed this same store. *)
    let old_box = Idem.get t in
    let new_box = Idem.once (fun () -> { v = x }) in
    ignore (Atomic.compare_and_set t old_box new_box)
  end
  else Atomic.set t { v = x }

let cam t ~old_v ~new_v =
  let old_box = Idem.get t in
  if old_box.v == old_v then begin
    let new_box = Idem.once (fun () -> { v = new_v }) in
    ignore (Atomic.compare_and_set t old_box new_box)
  end
