(* Write-once logs.  A log is a chain of fixed-size chunks of CAS-once
   slots.  The [empty] sentinel is a private heap block, so physical
   equality can never confuse it with a logged value. *)

let empty : Obj.t = Obj.repr (ref 0)

let chunk_size = 8

type chunk = { slots : Obj.t Atomic.t array; next : chunk option Atomic.t }

type log = chunk

let make_chunk () =
  { slots = Array.init chunk_size (fun _ -> Atomic.make empty);
    next = Atomic.make None }

let create_log () = make_chunk ()

(* A frame is one helper's cursor into a shared log. *)
type frame = { mutable chunk : chunk; mutable pos : int }

let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

type frames = frame list ref

let frames = stack

let active (fs : frames) = !fs <> []

let in_frame () = active (stack ())

let frame_depth () = List.length !(stack ())

let enter log =
  let s = stack () in
  s := { chunk = log; pos = 0 } :: !s

let exit () =
  let s = stack () in
  match !s with
  | [] -> invalid_arg "Idem.exit: no active frame"
  | _ :: rest -> s := rest

(* Advance past a full chunk.  The successor chunk is itself agreed on with
   a CAS so all helpers traverse the same chain. *)
let next_chunk c =
  match Atomic.get c.next with
  | Some n -> n
  | None ->
      let candidate = make_chunk () in
      if Atomic.compare_and_set c.next None (Some candidate) then candidate
      else
        (match Atomic.get c.next with
         | Some n -> n
         | None -> assert false)

let next_slot fr =
  if fr.pos >= chunk_size then begin
    fr.chunk <- next_chunk fr.chunk;
    fr.pos <- 0
  end;
  let slot = fr.chunk.slots.(fr.pos) in
  fr.pos <- fr.pos + 1;
  slot

(* Fault-injection site: between computing a candidate value and the
   CAS-once that publishes it — pausing here widens the window in which
   a racing helper computes its own candidate and the two must agree
   through the slot (Theorem 6.2's idempotence argument). *)
let fp_cas = Fault.Point.make "idem.cas"

(* Publish candidate [x] into [slot] unless a racing helper got there
   first; either way return the agreed value. *)
let publish (type a) slot (x : a) : a =
  Fault.hit fp_cas;
  if Atomic.compare_and_set slot empty (Obj.repr x) then x
  else Obj.obj (Atomic.get slot)

let once (type a) (f : unit -> a) : a =
  match !(stack ()) with
  | [] -> f ()
  | fr :: _ ->
      let slot = next_slot fr in
      let v = Atomic.get slot in
      if v != empty then Obj.obj v else publish slot (f ())

(* [once (fun () -> Atomic.get a)] without the closure: the logged read
   sits on every helped load and CAS, so it must not allocate. *)
let get_in (type a) (fs : frames) (a : a Atomic.t) : a =
  match !fs with
  | [] -> Atomic.get a
  | fr :: _ ->
      let slot = next_slot fr in
      let v = Atomic.get slot in
      if v != empty then Obj.obj v else publish slot (Atomic.get a)

let get a = get_in (stack ()) a

(* [once (fun () -> x)] without the closure, for a candidate the caller
   has already built. *)
let agree_in (type a) (fs : frames) (x : a) : a =
  match !fs with
  | [] -> x
  | fr :: _ ->
      let slot = next_slot fr in
      let v = Atomic.get slot in
      if v != empty then Obj.obj v else publish slot x

(* A private heap block distinct from [empty]: the token a claim winner
   installs.  Its value is never read back, only compared away. *)
let claimed : Obj.t = Obj.repr (ref 1)

let claim_in (fs : frames) =
  match !fs with
  | [] -> true
  | fr :: _ ->
      let slot = next_slot fr in
      Atomic.get slot == empty && Atomic.compare_and_set slot empty claimed

let claim () = claim_in (stack ())
