let max_slots = 128

(* [used.(i)] is true while a live domain owns slot [i].  Slots are claimed
   with CAS so that domains racing to register never share an id. *)
let used : bool Atomic.t array = Array.init max_slots (fun _ -> Atomic.make false)

let key : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let claim () =
  let rec scan i =
    if i >= max_slots then failwith "Flock.Registry: too many simultaneous domains"
    else if (not (Atomic.get used.(i))) && Atomic.compare_and_set used.(i) false true
    then i
    else scan (i + 1)
  in
  scan 0

let release id = Atomic.set used.(id) false

let my_id () =
  match Domain.DLS.get key with
  | Some id -> id
  | None ->
      let id = claim () in
      Domain.DLS.set key (Some id);
      Domain.at_exit (fun () -> release id);
      id

let iter_ids f =
  for i = 0 to max_slots - 1 do
    if Atomic.get used.(i) then f i
  done

let fold_ids f init =
  let acc = ref init in
  for i = 0 to max_slots - 1 do
    if Atomic.get used.(i) then acc := f i !acc
  done;
  !acc

let registered_count () = fold_ids (fun _ n -> n + 1) 0
