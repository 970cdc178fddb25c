let max_slots = 128

(* [used.(i)] is true while a live domain owns slot [i].  Slots are claimed
   with CAS so that domains racing to register never share an id. *)
let used : bool Atomic.t array = Array.init max_slots (fun _ -> Atomic.make false)

(* One past the highest slot ever claimed.  Slots are claimed lowest
   first, so the scans below stop here instead of reading all
   [max_slots] flags.  The epoch advance scans on every update, the
   done-stamp refresh every few loads. *)
let high_water = Atomic.make 0

let key : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let rec raise_high_water n =
  let h = Atomic.get high_water in
  if n > h && not (Atomic.compare_and_set high_water h n) then raise_high_water n

let claim () =
  let rec scan i =
    if i >= max_slots then failwith "Flock.Registry: too many simultaneous domains"
    else if (not (Atomic.get used.(i))) && Atomic.compare_and_set used.(i) false true
    then i
    else scan (i + 1)
  in
  let id = scan 0 in
  raise_high_water (id + 1);
  id

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
  for i = 0 to Atomic.get high_water - 1 do
    if Atomic.get used.(i) then f i
  done

let fold_ids f init =
  let acc = ref init in
  for i = 0 to Atomic.get high_water - 1 do
    if Atomic.get used.(i) then acc := f i !acc
  done;
  !acc

let registered_count () = fold_ids (fun _ n -> n + 1) 0
