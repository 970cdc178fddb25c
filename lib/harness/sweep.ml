(* Each job keeps its own due time; a late job's next due time is the
   first period boundary still ahead, so missed periods are skipped. *)

let max_sleep = 0.01

let run ~stop jobs =
  let jobs = Array.of_list (List.filter (fun (period, _) -> period > 0.) jobs) in
  let t0 = Unix.gettimeofday () in
  let due = Array.map (fun (period, _) -> t0 +. period) jobs in
  while not (Atomic.get stop) do
    let now = Unix.gettimeofday () in
    let next = Array.fold_left Float.min infinity due in
    if next > now then Unix.sleepf (Float.min max_sleep (next -. now))
    else
      Array.iteri
        (fun i (period, job) ->
          if (not (Atomic.get stop)) && Unix.gettimeofday () >= due.(i) then begin
            job ();
            let missed = Float.of_int (truncate ((Unix.gettimeofday () -. due.(i)) /. period)) in
            due.(i) <- due.(i) +. (period *. (missed +. 1.))
          end)
        jobs
  done

let spawn ~stop jobs =
  if List.exists (fun (period, _) -> period > 0.) jobs then
    Some (Domain.spawn (fun () -> run ~stop jobs))
  else None
