(* In-memory span log of a traced run: one record per timed call (layer
   name, request id, start and end in hardware clock ticks), kept in
   preallocated arrays so recording allocates nothing, and written out
   once at the end. *)

type t = {
  mutable names : string list;  (** interned layer names, newest first *)
  name : int array;
  req : int array;
  start : int array;
  stop : int array;
  mutable n : int;
  mutable dropped : int;
}

let create cap =
  {
    names = [];
    name = Array.make cap 0;
    req = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    n = 0;
    dropped = 0;
  }

(* Intern once, outside timed sections. *)
let intern t s =
  let rec find i = function
    | [] -> None
    | x :: tl -> if x = s then Some i else find (i - 1) tl
  in
  match find (List.length t.names - 1) t.names with
  | Some i -> i
  | None ->
      t.names <- s :: t.names;
      List.length t.names - 1

let add t ~name ~req t0 t1 =
  if t.n < Array.length t.name then begin
    let i = t.n in
    t.name.(i) <- name;
    t.req.(i) <- req;
    t.start.(i) <- t0;
    t.stop.(i) <- t1;
    t.n <- i + 1
  end
  else t.dropped <- t.dropped + 1

let count t = t.n

(* Tab-separated, one span per line, times in ns from the earliest span
   of any log. *)
let write path logs =
  let ns ticks = Verlib.Hwclock.to_us ticks *. 1000. in
  let origin =
    List.fold_left
      (fun o t -> if t.n = 0 then o else min o (Array.fold_left min max_int (Array.sub t.start 0 t.n)))
      max_int logs
  in
  Out_channel.with_open_text path @@ fun oc ->
  output_string oc "# layer\treq\tstart_ns\tend_ns\n";
  List.iter
    (fun t ->
      let names = Array.of_list (List.rev t.names) in
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%s\t%d\t%.0f\t%.0f\n" names.(t.name.(i)) t.req.(i)
          (ns (t.start.(i) - origin))
          (ns (t.stop.(i) - origin))
      done)
    logs
