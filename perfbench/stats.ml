(* Exact order statistics over raw samples.  Latencies are kept one by
   one in a preallocated array and read back sorted, never through the
   server's power-of-two histograms (whose bucket bounds are what every
   p50 in the old bench baseline reads as).  Each sample carries a tag
   (the window slice it fell in), so a subset can be read back. *)

type samples = { data : float array; tag : int array; mutable n : int }

let samples cap =
  let cap = max 1 cap in
  { data = Array.make cap 0.; tag = Array.make cap 0; n = 0 }

let full s = s.n >= Array.length s.data

(* No-op once full: the caller stops its window at [full]. *)
let add ?(tag = 0) s x =
  if s.n < Array.length s.data then begin
    s.data.(s.n) <- x;
    s.tag.(s.n) <- tag;
    s.n <- s.n + 1
  end

let count s = s.n

(* The samples whose tag [keep] accepts, ascending. *)
let sorted ?(keep = fun _ -> true) s =
  let a = Array.make s.n 0. and k = ref 0 in
  for i = 0 to s.n - 1 do
    if keep s.tag.(i) then begin
      a.(!k) <- s.data.(i);
      incr k
    end
  done;
  let a = Array.sub a 0 !k in
  Array.sort Float.compare a;
  a

(* The samples split by tag into [tags] ascending arrays, one per tag
   in 0..tags-1; samples with any other tag are dropped. *)
let by_tag s tags =
  let has t = t >= 0 && t < tags in
  let counts = Array.make tags 0 in
  for i = 0 to s.n - 1 do
    let t = s.tag.(i) in
    if has t then counts.(t) <- counts.(t) + 1
  done;
  let out = Array.map (fun c -> Array.make c 0.) counts and fill = Array.make tags 0 in
  for i = 0 to s.n - 1 do
    let t = s.tag.(i) in
    if has t then begin
      out.(t).(fill.(t)) <- s.data.(i);
      fill.(t) <- fill.(t) + 1
    end
  done;
  Array.iter (Array.sort Float.compare) out;
  out

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p] of the samples at or below it.  [p] in (0, 1]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let count_above a x = Array.fold_left (fun c v -> if v > x then c + 1 else c) 0 a

let median l =
  match List.sort Float.compare l with
  | [] -> invalid_arg "Stats.median: empty"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
