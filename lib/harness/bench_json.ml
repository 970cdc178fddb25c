(* Machine-readable benchmark results (BENCH_PR7.json): a flat list of
   per-figure rows carrying throughput, latency percentiles, the chain
   census and space accounting, plus a comparator for regression gating.

   The schema is deliberately flat — one object per (figure, label) cell
   — so diffs between two runs reduce to keyed row lookup, and the file
   stays readable in a terminal.  Parsing goes through [Jsonlite] (the
   repo's strict no-dependency JSON), so the committed baseline is also
   a parser round-trip fixture. *)

let schema_version = 1

type row = {
  r_figure : string;  (* section id: fig8a, fig9, fig12, ... *)
  r_label : string;  (* cell id within the section, unique per figure *)
  r_mops : float;  (* 0. for space-only rows *)
  r_p50_us : float;  (* 0. when latency sampling was off *)
  r_p99_us : float;
  r_chain_max : int;
  r_chain_p99 : int;
  r_indirect_links : int;
  r_reclaimable : int;
  r_violations : int;
  r_space_bytes : float;  (* bytes per entry; 0. when not measured *)
  r_retries : int;  (* retries absorbed by the run (txn rows) *)
  r_giveups : int;  (* operations abandoned after retry exhaustion *)
  r_alloc_bytes_per_op : float;
      (* GC-allocated bytes per completed operation (minor + direct
         major words, per-worker deltas); 0. = not measured *)
  r_gc_minor : int;  (* minor collections during the measured run *)
  r_gc_major : int;  (* major collections during the measured run *)
}

type doc = {
  d_schema : int;
  d_label : string;  (* free-form run description *)
  d_created : string;  (* YYYY-MM-DD, informational only *)
  d_scale : string;  (* ci | quick | full *)
  d_rows : row list;
}

let make_doc ?(label = "") ?(scale = "quick") rows =
  let created =
    let t = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02d" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
      t.Unix.tm_mday
  in
  { d_schema = schema_version; d_label = label; d_created = created;
    d_scale = scale; d_rows = rows }

(* --- rendering ---------------------------------------------------------- *)

let json_of_row r =
  (* Post-baseline fields are emitted only when non-zero: the committed
     baseline predates them and stays byte-comparable for fault-free
     runs. *)
  let resilience =
    if r.r_retries = 0 then ""
    else Printf.sprintf ",\"retries\":%d" r.r_retries
  in
  let giveups =
    if r.r_giveups = 0 then "" else Printf.sprintf ",\"giveups\":%d" r.r_giveups
  in
  let gc =
    (if r.r_alloc_bytes_per_op = 0. then ""
     else Printf.sprintf ",\"alloc_bytes_per_op\":%.1f" r.r_alloc_bytes_per_op)
    ^ (if r.r_gc_minor = 0 then ""
       else Printf.sprintf ",\"gc_minor\":%d" r.r_gc_minor)
    ^
    if r.r_gc_major = 0 then ""
    else Printf.sprintf ",\"gc_major\":%d" r.r_gc_major
  in
  Printf.sprintf
    "{\"figure\":\"%s\",\"label\":\"%s\",\"mops\":%.6f,\"p50_us\":%.3f,\
     \"p99_us\":%.3f,\"chain_max\":%d,\"chain_p99\":%d,\"indirect_links\":%d,\
     \"reclaimable\":%d,\"violations\":%d,\"space_bytes\":%.1f%s%s%s}"
    (Jsonlite.escape r.r_figure) (Jsonlite.escape r.r_label) r.r_mops r.r_p50_us
    r.r_p99_us r.r_chain_max r.r_chain_p99 r.r_indirect_links r.r_reclaimable
    r.r_violations r.r_space_bytes resilience giveups gc

let to_json d =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":%d,\"label\":\"%s\",\"created\":\"%s\",\"scale\":\"%s\",\"rows\":[\n"
       d.d_schema (Jsonlite.escape d.d_label) (Jsonlite.escape d.d_created)
       (Jsonlite.escape d.d_scale));
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (json_of_row r))
    d.d_rows;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_file path d =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json d))

(* --- parsing ------------------------------------------------------------ *)

let ( let* ) = Option.bind

let ( =<< ) f o = Option.bind o f

let num name j = Jsonlite.to_number =<< Jsonlite.member name j

let str name j = Jsonlite.to_string =<< Jsonlite.member name j

let row_of_json j =
  let* figure = str "figure" j in
  let* label = str "label" j in
  let* mops = num "mops" j in
  let* p50 = num "p50_us" j in
  let* p99 = num "p99_us" j in
  let* chain_max = num "chain_max" j in
  let* chain_p99 = num "chain_p99" j in
  let* indirect = num "indirect_links" j in
  let* reclaimable = num "reclaimable" j in
  let* violations = num "violations" j in
  let* space = num "space_bytes" j in
  (* Optional (absent in pre-resilience baselines): default 0. *)
  let opt_int name = match num name j with Some v -> int_of_float v | None -> 0 in
  let retries = opt_int "retries" in
  let giveups = opt_int "giveups" in
  let alloc_bytes_per_op =
    match num "alloc_bytes_per_op" j with Some v -> v | None -> 0.
  in
  let gc_minor = opt_int "gc_minor" in
  let gc_major = opt_int "gc_major" in
  Some
    {
      r_figure = figure;
      r_label = label;
      r_mops = mops;
      r_p50_us = p50;
      r_p99_us = p99;
      r_chain_max = int_of_float chain_max;
      r_chain_p99 = int_of_float chain_p99;
      r_indirect_links = int_of_float indirect;
      r_reclaimable = int_of_float reclaimable;
      r_violations = int_of_float violations;
      r_space_bytes = space;
      r_retries = retries;
      r_giveups = giveups;
      r_alloc_bytes_per_op = alloc_bytes_per_op;
      r_gc_minor = gc_minor;
      r_gc_major = gc_major;
    }

let of_json j =
  let* schema = num "schema" j in
  let* label = str "label" j in
  let* created = str "created" j in
  let* scale = str "scale" j in
  let* rows = Jsonlite.to_list =<< Jsonlite.member "rows" j in
  let* rows =
    List.fold_right
      (fun j acc -> let* acc = acc in let* r = row_of_json j in Some (r :: acc))
      rows (Some [])
  in
  Some
    {
      d_schema = int_of_float schema;
      d_label = label;
      d_created = created;
      d_scale = scale;
      d_rows = rows;
    }

let of_string s =
  match Jsonlite.parse_result s with
  | Error e -> Error e
  | Ok j -> (
      match of_json j with
      | Some d when d.d_schema = schema_version -> Ok d
      | Some d ->
          Error (Printf.sprintf "unsupported schema version %d" d.d_schema)
      | None -> Error "missing or ill-typed BENCH fields")

let read_file path =
  match Jsonlite.parse_file path with
  | Error e -> Error e
  | Ok j -> (
      match of_json j with
      | Some d when d.d_schema = schema_version -> Ok d
      | Some d ->
          Error (Printf.sprintf "%s: unsupported schema version %d" path d.d_schema)
      | None -> Error (path ^ ": missing or ill-typed BENCH fields"))

(* --- comparison --------------------------------------------------------- *)

type issue =
  | Missing_row of { figure : string; label : string }
  | Regression of {
      figure : string;
      label : string;
      metric : string;
      base : float;
      cur : float;
      limit : float;
    }
  | Violations of { figure : string; label : string; count : int }

let describe_issue = function
  | Missing_row { figure; label } ->
      Printf.sprintf "MISSING  %s/%s: row present in baseline, absent in current"
        figure label
  | Regression { figure; label; metric; base; cur; limit } ->
      Printf.sprintf "REGRESSION  %s/%s %s: %.3f -> %.3f (limit %.3f)" figure
        label metric base cur limit
  | Violations { figure; label; count } ->
      Printf.sprintf "VIOLATIONS  %s/%s: census reported %d chain-invariant violation(s)"
        figure label count

let find d ~figure ~label =
  List.find_opt (fun r -> r.r_figure = figure && r.r_label = label) d.d_rows

(* Regression policy, deliberately one-sided and tolerant: throughput may
   drop by at most [threshold] percent, space may grow by at most
   [threshold] percent, and census violations fail outright at any
   threshold.  Tiny absolute values are exempt (noise floor) — a
   one-core container cannot hold 5% tolerances.

   Latency percentiles are informational unless [lat_threshold] is
   given: on an oversubscribed core the p99 of a sub-second run is
   dominated by domain preemption (milliseconds of scheduler stall on
   top of microsecond ops) and power-of-two histogram buckets, so
   run-to-run "regressions" of 2-30x are routine noise there. *)
let diff ?(threshold = 50.) ?lat_threshold (base : doc) (cur : doc) =
  let frac = threshold /. 100. in
  let issues = ref [] in
  let push i = issues := i :: !issues in
  List.iter
    (fun b ->
      match find cur ~figure:b.r_figure ~label:b.r_label with
      | None -> push (Missing_row { figure = b.r_figure; label = b.r_label })
      | Some c ->
          let regression metric base_v cur_v limit =
            push
              (Regression
                 { figure = b.r_figure; label = b.r_label; metric;
                   base = base_v; cur = cur_v; limit })
          in
          (* throughput: lower is worse *)
          if b.r_mops > 0.01 then begin
            let floor_v = b.r_mops *. (1. -. frac) in
            if c.r_mops < floor_v then regression "mops" b.r_mops c.r_mops floor_v
          end;
          (* p99 latency: higher is worse; gated only on request *)
          (match lat_threshold with
           | Some t when b.r_p99_us > 1. && c.r_p99_us > 0. ->
               let cap = b.r_p99_us *. (1. +. (t /. 100.)) in
               if c.r_p99_us > cap then
                 regression "p99_us" b.r_p99_us c.r_p99_us cap
           | Some _ | None -> ());
          (* space: higher is worse *)
          if b.r_space_bytes > 1. && c.r_space_bytes > 0. then begin
            let cap = b.r_space_bytes *. (1. +. frac) in
            if c.r_space_bytes > cap then
              regression "space_bytes" b.r_space_bytes c.r_space_bytes cap
          end;
          (* allocation rate: higher is worse; gated only when both
             runs measured it and it clears the noise floor (a few
             words per op) *)
          if b.r_alloc_bytes_per_op > 16. && c.r_alloc_bytes_per_op > 0. then begin
            let cap = b.r_alloc_bytes_per_op *. (1. +. frac) in
            if c.r_alloc_bytes_per_op > cap then
              regression "alloc_bytes_per_op" b.r_alloc_bytes_per_op
                c.r_alloc_bytes_per_op cap
          end;
          if c.r_violations > 0 then
            push
              (Violations
                 { figure = c.r_figure; label = c.r_label; count = c.r_violations }))
    base.d_rows;
  List.rev !issues
