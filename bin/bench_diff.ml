(* Compare two BENCH json files (Harness.Bench_json) and fail on
   regressions: throughput drops, latency/space growth beyond the
   threshold, rows that disappeared, or census invariant violations.

   Usage: bench_diff BASE.json CURRENT.json [--threshold PCT]
                     [--lat-threshold PCT]

   Every baseline row is compared: a row missing from CURRENT is a
   failure.

   Exit codes: 0 = within threshold, 1 = regression or missing rows,
   2 = unreadable input / usage error.  The threshold defaults to 50%
   and should stay generous: the CI scale runs fractions of a second on
   a time-shared core, so run-to-run throughput noise is large; the gate
   exists to catch collapses and invariant breaks, not 5% drift.
   Latency percentiles are informational unless --lat-threshold is
   passed — on an oversubscribed core they measure the scheduler. *)

let usage () =
  prerr_endline
    "usage: bench_diff BASE.json CURRENT.json [--threshold PCT] [--lat-threshold PCT]";
  exit 2

let () =
  let base_path = ref None and cur_path = ref None and threshold = ref 50. in
  let lat_threshold = ref None in
  let parse_pct flag v =
    match float_of_string_opt v with
    | Some t when t > 0. -> t
    | Some _ | None ->
        Printf.eprintf "bad %s %S\n" flag v;
        exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        threshold := parse_pct "threshold" v;
        parse rest
    | "--lat-threshold" :: v :: rest ->
        lat_threshold := Some (parse_pct "lat-threshold" v);
        parse rest
    | ("--threshold" | "--lat-threshold") :: [] -> usage ()
    | a :: rest ->
        (if !base_path = None then base_path := Some a
         else if !cur_path = None then cur_path := Some a
         else usage ());
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let base_path, cur_path =
    match (!base_path, !cur_path) with
    | Some b, Some c -> (b, c)
    | _ -> usage ()
  in
  let load path =
    match Harness.Bench_json.read_file path with
    | Ok d -> d
    | Error e ->
        Printf.eprintf "bench_diff: %s\n" e;
        exit 2
  in
  let base = load base_path and cur = load cur_path in
  let issues =
    Harness.Bench_json.diff ~threshold:!threshold ?lat_threshold:!lat_threshold
      base cur
  in
  Printf.printf
    "bench_diff: %d baseline row(s) [%s %s] vs %d current row(s) [%s %s], threshold %.0f%%\n"
    (List.length base.Harness.Bench_json.d_rows)
    base.Harness.Bench_json.d_scale base.Harness.Bench_json.d_created
    (List.length cur.Harness.Bench_json.d_rows)
    cur.Harness.Bench_json.d_scale cur.Harness.Bench_json.d_created !threshold;
  match issues with
  | [] ->
      print_endline "bench_diff: OK — no regressions";
      exit 0
  | issues ->
      List.iter
        (fun i -> print_endline ("  " ^ Harness.Bench_json.describe_issue i))
        issues;
      Printf.printf "bench_diff: FAIL — %d issue(s)\n" (List.length issues);
      exit 1
