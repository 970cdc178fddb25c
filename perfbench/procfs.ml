(* Readers for the three /proc files the benchmark takes its
   process-level numbers from.  The parsers work on the file text so
   they can be tested on fixed strings. *)

(* Linux reports [/proc/<pid>/stat] times in USER_HZ, which the kernel
   ABI fixes at 100 on every architecture user space sees. *)
let ticks_per_s = 100.

let fields s = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim s))

(* [/proc/<pid>/stat]: utime + stime (fields 14 and 15).  The command
   name (field 2) is parenthesised and may itself hold spaces or ')',
   so fields are counted from the last ')'. *)
let parse_stat_ticks s =
  match String.rindex_opt s ')' with
  | None -> Error "stat: no ')'"
  | Some i -> (
      let rest = fields (String.sub s (i + 1) (String.length s - i - 1)) in
      (* rest.(0) is field 3 (state), so utime is rest.(11). *)
      match List.filteri (fun j _ -> j = 11 || j = 12) rest with
      | [ u; st ] -> (
          match (int_of_string_opt u, int_of_string_opt st) with
          | Some u, Some st -> Ok (u + st)
          | _ -> Error "stat: utime/stime not integers")
      | _ -> Error "stat: too few fields")

(* [/proc/<pid>/status]: the [VmHWM:] line (peak resident set), kB. *)
let parse_status_hwm_kb s =
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  match line with
  | None -> Error "status: no VmHWM line"
  | Some l -> (
      match fields (String.sub l 6 (String.length l - 6)) with
      | n :: _ -> (
          match int_of_string_opt n with
          | Some kb -> Ok kb
          | None -> Error "status: VmHWM not an integer")
      | [] -> Error "status: empty VmHWM")

(* [/proc/stat]: the aggregate [cpu] line as (total, steal) jiffies.
   Total sums user..steal (the first eight columns); guest time is
   already inside user. *)
let parse_cpu_line s =
  let line =
    List.find_opt
      (fun l -> String.length l > 4 && String.sub l 0 4 = "cpu ")
      (String.split_on_char '\n' s)
  in
  match line with
  | None -> Error "stat: no aggregate cpu line"
  | Some l -> (
      let cols = List.map int_of_string_opt (List.tl (fields l)) in
      let cols = List.filteri (fun i _ -> i < 8) cols in
      if List.length cols < 8 || List.mem None cols then
        Error "stat: short cpu line"
      else
        let cols = List.map Option.get cols in
        Ok (List.fold_left ( + ) 0 cols, List.nth cols 7))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let get = function Ok v -> v | Error e -> failwith e

let cpu_s pid =
  float_of_int (get (parse_stat_ticks (read_file (Printf.sprintf "/proc/%d/stat" pid))))
  /. ticks_per_s

let hwm_kb pid = get (parse_status_hwm_kb (read_file (Printf.sprintf "/proc/%d/status" pid)))

let host_cpu () = get (parse_cpu_line (read_file "/proc/stat"))
