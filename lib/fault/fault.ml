(* Fault injection for the versioning core and the wire layer.  See the
   interface for the model; the implementation notes that matter:

   - The only cost when disarmed is [Atomic.get gate] + a not-taken
     branch in {!hit}/{!io_check}.
   - Trigger state is per-domain (DLS): a hit counter per rule and one
     splitmix RNG seeded from [(plan seed, domain ordinal)].  Arming
     bumps a generation counter; each domain lazily resets its state
     when it notices the generation moved, so replaying a plan replays
     its decisions.
   - [Stall_forever] parks in a sleep loop until the generation moves
     (disarm or re-arm) — crash-stop for the armed window, joinable at
     shutdown.
   - This module sits below [Flock] in the dependency order (Flock's own
     hot paths carry points), so it must not use [Flock.Registry] or
     [Flock.Telemetry]; it keeps its own domain ordinals and counters,
     and [Verlib.Obs] re-exports {!fired_total} as the [faults_fired]
     gauge. *)

exception Injected of string

type action =
  | Pause of float
  | Stall_forever
  | Yield_storm of int
  | Fail of exn
  | Short_write of int
  | Econnreset
  | Eagain_burst of int
  | Partition of float
  | Dup

type trigger = Always | Once | Nth of int | Every of int | Prob of float

type rule = { r_point : string; r_trigger : trigger; r_action : action }

type plan = { p_name : string; p_seed : int; p_rules : rule list }

let plan ?(name = "custom") ?(seed = 1) rules =
  { p_name = name; p_seed = seed; p_rules = rules }

(* ------------------------------------------------------------------ *)
(* Armed state                                                         *)

type armed_state = {
  a_plan : plan;
  a_gen : int;
  a_rules : rule array;
  a_once : bool Atomic.t array;  (** per-rule process-wide Once latch *)
}

let gate = Atomic.make false

let generation = Atomic.make 0

let state : armed_state option Atomic.t = Atomic.make None

let fired = Atomic.make 0

let stalled = Atomic.make 0

let fired_total () = Atomic.get fired

let stalled_now () = Atomic.get stalled

let armed () =
  if Atomic.get gate then
    match Atomic.get state with Some a -> Some a.a_plan | None -> None
  else None

let disarm () =
  Atomic.set gate false;
  Atomic.set state None;
  Atomic.incr generation

let arm p =
  Atomic.set gate false;
  let a =
    {
      a_plan = p;
      a_gen = Atomic.get generation + 1;
      a_rules = Array.of_list p.p_rules;
      a_once = Array.init (List.length p.p_rules) (fun _ -> Atomic.make false);
    }
  in
  Atomic.set state (Some a);
  Atomic.incr generation;
  Atomic.set gate true

(* ------------------------------------------------------------------ *)
(* Per-domain trigger state                                            *)

(* Domain ordinals: assigned once per domain, first fault-state access.
   Deterministic whenever domain spawn order is (the tests pin a single
   domain, where the ordinal is irrelevant). *)
let next_ord = Atomic.make 0

type dstate = {
  d_ord : int;
  mutable d_gen : int;  (** generation the fields below belong to *)
  mutable d_rng : int;
  mutable d_counts : int array;  (** hits per rule index *)
}

let dkey : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { d_ord = Atomic.fetch_and_add next_ord 1; d_gen = -1; d_rng = 0;
        d_counts = [||] })

(* Splitmix (same construction as Workload.Splitmix, inlined because
   this library sits below everything): constants truncated to OCaml's
   63-bit int range. *)
let golden_gamma = 0x1E3779B97F4A7C15

let mix z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14B06A1E3769D9 in
  z lxor (z lsr 31)

let rng_next st =
  st.d_rng <- st.d_rng + golden_gamma;
  mix st.d_rng land max_int

let rng_span = Float.of_int max_int +. 1.

let rng_float st = Float.of_int (rng_next st) /. rng_span

let dstate (a : armed_state) =
  let st = Domain.DLS.get dkey in
  if st.d_gen <> a.a_gen then begin
    st.d_gen <- a.a_gen;
    st.d_rng <- ((a.a_plan.p_seed * 0x2545F4914F6CDD1D) + st.d_ord) * 0x9E3779B9;
    st.d_counts <- Array.make (Array.length a.a_rules) 0
  end;
  st

(* ------------------------------------------------------------------ *)
(* Points                                                              *)

module Point = struct
  type t = {
    pt_name : string;
    pt_fired : int Atomic.t;
    (* armed-plan rule indices matching this point, cached per
       generation; only touched when the gate is open *)
    mutable pt_cache_gen : int;
    mutable pt_cache : int list;
    (* [Partition] latch: while [gettimeofday () < pt_down_until] (and
       the generation matches — disarm heals instantly) every hit at
       this point raises, so reconnect attempts fail for the whole
       window, not just the call that drew the action. *)
    pt_down_until : float Atomic.t;
    pt_down_gen : int Atomic.t;
  }

  let registry : t list ref = ref []

  let registry_mutex = Mutex.create ()

  let make pt_name =
    Mutex.lock registry_mutex;
    let p =
      match List.find_opt (fun p -> p.pt_name = pt_name) !registry with
      | Some p -> p
      | None ->
          let p =
            { pt_name; pt_fired = Atomic.make 0; pt_cache_gen = -1;
              pt_cache = []; pt_down_until = Atomic.make 0.;
              pt_down_gen = Atomic.make (-1) }
          in
          registry := p :: !registry;
          p
    in
    Mutex.unlock registry_mutex;
    p

  let name p = p.pt_name

  let find pt_name =
    Mutex.lock registry_mutex;
    let p = List.find_opt (fun p -> p.pt_name = pt_name) !registry in
    Mutex.unlock registry_mutex;
    p
end

let fired_at name =
  match Point.find name with
  | Some p -> Atomic.get p.Point.pt_fired
  | None -> 0

(* ["server.*"] and ["*"] are prefix patterns; anything else matches
   exactly. *)
let pattern_matches pat name =
  let n = String.length pat in
  if n > 0 && pat.[n - 1] = '*' then
    let prefix = String.sub pat 0 (n - 1) in
    String.length name >= n - 1 && String.sub name 0 (n - 1) = prefix
  else String.equal pat name

let matching_rules (a : armed_state) (p : Point.t) =
  if p.Point.pt_cache_gen = a.a_gen then p.Point.pt_cache
  else begin
    let idxs = ref [] in
    Array.iteri
      (fun i r ->
        if pattern_matches r.r_point p.Point.pt_name then idxs := i :: !idxs)
      a.a_rules;
    let idxs = List.rev !idxs in
    p.Point.pt_cache <- idxs;
    p.Point.pt_cache_gen <- a.a_gen;
    idxs
  end

(* ------------------------------------------------------------------ *)
(* Decision and execution                                              *)

(* Every matching rule's counter advances on every hit (and every Prob
   rule draws), whether or not an earlier rule already fired — firing
   must not perturb the trigger sequence, or replay would diverge. *)
let decide (a : armed_state) st idx =
  let r = a.a_rules.(idx) in
  let n = st.d_counts.(idx) + 1 in
  st.d_counts.(idx) <- n;
  match r.r_trigger with
  | Always -> true
  | Once ->
      (not (Atomic.get a.a_once.(idx)))
      && Atomic.compare_and_set a.a_once.(idx) false true
  | Nth k -> n = k
  | Every k -> k > 0 && n mod k = 0
  | Prob p ->
      let draw = rng_float st in
      draw < p

let evaluate (p : Point.t) : action option =
  match Atomic.get state with
  | None -> None
  | Some a -> (
      match matching_rules a p with
      | [] -> None
      | idxs ->
          let st = dstate a in
          let chosen = ref None in
          List.iter
            (fun idx ->
              let fire = decide a st idx in
              if fire && !chosen = None then
                chosen := Some a.a_rules.(idx).r_action)
            idxs;
          (match !chosen with
           | Some _ ->
               Atomic.incr fired;
               Atomic.incr p.Point.pt_fired
           | None -> ());
          !chosen)

(* Observer for blocking actions (pause/stall/yield): layers above can
   wrap the blocked interval to attribute it — [Verlib.Obs] installs a
   wrapper that books the time into the current request span's "stall"
   phase, which is how injected chaos shows up as a named phase in
   request traces instead of silently inflating whatever phase was
   open.  The default is transparent.  This module sits below Flock, so
   the hook is how attribution crosses the layering without a
   dependency. *)
let blocking_observer : ((unit -> unit) -> unit) ref = ref (fun f -> f ())

let set_blocking_observer f = blocking_observer := f

let observe_blocking f = !blocking_observer f

(* Park until the generation moves (disarm or a new plan). *)
let stall_here () =
  let g = Atomic.get generation in
  Atomic.incr stalled;
  Fun.protect
    ~finally:(fun () -> Atomic.decr stalled)
    (fun () ->
      while Atomic.get generation = g do
        Unix.sleepf 0.002
      done)

(* Partition windows: latched on the point when the action fires, so
   subsequent hits (including reconnect attempts from other domains)
   keep failing until the wall clock passes the window or the plan is
   disarmed. *)
let down_now (p : Point.t) =
  match Atomic.get state with
  | None -> false
  | Some a ->
      Atomic.get p.Point.pt_down_gen = a.a_gen
      && Unix.gettimeofday () < Atomic.get p.Point.pt_down_until

let latch_partition (p : Point.t) d =
  (match Atomic.get state with
   | Some a ->
       Atomic.set p.Point.pt_down_until (Unix.gettimeofday () +. d);
       Atomic.set p.Point.pt_down_gen a.a_gen
   | None -> ());
  raise (Injected "partition")

let perform_at (p : Point.t) = function
  | Pause d -> if d > 0. then observe_blocking (fun () -> Unix.sleepf d)
  | Stall_forever -> observe_blocking stall_here
  | Yield_storm n ->
      observe_blocking (fun () ->
          for _ = 1 to n do
            Thread.yield ()
          done)
  | Fail e -> raise e
  | Partition d -> latch_partition p d
  | Short_write _ | Econnreset | Eagain_burst _ | Dup ->
      (* Caller-interpreted actions (I/O trio against a file descriptor,
         Dup against a record stream); at an uninterpreted site they are
         inert. *)
      ()

let raise_down (p : Point.t) =
  Atomic.incr fired;
  Atomic.incr p.Point.pt_fired;
  raise (Injected "partition")

let hit p =
  if Atomic.get gate then begin
    if down_now p then raise_down p;
    match evaluate p with None -> () | Some a -> perform_at p a
  end

let io_check p =
  if Atomic.get gate then begin
    if down_now p then raise_down p;
    match evaluate p with
    | None -> None
    | Some ((Short_write _ | Econnreset | Eagain_burst _) as io) -> Some io
    | Some a ->
        perform_at p a;
        None
  end
  else None

let feed_check p =
  if Atomic.get gate then begin
    if down_now p then raise_down p;
    match evaluate p with
    | None -> None
    | Some Dup -> Some Dup
    | Some a ->
        perform_at p a;
        None
  end
  else None

(* ------------------------------------------------------------------ *)
(* Plan grammar                                                        *)

let trigger_to_string = function
  | Always -> "always"
  | Once -> "once"
  | Nth n -> Printf.sprintf "nth=%d" n
  | Every n -> Printf.sprintf "every=%d" n
  | Prob p -> Printf.sprintf "p=%g" p

let action_to_string = function
  | Pause s -> Printf.sprintf "pause=%g" (s *. 1000.)
  | Stall_forever -> "stall"
  | Yield_storm n -> Printf.sprintf "yield=%d" n
  | Fail (Injected msg) -> if msg = "fault" then "fail" else "fail=" ^ msg
  | Fail e -> "fail=" ^ Printexc.to_string e
  | Short_write n -> Printf.sprintf "shortwrite=%d" n
  | Econnreset -> "econnreset"
  | Eagain_burst n -> Printf.sprintf "eagain=%d" n
  | Partition s -> Printf.sprintf "partition=%g" (s *. 1000.)
  | Dup -> "dup"

let rule_to_string r =
  Printf.sprintf "%s:%s@%s" r.r_point
    (action_to_string r.r_action)
    (trigger_to_string r.r_trigger)

let plan_to_string p =
  Printf.sprintf "seed=%d;%s" p.p_seed
    (String.concat ";" (List.map rule_to_string p.p_rules))

let ( let* ) = Result.bind

let int_of name s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> Ok v
  | Some _ | None -> Error (Printf.sprintf "%s: bad integer %S" name s)

let float_of name s =
  match float_of_string_opt s with
  | Some v when v >= 0. -> Ok v
  | Some _ | None -> Error (Printf.sprintf "%s: bad number %S" name s)

let parse_trigger s =
  match String.split_on_char '=' s with
  | [ "always" ] -> Ok Always
  | [ "once" ] -> Ok Once
  | [ "nth"; n ] ->
      let* n = int_of "nth" n in
      if n >= 1 then Ok (Nth n) else Error "nth: must be >= 1"
  | [ "every"; n ] ->
      let* n = int_of "every" n in
      if n >= 1 then Ok (Every n) else Error "every: must be >= 1"
  | [ "p"; f ] ->
      let* f = float_of "p" f in
      if f <= 1. then Ok (Prob f) else Error "p: must be in [0,1]"
  | _ -> Error (Printf.sprintf "bad trigger %S" s)

let parse_action ~point s =
  (* One rule carries exactly one action.  A comma'd action spec is the
     common way to try for more, so diagnose it by name: the error must
     tell the user which point the overloaded rule was aimed at, and
     that the supported spelling is one rule per action (the same point
     may appear in any number of rules; see docs/RESILIENCE.md). *)
  if String.contains s ',' then
    Error
      (Printf.sprintf
         "point %s: multiple actions on one point in a single rule (%S); a \
          rule carries exactly one action — repeat the point instead, e.g. \
          %S"
         point s
         (String.concat ";"
            (List.map
               (fun a -> point ^ ":" ^ String.trim a)
               (String.split_on_char ',' s))))
  else
    match String.split_on_char '=' s with
    | [ "stall" ] -> Ok Stall_forever
    | [ "econnreset" ] -> Ok Econnreset
    | [ "dup" ] -> Ok Dup
    | [ "fail" ] -> Ok (Fail (Injected "fault"))
    | [ "fail"; msg ] -> Ok (Fail (Injected msg))
    | [ "pause"; ms ] ->
        let* ms = float_of "pause" ms in
        Ok (Pause (ms /. 1000.))
    | [ "partition"; ms ] ->
        let* ms = float_of "partition" ms in
        if ms > 0. then Ok (Partition (ms /. 1000.))
        else Error "partition: must be > 0"
    | [ "yield"; n ] ->
        let* n = int_of "yield" n in
        Ok (Yield_storm n)
    | [ "shortwrite"; n ] ->
        let* n = int_of "shortwrite" n in
        if n >= 1 then Ok (Short_write n) else Error "shortwrite: must be >= 1"
    | [ "eagain"; n ] ->
        let* n = int_of "eagain" n in
        if n >= 1 then Ok (Eagain_burst n) else Error "eagain: must be >= 1"
    | _ -> Error (Printf.sprintf "point %s: bad action %S" point s)

let parse_rule s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "rule %S: expected POINT:ACTION[@TRIGGER]" s)
  | Some i ->
      let point = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      if point = "" then Error (Printf.sprintf "rule %S: empty point" s)
      else
        let* action, trigger =
          match String.index_opt rest '@' with
          | None ->
              let* a = parse_action ~point rest in
              Ok (a, Always)
          | Some j ->
              let* a = parse_action ~point (String.sub rest 0 j) in
              let* t =
                parse_trigger
                  (String.sub rest (j + 1) (String.length rest - j - 1))
              in
              Ok (a, t)
        in
        Ok { r_point = point; r_trigger = trigger; r_action = action }

let plan_of_string spec =
  let parts =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let seed, rules_spec =
    match parts with
    | first :: rest when String.length first > 5 && String.sub first 0 5 = "seed="
      -> (
        match int_of_string_opt (String.sub first 5 (String.length first - 5)) with
        | Some s -> (s, rest)
        | None -> (1, parts))
    | _ -> (1, parts)
  in
  if rules_spec = [] then Error "empty plan"
  else
    let* rules =
      List.fold_left
        (fun acc s ->
          let* acc = acc in
          let* r = parse_rule s in
          Ok (r :: acc))
        (Ok []) rules_spec
    in
    Ok { p_name = "spec"; p_seed = seed; p_rules = List.rev rules }

(* ------------------------------------------------------------------ *)
(* Presets (the named schedules the soak and smoke targets run under)   *)

let presets =
  [
    (* The Theorem 6.1 schedule: the first domain to win a lock-free
       lock acquisition crash-stops inside its critical section; peers
       must finish via helping. *)
    ("crash-stop-locker", "lock.acquire:stall@once");
    (* The same schedule against blocking locks: the convoy the paper's
       oversubscription experiments measure (no helping, contenders
       wait until disarm). *)
    ("blocking-convoy", "lock.acquire:stall@once");
    (* One domain parks inside an epoch: the global epoch cannot pass
       it, [epoch_lag] climbs and deferred reclamation stalls until the
       pause ends. *)
    ("stalled-reclaimer", "epoch.enter:pause=250@once");
    (* Widen the TBD window: sleep between observing a TBD stamp and
       CASing it, forcing other threads through the set-stamp helping
       path (Theorem 6.2). *)
    ("tbd-window", "seed=11;stamp.set:pause=1@p=0.02");
    (* Preemption storms at the CAS sites. *)
    ("yield-storm", "seed=5;vptr.cas:yield=40@p=0.05;idem.cas:yield=40@p=0.05");
    (* Torn wire: resets and short writes on both ends; the client
       retry layer and the server's partial-write loops must mask all
       of it. *)
    ( "flaky-wire",
      "seed=23;client.write:econnreset@p=0.01;client.read:econnreset@p=0.01;\
       server.write:shortwrite=7@p=0.05;server.read:eagain=2@p=0.03" );
    (* Transaction chaos: a quarter of commit validations fail outright
       (forced OCC aborts — the retry storm), and a sprinkle of commits
       pause mid-install with the stripe latches held, stretching the
       window racing validators must either wait out or abort on.  The
       [Txn] contract under this plan: every commit completes or aborts
       cleanly (no latch leaked, no partial install) — [make txn-smoke]
       and test_txn assert it. *)
    ( "abort-storm",
      "seed=77;txn.validate:fail@p=0.25;txn.commit:pause=1@p=0.05" );
    (* Split brain: the replication feed partitions for a window
       mid-workload (sends fail, reconnects keep failing until the
       window closes), and reconnect catch-up redelivers a sprinkle of
       records.  The contract the soak's divergence-then-converge audit
       enforces: lag gauges rise during the window, the replica dedups
       redelivery by seq, and after heal the replica's watermark state
       conserves the bank exactly (docs/REPLICATION.md). *)
    ( "split-brain-window",
      "seed=42;repl.send:partition=600@once;repl.send:dup@p=0.05" );
  ]

let find_plan name =
  match List.assoc_opt name presets with
  | Some spec -> (
      match plan_of_string spec with
      | Ok p -> Ok { p with p_name = name }
      | Error e -> Error (Printf.sprintf "preset %s: %s" name e))
  | None -> plan_of_string name
