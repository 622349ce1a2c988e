(* Chaos harness: registry workloads under seeded lossy-ring fault
   schedules, across both simulation engines, every run checked
   against the differential oracle.

   A schedule is derived purely from its integer seed: the four
   message-class rates (drop / duplicate / reorder / corrupt, a few per
   mille each) plus, with probability ~1/4, a fail-stop of a non-zero
   core at a cycle inside the workload's fault-free horizon.  Schedules
   are spread round-robin over the workload registry and each schedule
   runs on every requested engine, so a sweep of N schedules covers the
   whole registry and engine matrix with N * |engines| runs.

   A run passes when it either recovers in-protocol (correct result,
   zero fallbacks -- the retransmission layer absorbed every fault) or
   degrades cleanly to the sequential fallback and still produces the
   correct result.  An oracle mismatch or an unexpected [Stuck] is a
   failure: the machine must never return a wrong answer or wedge. *)

open Helix_core
open Helix_machine
open Helix_workloads
module Ring = Helix_ring.Ring
module Engine = Helix_engine.Engine
module Metrics = Helix_obs.Metrics

(* Same splitmix-style mixer family as the ring's fault roll, but over
   (schedule_seed, salt) -- schedule derivation and in-run fault rolls
   draw from unrelated streams. *)
let hash (seed : int) (salt : int) : int =
  let x = seed lxor (salt * 0x9e3779b97f4a7c1) in
  let x = (x lxor (x lsr 30)) * 0xbf58476d1ce4e5b in
  let x = (x lxor (x lsr 27)) * 0x94d049bb133111e in
  (x lxor (x lsr 31)) land max_int

type outcome =
  | Recovered           (* correct result, no fallback: in-protocol *)
  | Fell_back           (* correct result after sequential fallback *)
  | Mismatch of string  (* wrong architectural result: a real failure *)
  | Died of string      (* unexpected [Stuck] / exception: a failure *)

let outcome_name = function
  | Recovered -> "recovered"
  | Fell_back -> "fell-back"
  | Mismatch _ -> "MISMATCH"
  | Died _ -> "DIED"

type run_result = {
  cr_workload : string;
  cr_engine : Engine.kind;
  cr_seed : int;
  cr_plan : Ring.fault_plan;
  cr_outcome : outcome;
  cr_cycles : int;
  cr_faults_injected : int;
  cr_retransmits : int;
  cr_drops_detected : int;
  cr_reknits : int;
  cr_fallbacks : int;
}

let passed r =
  match r.cr_outcome with
  | Recovered | Fell_back -> true
  | Mismatch _ | Died _ -> false

(* Watchdog for chaos runs: low enough that a protocol wedge surfaces
   quickly, far above the worst-case retransmission backoff
   (rtx_base * 2^6 is a few thousand cycles at default geometry). *)
let default_watchdog = 200_000

let plan_of_seed ~(n_cores : int) ~(horizon : int) (seed : int) :
    Ring.fault_plan =
  let h salt = hash seed salt in
  let drop = h 1 mod 9
  and dup = h 2 mod 9
  and reorder = h 3 mod 9
  and corrupt = h 4 mod 9 in
  let fail_stop =
    if n_cores > 1 && h 5 mod 4 = 0 then
      (* Never core 0: its death is unrecoverable by design (the serial
         core owns the program); chaos probes the recoverable space. *)
      Some (1 + (h 6 mod (n_cores - 1)), h 7 mod max 1 horizon)
    else None
  in
  Ring.faulty ~drop ~dup ~reorder ~corrupt ?fail_stop ~seed ()

let run_one ?(watchdog = default_watchdog) (wl : Workload.t)
    (engine : Engine.kind) (seed : int) (plan : Ring.fault_plan) : run_result
    =
  let cfg =
    Exp_common.helix_cfg ~robust:Executor.checked ~faults:plan ~engine ()
  in
  let cfg = { cfg with Executor.watchdog_cycles = watchdog } in
  let base outcome cycles m fallbacks =
    let find k = Option.value ~default:0 (Metrics.find_int m k) in
    {
      cr_workload = wl.Workload.name;
      cr_engine = engine;
      cr_seed = seed;
      cr_plan = plan;
      cr_outcome = outcome;
      cr_cycles = cycles;
      cr_faults_injected = find "ring.faults_injected";
      cr_retransmits = find "ring.retransmits";
      cr_drops_detected = find "ring.drops_detected";
      cr_reknits = find "ring.reknits";
      cr_fallbacks = fallbacks;
    }
  in
  match Exp_common.parallel wl Exp_common.V3 cfg with
  | r ->
      let outcome =
        if not (Exp_common.verified wl r) then
          Mismatch "final state differs from the sequential oracle"
        else if r.Executor.r_fallbacks > 0 then Fell_back
        else Recovered
      in
      base outcome r.Executor.r_cycles r.Executor.r_metrics
        r.Executor.r_fallbacks
  | exception Executor.Stuck (reason, _) ->
      base
        (Died (Printf.sprintf "stuck: %s" (Executor.stuck_reason_name reason)))
        0 (Metrics.create ()) 0
  | exception exn ->
      base (Died (Printexc.to_string exn)) 0 (Metrics.create ()) 0

type summary = {
  s_total : int;
  s_recovered : int;
  s_fell_back : int;
  s_faults_injected : int;
  s_retransmits : int;
  s_reknits : int;
  s_failures : run_result list;  (* mismatches and unexpected deaths *)
}

let summarize (runs : run_result list) : summary =
  List.fold_left
    (fun s r ->
      {
        s_total = s.s_total + 1;
        s_recovered =
          (s.s_recovered + if r.cr_outcome = Recovered then 1 else 0);
        s_fell_back =
          (s.s_fell_back + if r.cr_outcome = Fell_back then 1 else 0);
        s_faults_injected = s.s_faults_injected + r.cr_faults_injected;
        s_retransmits = s.s_retransmits + r.cr_retransmits;
        s_reknits = s.s_reknits + r.cr_reknits;
        s_failures = (if passed r then s.s_failures else r :: s.s_failures);
      })
    {
      s_total = 0;
      s_recovered = 0;
      s_fell_back = 0;
      s_faults_injected = 0;
      s_retransmits = 0;
      s_reknits = 0;
      s_failures = [];
    }
    runs

(* Run the sweep.  [schedules] seeds (offset by [seed_base]) are spread
   round-robin over [workloads]; each (seed, workload) pair runs once
   per engine.  Returns every run in deterministic (seed, engine)
   order regardless of pool parallelism. *)
let sweep ?(schedules = 200) ?(engines = Engine.all)
    ?(workloads = Registry.all) ?(seed_base = 0)
    ?(watchdog = default_watchdog) () : run_result list =
  if workloads = [] then invalid_arg "Chaos.sweep: empty workload list";
  if engines = [] then invalid_arg "Chaos.sweep: empty engine list";
  (* Warm compile + sequential-baseline caches before domains fan out. *)
  Exp_common.precompile ~versions:[ Exp_common.V3 ] workloads;
  let n_cores = Mach_config.default.Mach_config.n_cores in
  let horizon wl = (Exp_common.run_helix wl Exp_common.V3).Executor.r_cycles in
  let wls = Array.of_list workloads in
  let jobs =
    List.concat_map
      (fun i ->
        let seed = seed_base + i in
        let wl = wls.(i mod Array.length wls) in
        let plan = plan_of_seed ~n_cores ~horizon:(horizon wl) seed in
        List.map (fun e -> (wl, e, seed, plan)) engines)
      (List.init schedules Fun.id)
  in
  Exp_common.Pool.map
    (fun (wl, e, seed, plan) -> run_one ~watchdog wl e seed plan)
    jobs

let pp_run ppf (r : run_result) =
  Format.fprintf ppf
    "seed %4d  %-8s %-6s  %-9s  cycles=%d faults=%d rtx=%d reknits=%d \
     fallbacks=%d  [%s]%s"
    r.cr_seed r.cr_workload
    (Engine.kind_to_string r.cr_engine)
    (outcome_name r.cr_outcome) r.cr_cycles r.cr_faults_injected
    r.cr_retransmits r.cr_reknits r.cr_fallbacks
    (Ring.fault_plan_to_string r.cr_plan)
    (match r.cr_outcome with
    | Mismatch why | Died why -> Printf.sprintf "  -- %s" why
    | Recovered | Fell_back -> "")

let pp_summary ppf (s : summary) =
  Format.fprintf ppf
    "chaos: %d runs -- %d recovered in-protocol, %d fell back cleanly, %d \
     FAILED@\n\
     faults injected: %d   retransmits: %d   reknits: %d"
    s.s_total s.s_recovered s.s_fell_back
    (List.length s.s_failures)
    s.s_faults_injected s.s_retransmits s.s_reknits;
  List.iter
    (fun r -> Format.fprintf ppf "@\n  FAIL %a" pp_run r)
    (List.rev s.s_failures)
