open Helix_machine

(* Overhead taxonomy (Figure 12, following Burger et al.'s methodology):
   every cycle across all cores of the parallel run that does not
   contribute to ideal speedup is attributed to one category. *)

type t = {
  ov_additional_instrs : float;
  ov_wait_signal : float;
  ov_memory : float;
  ov_iteration_imbalance : float;
  ov_low_trip_count : float;
  ov_communication : float;
  ov_dependence_waiting : float;
}

let categories t =
  [
    ("Additional Instructions", t.ov_additional_instrs);
    ("Wait/Signal Instructions", t.ov_wait_signal);
    ("Memory", t.ov_memory);
    ("Iteration Imbalance", t.ov_iteration_imbalance);
    ("Low Trip Count", t.ov_low_trip_count);
    ("Communication", t.ov_communication);
    ("Dependence Waiting", t.ov_dependence_waiting);
  ]

(* [analyze ~n_cores ~seq_retired par] produces the taxonomy of the
   parallel run [par], normalized so the categories sum to the fraction
   of total core-cycles lost versus ideal (retired-work) cycles. *)
let analyze ~(n_cores : int) ~(seq_retired : int) (par : Executor.result) : t =
  let sum f =
    Array.fold_left (fun acc s -> acc + f s) 0 par.Executor.r_core_stats
  in
  let total = float_of_int (max 1 (sum (fun s -> s.Stats.cycles))) in
  let busy = sum (fun s -> Stats.get s Stats.Busy) in
  let sync = sum (fun s -> Stats.get s Stats.Sync_instr) in
  let dep = sum (fun s -> Stats.get s Stats.Dep_wait) in
  let comm = sum (fun s -> Stats.get s Stats.Communication) in
  let mem = sum (fun s -> Stats.get s Stats.Mem_stall) in
  let pipe = sum (fun s -> Stats.get s Stats.Pipeline) in
  let idle = sum (fun s -> Stats.get s Stats.Idle) in
  (* idling of the other cores while core 0 runs serial code is neither
     low trip count nor imbalance of a parallel loop; with >98% coverage
     it is small, and we fold it into imbalance *)
  let serial_idle =
    min idle (par.Executor.r_serial_cycles * max 0 (n_cores - 1))
  in
  let par_idle = idle - serial_idle in
  let retired = max 1 par.Executor.r_retired in
  let retired_sync =
    Array.fold_left
      (fun acc s -> acc + s.Stats.retired_sync)
      0 par.Executor.r_core_stats
  in
  (* cycles spent executing instructions the sequential code does not
     execute (recomputation, demotion loads/stores, wait/signal); the
     wait/signal share is split out by its retired-instruction fraction *)
  let extra_frac =
    Float.max 0.0
      (float_of_int (retired - seq_retired) /. float_of_int retired)
  in
  let sync_frac =
    Float.min extra_frac (float_of_int retired_sync /. float_of_int retired)
  in
  let exec_cycles = float_of_int (busy + pipe) in
  let additional = (extra_frac -. sync_frac) *. exec_cycles in
  let wait_signal_cycles =
    (sync_frac *. exec_cycles) +. float_of_int sync
  in
  (* split idle cycles between low-trip-count and imbalance using the
     per-invocation records; serial-phase idling on the other cores joins
     the imbalance bucket *)
  let low_trip_weight, par_idle_weight =
    List.fold_left
      (fun (lt, tot) inv ->
        let trip = max 0 inv.Executor.inv_trip in
        let laps = max 1 ((trip + n_cores - 1) / n_cores) in
        let slots = laps * n_cores in
        let lack = slots - trip in
        ( lt + inv.Executor.inv_cycles * lack / max 1 slots,
          tot + inv.Executor.inv_cycles ))
      (0, 0) par.Executor.r_invocations
  in
  let low_trip_frac =
    if par_idle_weight = 0 then 0.0
    else
      Float.min 1.0
        (float_of_int low_trip_weight /. float_of_int par_idle_weight)
  in
  let low_trip = float_of_int par_idle *. low_trip_frac in
  let imbalance = float_of_int idle -. low_trip in
  let norm x = x /. total in
  {
    ov_additional_instrs = norm additional;
    ov_wait_signal = norm wait_signal_cycles;
    ov_memory = norm (float_of_int mem);
    ov_iteration_imbalance = norm imbalance;
    ov_low_trip_count = norm low_trip;
    ov_communication = norm (float_of_int comm);
    ov_dependence_waiting = norm (float_of_int dep);
  }
