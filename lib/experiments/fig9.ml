open Helix_machine
open Helix_workloads

(* Figure 9: code generated by HCCv3 (which assumes a decoupling
   architecture) slows down on conventional hardware.  For each CINT
   benchmark, execute the HCCv3-selected loops on (C) the conventional
   machine and (R) the ring-cache machine, reporting execution time as a
   percentage of sequential execution, split into communication (stalls
   on waits and shared transfers) and computation. *)

type bar = {
  total_pct : float;          (* execution time / sequential time *)
  comm_pct : float;           (* communication share of that time *)
}

type row = { name : string; conventional : bar; ring : bar }

let bar_of wl (r : Helix_core.Executor.result) : bar =
  let seq = Exp_common.sequential wl in
  let sum f =
    Array.fold_left (fun a s -> a + f s) 0 r.Helix_core.Executor.r_core_stats
  in
  let comm =
    sum (fun s -> Stats.get s Stats.Communication)
    + sum (fun s -> Stats.get s Stats.Dep_wait)
    + sum (fun s -> Stats.get s Stats.Sync_instr)
  in
  let total_core_cycles = sum (fun s -> s.Stats.cycles) in
  {
    total_pct =
      float_of_int r.Helix_core.Executor.r_cycles
      /. float_of_int (max 1 seq.Helix_core.Executor.r_cycles);
    comm_pct =
      float_of_int comm /. float_of_int (max 1 total_core_cycles);
  }

let run ?(workloads = Registry.integer) () : row list =
  Exp_common.Pool.map
    (fun wl ->
      let conv =
        Exp_common.parallel wl Exp_common.V3 (Exp_common.conventional_cfg ())
      in
      let ring = Exp_common.run_helix wl Exp_common.V3 in
      {
        name = wl.Workload.name;
        conventional = bar_of wl conv;
        ring = bar_of wl ring;
      })
    workloads

let report (rows : row list) : Report.t =
  Report.make
    ~title:
      "Figure 9: HCCv3 code on conventional (C) vs ring-cache (R) hardware \
       (% of sequential execution time)"
    ~header:[ "benchmark"; "C time"; "C comm share"; "R time"; "R comm share" ]
    (List.map
       (fun r ->
         [
           r.name;
           Report.pct r.conventional.total_pct;
           Report.pct r.conventional.comm_pct;
           Report.pct r.ring.total_pct;
           Report.pct r.ring.comm_pct;
         ])
       rows)
    ~notes:
      [
        "paper: conventional bars sit at or above 100% (no speedup, \
         sometimes 5x slowdowns); ring bars are well below 100%";
      ]
