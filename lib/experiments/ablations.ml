open Helix_core
open Helix_ring
open Helix_hcc
open Helix_workloads

(* Ablations of the design decisions DESIGN.md calls out, beyond the
   paper's own sensitivity study:

   - HCCv3's unnecessary-wait elimination (signal-only non-accessing
     paths, Figure 5c) switched off;
   - flush policy: write-back-keep-copies (ours/paper) vs
     invalidate-everything;
   - signal-wire injection: leftover-bandwidth (greedy) vs the strict
     forward-priority rule of the single-word data wires. *)

type row = { ab_name : string; ab_speedups : (string * float) list }

let default_workloads () =
  [ Registry.find "164.gzip"; Registry.find "175.vpr";
    Registry.find "197.parser" ]

let with_ring f =
  let base = Exp_common.helix_cfg () in
  { base with Executor.ring_cfg = f base.Executor.ring_cfg }

let measure wl cfg =
  Exp_common.speedup_of wl (Exp_common.parallel wl Exp_common.V3 cfg)

let run ?(workloads = default_workloads ()) () : row list =
  let speedups f =
    Exp_common.Pool.map (fun wl -> (wl.Workload.name, f wl)) workloads
  in
  [
    { ab_name = "HELIX-RC (default)";
      ab_speedups =
        speedups (fun wl -> measure wl (with_ring Fun.id)) };
    { ab_name = "no wait elimination";
      ab_speedups =
        speedups (fun wl ->
            (* compile a v3 variant that keeps waits on empty arms *)
            let s = wl.Workload.build () in
            let cfg =
              { (Hcc_config.v3 ()) with Hcc_config.eliminate_waits = false }
            in
            let compiled =
              Hcc.compile cfg s.Workload.prog s.Workload.layout
                ~train_mem:(s.Workload.init Workload.Train)
            in
            let seq = Exp_common.sequential wl in
            let par =
              Executor.run ~compiled (with_ring Fun.id) compiled.Hcc.cp_prog
                (s.Workload.init Workload.Ref)
            in
            Helix.speedup ~seq ~par) };
    { ab_name = "flush invalidates all copies";
      ab_speedups =
        speedups (fun wl ->
            measure wl
              (with_ring (fun rc -> { rc with Ring.flush_invalidates = true }))) };
    { ab_name = "strict signal injection";
      ab_speedups =
        speedups (fun wl ->
            measure wl
              (with_ring (fun rc ->
                   { rc with Ring.greedy_sig_inject = false }))) };
  ]

let report (rows : row list) : Report.t =
  let names =
    match rows with
    | r :: _ -> List.map fst r.ab_speedups
    | [] -> []
  in
  Report.make ~title:"Ablations: design decisions beyond the paper's sweeps"
    ~header:("configuration" :: names)
    (List.map
       (fun r -> r.ab_name :: List.map (fun (_, v) -> Report.xf v) r.ab_speedups)
       rows)
    ~notes:
      [
        "wait elimination mainly helps loops with conditional segments \
         (Fig. 5); keep-warm flushing mainly helps frequently re-invoked \
         small loops";
      ]
