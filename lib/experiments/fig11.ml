open Helix_machine
open Helix_ring
open Helix_core
open Helix_workloads

(* Figure 11: sensitivity to core count and ring-cache parameters,
   sweeping one knob at a time from the default configuration
   (16 cores, 1-cycle links, 1-word data / 5-signal bandwidth, 1KB
   8-way node arrays). *)

type series = { sw_label : string; sw_speedups : (string * float) list }
(* one series per parameter value: (benchmark, speedup) list *)

let run_sweep ?(workloads = Registry.integer) ~label
    (points : (string * (unit -> Executor.config)) list) : series list =
  List.map
    (fun (pname, mk_cfg) ->
      {
        sw_label = Printf.sprintf "%s=%s" label pname;
        sw_speedups =
          Exp_common.Pool.map
            (fun wl ->
              let cfg = mk_cfg () in
              let r = Exp_common.parallel wl Exp_common.V3 cfg in
              (wl.Workload.name, Exp_common.speedup_of wl r))
            workloads;
      })
    points

let with_ring_cfg f () =
  let cfg = Exp_common.helix_cfg () in
  { cfg with Executor.ring_cfg = f cfg.Executor.ring_cfg }

(* (a) core count *)
let core_count ?workloads () =
  run_sweep ?workloads ~label:"cores"
    (List.map
       (fun n ->
         ( string_of_int n,
           fun () ->
             Exp_common.helix_cfg ~mach:(Mach_config.with_cores Mach_config.default n) () ))
       [ 2; 4; 8; 16 ])

(* (b) adjacent-node link latency *)
let link_latency ?workloads () =
  run_sweep ?workloads ~label:"link"
    (List.map
       (fun l ->
         (string_of_int l, with_ring_cfg (fun rc -> { rc with Ring.link_latency = l })))
       [ 1; 4; 8; 16; 32 ])

(* (c) signal bandwidth.

   Note a genuine finding of this reproduction: with threshold-counted
   signals, the steady-state signal rate per link is bounded by
   (segments per iteration) / (iteration interval), which stays well
   under one signal per cycle for every calibrated workload -- so even
   1-wide signal wires never saturate and the sweep is flat, unlike the
   paper's Figure 11c.  The paper's degradation implies burstier signal
   traffic than the counting protocol generates. *)
let signal_bandwidth ?workloads () =
  run_sweep ?workloads ~label:"sigbw"
    (List.map
       (fun (name, bw) ->
         (name, with_ring_cfg (fun rc -> { rc with Ring.signal_bandwidth = bw })))
       [ ("1", 1); ("2", 2); ("4", 4); ("unbounded", max_int) ])

(* (d) per-node memory size (words; 8-byte words) *)
let node_memory ?workloads () =
  run_sweep ?workloads ~label:"nodemem"
    (List.map
       (fun (name, words) ->
         (name, with_ring_cfg (fun rc -> { rc with Ring.array_size_words = words })))
       [ ("256B", 32); ("1KB", 128); ("32KB", 4096); ("unbounded", max_int) ])

let report ~title (ss : series list) : Report.t =
  let names =
    match ss with
    | s :: _ -> List.map fst s.sw_speedups
    | [] -> []
  in
  Report.make ~title
    ~header:("config" :: names @ [ "geomean" ])
    (List.map
       (fun s ->
         s.sw_label
         :: List.map (fun (_, v) -> Report.xf v) s.sw_speedups
         @ [ Report.xf (Exp_common.geomean (List.map snd s.sw_speedups)) ])
       ss)
