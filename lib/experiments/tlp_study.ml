open Helix_hcc
open Helix_workloads

(* Section 6.2 TLP study: on an abstract machine with no communication
   cost executing one instruction per cycle, aggressive splitting raises
   the number of concurrently executable instructions from 6.4 to 14.2
   while the average sequential-segment size drops from 8.5 to 3.2
   instructions.

   We compute both metrics from compile-time segment structure over the
   HELIX-RC-selected loops: with per-iteration body size B and largest
   segment footprint S, at most min(N, B/S) iterations can overlap on the
   abstract machine. *)

type point = {
  splitting : string;
  mean_segment_size : float;
  tlp : float;
}

(* Evaluate the SAME loops (those HELIX-RC selects) under a version's
   splitting policy, via that version's compilation of each loop: per
   loop, in order, its mean segment footprint (none without segments)
   and its TLP bound. *)
let loop_points version wl =
  let chosen =
    List.map
      (fun (pl : Parallel_loop.t) ->
        (pl.Parallel_loop.pl_func, pl.Parallel_loop.pl_header))
      (Hcc.selected_loops (Exp_common.compiled wl Exp_common.V3))
  in
  List.filter_map
    (fun (cand : Select.candidate) ->
      let pl = cand.Select.cd_loop in
      let key = (pl.Parallel_loop.pl_func, pl.Parallel_loop.pl_header) in
      if not (List.mem key chosen) then None
      else
        match pl.Parallel_loop.pl_segments with
        | [] -> Some (None, 16.0) (* no segments: fully parallel *)
        | segs ->
            let footprints =
              List.map
                (fun si -> float_of_int si.Parallel_loop.si_footprint)
                segs
            in
            let mean_fp =
              List.fold_left ( +. ) 0.0 footprints
              /. float_of_int (List.length footprints)
            in
            let max_fp = List.fold_left Float.max 1.0 footprints in
            let b =
              float_of_int (max 1 pl.Parallel_loop.pl_body_static_instrs)
            in
            Some (Some mean_fp, Float.min 16.0 (b /. max_fp)))
    (Exp_common.compiled wl version).Hcc.cp_candidates

let analyze version ?(workloads = Registry.integer) () =
  (* newest loop first, the order the means have always summed in *)
  let points =
    List.rev
      (List.concat (Exp_common.Pool.map (loop_points version) workloads))
  in
  let seg_sizes = List.filter_map fst points and tlps = List.map snd points in
  let mean l =
    match l with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  (mean seg_sizes, mean tlps)

let run ?workloads () : point list =
  let conservative_segs, conservative_tlp =
    analyze Exp_common.V2 ?workloads ()
  in
  let aggressive_segs, aggressive_tlp = analyze Exp_common.V3 ?workloads () in
  [
    { splitting = "conservative (HCCv2, merged segments)";
      mean_segment_size = conservative_segs; tlp = conservative_tlp };
    { splitting = "aggressive (HCCv3, one per shared class)";
      mean_segment_size = aggressive_segs; tlp = aggressive_tlp };
  ]

let report (points : point list) : Report.t =
  Report.make ~title:"Section 6.2: TLP vs segment splitting (abstract machine)"
    ~header:[ "splitting"; "mean segment size"; "TLP" ]
    (List.map
       (fun p ->
         [ p.splitting; Report.f1 p.mean_segment_size; Report.f1 p.tlp ])
       points)
    ~notes:
      [ "paper: segments shrink 8.5 -> 3.2 instructions; TLP rises 6.4 -> 14.2" ]
