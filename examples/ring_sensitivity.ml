(* Exploring ring-cache design points on one benchmark.

     dune exec examples/ring_sensitivity.exe

   Sweeps the knobs of Section 6.3 on the 164.gzip model -- link latency,
   signal bandwidth, node memory -- plus one knob the paper fixes by
   design: the one-word node-array line.  The ablation demonstrates WHY
   the paper fixes it: with multi-word lines a node-array fill would need
   data for the whole line, and without extra fill machinery neighbouring
   words alias stale values -- the end-to-end oracle catches the
   violation ("it ensures there will be no false data sharing",
   Section 5.1). *)

open Helix_ring
open Helix_core
open Helix_workloads
open Helix_experiments

let wl = Registry.find "164.gzip"

let run_with cfg_f =
  let base = Exp_common.helix_cfg () in
  let cfg = { base with Executor.ring_cfg = cfg_f base.Executor.ring_cfg } in
  let r = Exp_common.parallel wl Exp_common.V3 cfg in
  (Exp_common.speedup_of wl r, Exp_common.verified wl r)

let show label (speedup, ok) =
  Fmt.pr "  %-28s %5.2fx %s@." label speedup (if ok then "" else "ORACLE FAIL")

let () =
  Fmt.pr "ring-cache sensitivity on %s@." wl.Workload.name;
  Fmt.pr "link latency:@.";
  List.iter
    (fun l ->
      show (Fmt.str "%d cycle(s)/hop" l)
        (run_with (fun rc -> { rc with Ring.link_latency = l })))
    [ 1; 4; 16 ];
  Fmt.pr "signal bandwidth:@.";
  List.iter
    (fun (name, bw) ->
      show name (run_with (fun rc -> { rc with Ring.signal_bandwidth = bw })))
    [ ("1 signal/cycle", 1); ("5 signals/cycle", 5); ("unbounded", max_int) ];
  Fmt.pr "node memory:@.";
  List.iter
    (fun (name, words) ->
      show name
        (run_with (fun rc -> { rc with Ring.array_size_words = words })))
    [ ("256B", 32); ("1KB", 128); ("unbounded", max_int) ];
  Fmt.pr "node-array line size (the paper's one-word choice is a@.";
  Fmt.pr "correctness requirement, not a tuning knob -- expect the@.";
  Fmt.pr "oracle to fail for multi-word lines):@.";
  List.iter
    (fun w ->
      show
        (Fmt.str "%d word(s)/line" w)
        (run_with (fun rc -> { rc with Ring.array_line_words = w })))
    [ 1; 4; 8 ]
