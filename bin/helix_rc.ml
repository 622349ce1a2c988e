(* helix-rc: command-line driver.

   Subcommands regenerate each table/figure of the paper's evaluation,
   inspect the compilation of a workload, or run single simulations. *)

open Cmdliner
open Helix_hcc
open Helix_core
open Helix_workloads
open Helix_experiments

let wl_conv =
  let parse s =
    match List.find_opt (fun w -> w.Workload.name = s) Registry.all with
    | Some w -> Ok w
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown workload %s (try: %s)" s
               (String.concat ", "
                  (List.map (fun w -> w.Workload.name) Registry.all))))
  in
  Arg.conv (parse, fun ppf w -> Fmt.string ppf w.Workload.name)

let quick =
  let doc = "Run on the integer benchmarks only (faster)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let pick_workloads quick = if quick then Registry.integer else Registry.all

let jobs_arg =
  let doc =
    "Evaluate independent figure points on up to $(docv) host cores \
     (OCaml domains).  Defaults to the HELIX_BENCH_JOBS environment \
     variable, or 1 (strictly sequential)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let set_jobs = function Some n -> Exp_common.Pool.set_jobs n | None -> ()

(* ---- experiment commands ---- *)

let experiment name runner =
  let doc = Printf.sprintf "Regenerate %s of the paper." name in
  Cmd.v
    (Cmd.info (String.lowercase_ascii name) ~doc)
    Term.(
      const (fun quick jobs ->
          set_jobs jobs;
          runner ~workloads:(pick_workloads quick) ();
          `Ok ())
      $ quick $ jobs_arg |> ret)

let fig1_cmd =
  experiment "Fig1" (fun ~workloads () ->
      Report.print (Fig1.report (Fig1.run ~workloads ())))

let fig2_cmd =
  experiment "Fig2" (fun ~workloads:_ () ->
      Report.print (Fig2.report (Fig2.run ())))

let fig3_cmd =
  experiment "Fig3" (fun ~workloads:_ () ->
      Report.print (Fig3.report (Fig3.run ())))

let fig4_cmd =
  experiment "Fig4" (fun ~workloads:_ () ->
      Report.print (Fig4.report (Fig4.run ())))

let table1_cmd =
  experiment "Table1" (fun ~workloads () ->
      Report.print (Table1.report (Table1.run ~workloads ())))

let fig7_cmd =
  experiment "Fig7" (fun ~workloads () ->
      Report.print (Fig7.report (Fig7.run ~workloads ())))

let fig8_cmd =
  experiment "Fig8" (fun ~workloads:_ () ->
      Report.print (Fig8.report (Fig8.run ())))

let fig9_cmd =
  experiment "Fig9" (fun ~workloads:_ () ->
      Report.print (Fig9.report (Fig9.run ())))

let fig10_cmd =
  experiment "Fig10" (fun ~workloads:_ () ->
      Report.print (Fig10.report (Fig10.run ())))

let fig11_cmd =
  let doc = "Regenerate Figure 11 (sensitivity sweeps) of the paper." in
  Cmd.v (Cmd.info "fig11" ~doc)
    Term.(
      const (fun () ->
          Report.print
            (Fig11.report ~title:"Figure 11a: core count"
               (Fig11.core_count ()));
          Report.print
            (Fig11.report ~title:"Figure 11b: link latency"
               (Fig11.link_latency ()));
          Report.print
            (Fig11.report ~title:"Figure 11c: signal bandwidth"
               (Fig11.signal_bandwidth ()));
          Report.print
            (Fig11.report ~title:"Figure 11d: node memory size"
               (Fig11.node_memory ()));
          `Ok ())
      $ const () |> ret)

let fig12_cmd =
  experiment "Fig12" (fun ~workloads () ->
      Report.print (Fig12.report (Fig12.run ~workloads ())))

let tlp_cmd =
  experiment "TLP" (fun ~workloads:_ () ->
      Report.print (Tlp_study.report (Tlp_study.run ())))

let ablations_cmd =
  let doc = "Run the design-decision ablations (beyond the paper's sweeps)." in
  Cmd.v (Cmd.info "ablations" ~doc)
    Term.(
      const (fun () ->
          Report.print (Ablations.report (Ablations.run ()));
          `Ok ())
      $ const () |> ret)

let all_cmd =
  let doc = "Regenerate every table and figure (the full evaluation)." in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const (fun quick jobs ->
          set_jobs jobs;
          let workloads = pick_workloads quick in
          Exp_common.precompile workloads;
          Report.print (Fig1.report (Fig1.run ~workloads ()));
          Report.print (Fig2.report (Fig2.run ()));
          Report.print (Fig3.report (Fig3.run ()));
          Report.print (Fig4.report (Fig4.run ()));
          Report.print (Table1.report (Table1.run ~workloads ()));
          Report.print (Fig7.report (Fig7.run ~workloads ()));
          Report.print (Fig8.report (Fig8.run ()));
          Report.print (Fig9.report (Fig9.run ()));
          Report.print (Fig10.report (Fig10.run ()));
          Report.print
            (Fig11.report ~title:"Figure 11a: core count" (Fig11.core_count ()));
          Report.print
            (Fig11.report ~title:"Figure 11b: link latency"
               (Fig11.link_latency ()));
          Report.print
            (Fig11.report ~title:"Figure 11c: signal bandwidth"
               (Fig11.signal_bandwidth ()));
          Report.print
            (Fig11.report ~title:"Figure 11d: node memory size"
               (Fig11.node_memory ()));
          Report.print (Fig12.report (Fig12.run ~workloads ()));
          Report.print (Tlp_study.report (Tlp_study.run ()));
          Report.print (Ablations.report (Ablations.run ()));
          `Ok ())
      $ quick $ jobs_arg |> ret)

(* ---- inspection commands ---- *)

let version_arg =
  let doc = "Compiler version: v1, v2 or v3." in
  let vconv =
    Arg.conv
      ( (function
        | "v1" -> Ok Exp_common.V1
        | "v2" -> Ok Exp_common.V2
        | "v3" -> Ok Exp_common.V3
        | s -> Error (`Msg ("unknown version " ^ s))),
        fun ppf v -> Fmt.string ppf (Exp_common.version_name v) )
  in
  Arg.(value & opt vconv Exp_common.V3 & info [ "version" ] ~doc)

let compile_cmd =
  let doc = "Compile a workload and show the selected parallel loops." in
  let wl = Arg.(required & pos 0 (some wl_conv) None & info [] ~docv:"WORKLOAD") in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(
      const (fun wl version ->
          let c = Exp_common.compiled wl version in
          Fmt.pr "%s with %s: coverage %.1f%%, %d/%d loops selected@."
            wl.Workload.name
            (Exp_common.version_name version)
            (100.0 *. c.Hcc.cp_coverage)
            (List.length c.Hcc.cp_selected)
            (List.length c.Hcc.cp_candidates);
          List.iter
            (fun (s : Select.candidate) ->
              let pl = s.Select.cd_loop in
              Fmt.pr
                "  loop %d in %s (header L%d): %d segments, est. speedup \
                 %.2fx@."
                pl.Parallel_loop.pl_id pl.Parallel_loop.pl_func
                pl.Parallel_loop.pl_header
                (List.length pl.Parallel_loop.pl_segments)
                s.Select.cd_estimate.Perf_model.e_speedup;
              Fmt.pr "%a@." Helix_ir.Pretty.pp_func
                (Helix_ir.Ir.find_func c.Hcc.cp_prog
                   pl.Parallel_loop.pl_body_fn))
            c.Hcc.cp_selected;
          `Ok ())
      $ wl $ version_arg |> ret)

(* ---- observability options (shared by run and stats) ---- *)

let trace_arg =
  let doc =
    "Record a structured event trace of the HELIX-RC run (stores, signals, \
     lockstep holds, back-pressure, waits, loop entry/flush) and write the \
     most recent events to $(docv) as JSON lines."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write every counter of the HELIX-RC run (ring, per-core cycle buckets, \
     memory hierarchy, executor) to $(docv) as a flat JSON object."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* Open an output path before the (possibly minutes-long) simulation so
   a typo'd directory fails fast with a clean error. *)
let open_sink = function
  | None -> Ok None
  | Some file -> (
      try Ok (Some (file, open_out file)) with Sys_error m -> Error m)

(* ---- robustness options (ISSUE 2) ---- *)

let check_arg =
  let doc =
    "Enable the robustness layer: shadow-execute each parallel invocation \
     sequentially and compare (differential oracle), sanitize worker memory \
     accesses for unguarded loop-carried dependences, and degrade gracefully \
     -- a violating or wedged invocation is rolled back to its entry \
     checkpoint and re-executed sequentially.  Exits nonzero if the final \
     result still differs from the sequential oracle."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let strict_arg =
  let doc =
    "With $(b,--check): make violations fatal (exit code 12) instead of \
     falling back to sequential re-execution."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let jitter_arg =
  let doc =
    "Shorthand for $(b,--faults) $(b,seed=)$(docv)$(b,,delay=2): delay-only \
     fault injection, which perturbs ring link, injection and signal \
     latencies by bounded extra delays derived from $(docv).  A delay \
     never loses, repeats or reorders a message, so architectural results \
     must be invariant under any seed with no recovery machinery engaged.  \
     Cannot be combined with $(b,--faults): put $(b,delay=) in its spec."
  in
  Arg.(value & opt (some int) None & info [ "jitter" ] ~docv:"SEED" ~doc)

let faults_arg =
  let doc =
    "Ring fault schedule, e.g. \
     $(b,seed=42,delay=2,drop=5,dup=3,reorder=2,corrupt=1,kill=3@50000): \
     comma-separated key=value pairs.  delay=D adds up to D cycles per hop \
     (2D on signal wires) and never loses a message.  drop/dup/reorder/corrupt \
     are per-mille per-link-send rates that share one roll, so they sum to \
     at most 1000 and drop+corrupt stays below 1000; any of them engages \
     the recovery protocol (sequence numbers, checksums, go-back-N \
     retransmission), which must deliver the correct result for any \
     message-loss schedule.  kill=NODE@CYCLE fail-stops a core; the run \
     recovers by reknitting the ring or falling back (pair with \
     $(b,--check)), and exits 13 when unrecoverable."
  in
  let fconv =
    Arg.conv
      ( (fun s ->
          match Helix_ring.Ring.fault_plan_of_string s with
          | Ok p -> Ok p
          | Error m -> Error (`Msg m)),
        fun ppf p ->
          Fmt.string ppf (Helix_ring.Ring.fault_plan_to_string p) )
  in
  Arg.(value & opt (some fconv) None & info [ "faults" ] ~docv:"SPEC" ~doc)

(* The run's fault plan: [--jitter S] is [--faults seed=S,delay=2]; the
   two together, or a kill of a core the machine lacks, are usage
   errors. *)
let fault_plan ~jitter ~faults =
  let n_cores = Helix_machine.Mach_config.(default.n_cores) in
  match (jitter, faults) with
  | Some _, Some _ ->
      Error
        "--jitter and --faults together: put delay= in the --faults spec \
         (--jitter S is --faults seed=S,delay=2)"
  | Some seed, None -> Ok (Some (Helix_ring.Ring.faulty ~delay:2 ~seed ()))
  | None, Some { Helix_ring.Link.fl_fail_stop = Some (node, _); _ }
    when node >= n_cores ->
      Error
        (Printf.sprintf
           "--faults kill=%d@...: the machine has %d cores (0..%d)" node
           n_cores (n_cores - 1))
  | None, plan -> Ok plan

let engine_conv =
  let module Engine = Helix_engine.Engine in
  let names = String.concat "|" (List.map Engine.kind_to_string Engine.all) in
  Arg.conv
    ( (fun s ->
        match Engine.kind_of_string s with
        | Some k -> Ok k
        | None -> Error (`Msg (Printf.sprintf "unknown engine %s (%s)" s names))),
      fun ppf k -> Fmt.string ppf (Engine.kind_to_string k) )

let engine_arg =
  let doc =
    "Simulation engine: $(b,legacy) ticks every cycle, $(b,event) \
     fast-forwards across provably idle cycle windows.  Results are \
     bit-identical; only wall-clock differs.  Defaults to the \
     HELIX_ENGINE environment variable, or $(b,event)."
  in
  Arg.(
    value & opt (some engine_conv) None & info [ "engine" ] ~docv:"ENGINE" ~doc)

(* HELIX-RC run honouring --trace/--check/--strict/--faults/--engine:
   any of them bypasses the memo cache (the cached result has no events
   attached and was produced under the fault-free, unchecked, default
   configuration). *)
let run_helix_obs wl ~trace ~check ~strict ?faults ~engine () =
  let robust =
    if strict then
      Some { Executor.checked with Executor.strict = true; fallback = false }
    else if check then Some Executor.checked
    else None
  in
  if trace = None && robust = None && faults = None && engine = None then
    Exp_common.run_helix wl Exp_common.V3
  else
    Exp_common.parallel ~cache:false ~tag:"helix-robust" wl Exp_common.V3
      (Exp_common.helix_cfg ?trace ?robust ?faults ?engine ())

let dump_obs (par : Executor.result) ~trace_sink ~metrics_sink trace =
  (match (trace_sink, trace) with
  | Some (file, oc), Some tr ->
      Helix_obs.Trace.write_jsonl tr oc;
      close_out oc;
      Fmt.pr "trace: %d events to %s (%d dropped by ring buffer)@."
        (Helix_obs.Trace.length tr)
        file
        (Helix_obs.Trace.dropped tr)
  | _ -> ());
  match metrics_sink with
  | None -> ()
  | Some (file, oc) ->
      output_string oc (Helix_obs.Json.to_string
                          (Helix_obs.Metrics.to_json par.Executor.r_metrics));
      output_char oc '\n';
      close_out oc;
      Fmt.pr "metrics: %d counters to %s@."
        (List.length (Helix_obs.Metrics.names par.Executor.r_metrics))
        file

let run_cmd =
  let doc = "Simulate one workload sequentially and with HELIX-RC." in
  let wl = Arg.(required & pos 0 (some wl_conv) None & info [] ~docv:"WORKLOAD") in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const (fun wl trace_file metrics_file check strict jitter faults engine ->
          match fault_plan ~jitter ~faults with
          | Error m -> `Error (true, m)
          | Ok plan ->
          match (open_sink trace_file, open_sink metrics_file) with
          | Error m, _ | _, Error m -> `Error (false, m)
          | Ok trace_sink, Ok metrics_sink ->
              let seq = Exp_common.sequential wl in
              let tr =
                if trace_sink <> None then Some (Helix_obs.Trace.create ())
                else None
              in
              let par =
                (* on Stuck, flush the trace collected so far: it is the
                   diagnostic artifact CI uploads *)
                try
                  run_helix_obs wl ~trace:tr ~check ~strict ?faults:plan
                    ~engine ()
                with Executor.Stuck _ as e ->
                  (match (trace_sink, tr) with
                  | Some (file, oc), Some t ->
                      Helix_obs.Trace.write_jsonl t oc;
                      close_out oc;
                      Fmt.epr "trace: %d events to %s@."
                        (Helix_obs.Trace.length t)
                        file
                  | _ -> ());
                  raise e
              in
              let ok = Exp_common.verified wl par in
              Fmt.pr "%s: sequential %d cycles; HELIX-RC %d cycles; speedup \
                      %.2fx; oracle %s@."
                wl.Workload.name seq.Executor.r_cycles par.Executor.r_cycles
                (Helix.speedup ~seq ~par)
                (if ok then "OK" else "FAIL");
              if check || strict || plan <> None then
                Fmt.pr
                  "robustness: %d violation(s), %d sequential fallback(s)@."
                  par.Executor.r_violations par.Executor.r_fallbacks;
              if faults <> None then begin
                let m k =
                  Option.value ~default:0
                    (Helix_obs.Metrics.find_int par.Executor.r_metrics k)
                in
                Fmt.pr
                  "recovery: %d fault(s) injected, %d retransmit(s), %d \
                   drop(s) detected, %d reknit(s)@."
                  (m "ring.faults_injected") (m "ring.retransmits")
                  (m "ring.drops_detected") (m "ring.reknits")
              end;
              dump_obs par ~trace_sink ~metrics_sink tr;
              if check && not ok then begin
                Fmt.epr "helix-rc: %s: result differs from the sequential \
                         oracle@."
                  wl.Workload.name;
                Stdlib.exit 1
              end;
              `Ok ())
      $ wl $ trace_arg $ metrics_arg $ check_arg $ strict_arg $ jitter_arg
      $ faults_arg $ engine_arg |> ret)

let overhead_cmd =
  let doc = "Show the Figure-12 overhead taxonomy for one workload." in
  let wl = Arg.(required & pos 0 (some wl_conv) None & info [] ~docv:"WORKLOAD") in
  Cmd.v (Cmd.info "overhead" ~doc)
    Term.(
      const (fun wl ->
          let seq = Exp_common.sequential wl in
          let par = Exp_common.run_helix wl Exp_common.V3 in
          let ov =
            Overhead.analyze ~n_cores:16
              ~seq_retired:seq.Executor.r_retired par
          in
          Fmt.pr "%s: speedup %.2fx@." wl.Workload.name
            (Helix.speedup ~seq ~par);
          List.iter
            (fun (n, v) -> Fmt.pr "  %-26s %5.1f%%@." n (100.0 *. v))
            (Overhead.categories ov);
          `Ok ())
      $ wl |> ret)

let stats_cmd =
  let doc = "Detailed simulation statistics for one workload under              HELIX-RC: per-core cycle buckets, ring histograms,              invocation summary." in
  let wl = Arg.(required & pos 0 (some wl_conv) None & info [] ~docv:"WORKLOAD") in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const (fun wl trace_file metrics_file engine ->
          match (open_sink trace_file, open_sink metrics_file) with
          | Error m, _ | _, Error m -> `Error (false, m)
          | Ok trace_sink, Ok metrics_sink ->
          let tr =
            if trace_sink <> None then Some (Helix_obs.Trace.create ())
            else None
          in
          let par =
            run_helix_obs wl ~trace:tr ~check:false ~strict:false ~engine ()
          in
          Fmt.pr "%s: %d cycles (%d serial, %d parallel), %d instructions@."
            wl.Workload.name par.Executor.r_cycles
            par.Executor.r_serial_cycles par.Executor.r_parallel_cycles
            par.Executor.r_retired;
          Array.iteri
            (fun c st ->
              Fmt.pr "  core %2d: %a@." c Helix_machine.Stats.pp st)
            par.Executor.r_core_stats;
          let per_loop = Hashtbl.create 7 in
          List.iter
            (fun (inv : Executor.invocation_record) ->
              let c, k =
                try Hashtbl.find per_loop inv.Executor.inv_loop
                with Not_found -> (0, 0)
              in
              Hashtbl.replace per_loop inv.Executor.inv_loop
                (c + inv.Executor.inv_cycles, k + 1))
            par.Executor.r_invocations;
          Hashtbl.iter
            (fun loop (cycles, invocs) ->
              Fmt.pr "  loop %d: %d cycles over %d invocations@." loop cycles
                invocs)
            per_loop;
          Fmt.pr "  ring hit rate: %.1f%%; max outstanding signals: %d@."
            (100.0 *. par.Executor.r_ring_hit_rate)
            par.Executor.r_max_outstanding_signals;
          dump_obs par ~trace_sink ~metrics_sink tr;
          `Ok ())
      $ wl $ trace_arg $ metrics_arg $ engine_arg |> ret)

let chaos_cmd =
  let doc =
    "Sweep seeded lossy-ring fault schedules over the workload registry \
     and every simulation engine, checking each run against the \
     differential oracle.  Every run must either recover in-protocol \
     (retransmission absorbs the faults) or fall back cleanly to \
     sequential re-execution; a wrong result or an unexpected wedge \
     fails the sweep (exit 1)."
  in
  let schedules_arg =
    let doc = "Number of seeded fault schedules (each runs on every engine)." in
    Arg.(value & opt int 200 & info [ "schedules" ] ~docv:"N" ~doc)
  in
  let seed_base_arg =
    let doc = "First schedule seed (schedules use seeds $(docv)..$(docv)+N-1)." in
    Arg.(value & opt int 0 & info [ "seed-base" ] ~docv:"BASE" ~doc)
  in
  let engine_filter_arg =
    let doc =
      "Restrict the sweep to one engine (legacy or event); default is \
       both."
    in
    Arg.(
      value & opt (some engine_conv) None
      & info [ "engine" ] ~docv:"ENGINE" ~doc)
  in
  let workload_filter_arg =
    let doc = "Restrict the sweep to one workload; default is the registry." in
    Arg.(value & opt (some wl_conv) None & info [ "workload" ] ~docv:"W" ~doc)
  in
  let verbose_arg =
    let doc = "Print every run, not just the summary and failures." in
    Arg.(value & flag & info [ "verbose" ] ~doc)
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const (fun schedules seed_base engine workload quick verbose jobs ->
          set_jobs jobs;
          let engines =
            match engine with
            | Some e -> [ e ]
            | None -> Helix_engine.Engine.all
          in
          let workloads =
            match workload with
            | Some w -> [ w ]
            | None -> if quick then Registry.integer else Registry.all
          in
          let runs =
            Chaos.sweep ~schedules ~engines ~workloads ~seed_base ()
          in
          if verbose then
            List.iter (fun r -> Fmt.pr "%a@." Chaos.pp_run r) runs;
          let s = Chaos.summarize runs in
          Fmt.pr "%a@." Chaos.pp_summary s;
          if s.Chaos.s_failures <> [] then Stdlib.exit 1;
          `Ok ())
      $ schedules_arg $ seed_base_arg $ engine_filter_arg
      $ workload_filter_arg $ quick $ verbose_arg $ jobs_arg |> ret)

let list_cmd =
  let doc = "List the available workload models." in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(
      const (fun () ->
          List.iter
            (fun w ->
              Fmt.pr "%-12s %s, %d phases, paper speedup %.1fx@."
                w.Workload.name
                (match w.Workload.kind with
                | Workload.Int -> "CINT"
                | Workload.Fp -> "CFP")
                w.Workload.phases w.Workload.paper.Workload.p_speedup)
            Registry.all;
          `Ok ())
      $ const () |> ret)

(* Exit codes (documented in README): 1 = --check oracle failure,
   10 = deadlock, 11 = fuel exhausted, 12 = violation under --strict,
   13 = unrecoverable fail-stop fault. *)
let stuck_exit_code = function
  | Executor.Deadlock -> 10
  | Executor.Fuel -> 11
  | Executor.Violation -> 12
  | Executor.Faulted -> 13

let () =
  let doc = "HELIX-RC (ISCA 2014) reproduction" in
  let info = Cmd.info "helix-rc" ~version:"1.0" ~doc in
  let group =
    Cmd.group info
      [
        fig1_cmd; fig2_cmd; fig3_cmd; fig4_cmd; table1_cmd; fig7_cmd;
        fig8_cmd; fig9_cmd; fig10_cmd; fig11_cmd; fig12_cmd; tlp_cmd;
        ablations_cmd; all_cmd; compile_cmd; run_cmd; overhead_cmd;
        stats_cmd; chaos_cmd; list_cmd;
      ]
  in
  (* ~catch:false so a Stuck simulation reaches this handler instead of
     dying with a raw backtrace: print the full report to stderr and exit
     with a reason-specific code *)
  try exit (Cmd.eval ~catch:false group)
  with Executor.Stuck (reason, report) ->
    prerr_string report;
    if report <> "" && report.[String.length report - 1] <> '\n' then
      prerr_newline ();
    Printf.eprintf "helix-rc: simulation stuck (%s)\n%!"
      (Executor.stuck_reason_name reason);
    exit (stuck_exit_code reason)
