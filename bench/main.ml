(* The full benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Sections 2 and 6) through the experiments library and prints the rows
   the paper reports.  Absolute numbers come from our simulator, so the
   claim under test is the *shape*: who wins, by roughly what factor, and
   where the crossovers fall.

   Part 2 runs Bechamel micro-benchmarks of the substrate itself
   (interpreter, compiler, ring network, caches, core models) so
   performance regressions in the simulator are visible.

   Between the two parts an engine A/B run times the legacy and event
   simulation engines over the CINT set and writes BENCH_engine.json
   (simulated cycles per host second for each).

   Set HELIX_BENCH_QUICK=1 to restrict part 1 to the CINT models (0, the
   default, runs every model).
   Set HELIX_BENCH_METRICS_DIR=<dir> to also dump each figure's table as
   <dir>/<figure>.json for machine consumption (CI trend tracking).
   Set HELIX_BENCH_SECTIONS to a comma list of figures,engine,micro to
   run a subset (default: all three).  A malformed value of either
   variable exits with status 2. *)

open Helix_ir
open Helix_hcc
open Helix_core
open Helix_machine
open Helix_workloads
open Helix_experiments

let quick =
  Helix_obs.Env.get "HELIX_BENCH_QUICK" ~accepted:"0 or 1" ~default:false
    (function "0" -> Some false | "1" -> Some true | _ -> None)

let workloads = if quick then Registry.integer else Registry.all

let metrics_dir = Sys.getenv_opt "HELIX_BENCH_METRICS_DIR"

let all_sections = [ "figures"; "engine"; "micro" ]

let sections =
  Helix_obs.Env.get "HELIX_BENCH_SECTIONS"
    ~accepted:"a comma list of figures, engine and micro" ~default:all_sections
    (fun s ->
      let l = List.map String.trim (String.split_on_char ',' s) in
      if List.for_all (fun x -> List.mem x all_sections) l then Some l
      else None)

let wants s = List.mem s sections

(* Print a figure's table and, when HELIX_BENCH_METRICS_DIR is set, dump
   it as <dir>/<name>.json too. *)
let emit name report =
  Report.print report;
  match metrics_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".json") in
      let oc = open_out path in
      output_string oc (Helix_obs.Json.to_string (Report.to_json report));
      output_char oc '\n';
      close_out oc

(* ---- part 1: the paper's tables and figures -------------------------- *)

let part1 () =
  Fmt.pr "==================================================================@.";
  Fmt.pr "HELIX-RC evaluation reproduction (%s workload set)@."
    (if quick then "CINT" else "full");
  Fmt.pr "==================================================================@.";
  (* warm the compile/baseline memo tables across the pool so the
     figures below start from cache hits instead of serial compiles *)
  Exp_common.precompile workloads;
  emit "fig1" (Fig1.report (Fig1.run ~workloads ()));
  emit "fig2" (Fig2.report (Fig2.run ()));
  emit "fig3" (Fig3.report (Fig3.run ()));
  emit "fig4" (Fig4.report (Fig4.run ()));
  emit "table1" (Table1.report (Table1.run ~workloads ()));
  emit "fig7" (Fig7.report (Fig7.run ~workloads ()));
  emit "fig8" (Fig8.report (Fig8.run ()));
  emit "fig9" (Fig9.report (Fig9.run ()));
  emit "fig10" (Fig10.report (Fig10.run ()));
  emit "fig11a"
    (Fig11.report ~title:"Figure 11a: core count" (Fig11.core_count ()));
  emit "fig11b"
    (Fig11.report ~title:"Figure 11b: link latency" (Fig11.link_latency ()));
  emit "fig11c"
    (Fig11.report ~title:"Figure 11c: signal bandwidth"
       (Fig11.signal_bandwidth ()));
  emit "fig11d"
    (Fig11.report ~title:"Figure 11d: node memory size" (Fig11.node_memory ()));
  emit "fig12" (Fig12.report (Fig12.run ~workloads ()));
  emit "tlp" (Tlp_study.report (Tlp_study.run ()));
  emit "ablations" (Ablations.report (Ablations.run ()))

(* ---- engine A/B: simulated cycles per second ------------------------- *)

(* Wall-clock both engines over the CINT set in the two configurations
   every figure pairs (HELIX ring-decoupled and conventional coupled)
   and record simulated cycles per host second.  Results are
   bit-identical by construction (test/test_engine.ml proves it), so the
   event/legacy ratio is the figure of merit; the per-workload elided
   cycle ratios show where it comes from.  The table lands in
   BENCH_engine.json so the perf trajectory has data. *)

let engine_ab () =
  Fmt.pr "@.== engine A/B: simulated cycles/sec (CINT set) ==@.";
  let wls = Registry.integer in
  (* compile once, outside the timed region: only simulation is measured *)
  let prepared =
    List.map
      (fun (wl : Workload.t) ->
        let s = wl.Workload.build () in
        let c =
          Hcc.compile
            (Hcc_config.v3 ())
            s.Workload.prog s.Workload.layout
            ~train_mem:(s.Workload.init Workload.Train)
        in
        (wl, c, fun () -> s.Workload.init Workload.Ref))
      wls
  in
  let cfg_of ~helix engine =
    if helix then Exp_common.helix_cfg ~engine ()
    else Exp_common.conventional_cfg ~engine ()
  in
  let time_one cfg (c, fresh_mem) =
    let mem = fresh_mem () in
    let t0 = Unix.gettimeofday () in
    let r = Executor.run ~compiled:c cfg c.Hcc.cp_prog mem in
    (r, Unix.gettimeofday () -. t0)
  in
  let skip_ratio (r : Executor.result) =
    match
      Helix_obs.Metrics.find_float r.Executor.r_metrics "engine.skip_ratio"
    with
    | Some f -> f
    | None -> 0.0
  in
  (* Alternate the engines per (workload, config) point and keep each
     side's best of three: host-load drift and GC phase otherwise swamp
     the signal.  Cycle totals are engine-independent (bit-identical
     results), so accumulating them from one side is enough. *)
  let total_cycles = ref 0 in
  let l_dt = ref 0.0 and e_dt = ref 0.0 in
  let detail = ref [] in
  List.iter
    (fun ((wl : Workload.t), c, fresh_mem) ->
      let p = (c, fresh_mem) in
      List.iter
        (fun helix ->
          let legacy_cfg = cfg_of ~helix Helix_engine.Engine.Legacy in
          let event_cfg = cfg_of ~helix Helix_engine.Engine.Event in
          ignore (time_one legacy_cfg p) (* warmup *);
          let l_best = ref infinity and e_best = ref infinity in
          let cycles = ref 0 in
          let e_ratio = ref 0.0 in
          for _ = 1 to 3 do
            let lr, ld = time_one legacy_cfg p in
            let er, ed = time_one event_cfg p in
            cycles := lr.Executor.r_cycles;
            e_ratio := skip_ratio er;
            if ld < !l_best then l_best := ld;
            if ed < !e_best then e_best := ed
          done;
          total_cycles := !total_cycles + !cycles;
          l_dt := !l_dt +. !l_best;
          e_dt := !e_dt +. !e_best;
          detail :=
            ( wl.Workload.name,
              (if helix then "helix" else "conventional"),
              !e_ratio )
            :: !detail)
        [ true; false ])
    prepared;
  let detail = List.rev !detail in
  let l_dt = !l_dt and e_dt = !e_dt in
  let rate dt = float_of_int !total_cycles /. Float.max dt 1e-9 in
  let l_rate = rate l_dt and e_rate = rate e_dt in
  let e_speedup = e_rate /. Float.max l_rate 1e-9 in
  Fmt.pr "  legacy: %d cycles in %.3fs = %.0f cycles/sec@." !total_cycles l_dt
    l_rate;
  Fmt.pr "  event:  %d cycles in %.3fs = %.0f cycles/sec@." !total_cycles e_dt
    e_rate;
  Fmt.pr "  event/legacy: %.2fx@." e_speedup;
  Fmt.pr "  elided-cycle ratio (event):@.";
  List.iter
    (fun (name, cfg, er) -> Fmt.pr "    %-14s %-12s %.3f@." name cfg er)
    detail;
  let side cycles dt r =
    Helix_obs.Json.Obj
      [
        ("cycles", Helix_obs.Json.Int cycles);
        ("seconds", Helix_obs.Json.Float dt);
        ("cycles_per_sec", Helix_obs.Json.Float r);
      ]
  in
  let json =
    Helix_obs.Json.Obj
      [
        ("bench", Helix_obs.Json.String "engine-ab");
        ( "workloads",
          Helix_obs.Json.List
            (List.map
               (fun (wl, _, _) -> Helix_obs.Json.String wl.Workload.name)
               prepared) );
        ("legacy", side !total_cycles l_dt l_rate);
        ("event", side !total_cycles e_dt e_rate);
        ("event_over_legacy", Helix_obs.Json.Float e_speedup);
        ( "skip_ratio",
          Helix_obs.Json.List
            (List.map
               (fun (name, cfg, er) ->
                 Helix_obs.Json.Obj
                   [
                     ("workload", Helix_obs.Json.String name);
                     ("config", Helix_obs.Json.String cfg);
                     ("event", Helix_obs.Json.Float er);
                   ])
               detail) );
      ]
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc (Helix_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc

(* ---- part 2: substrate micro-benchmarks ------------------------------- *)

let quickstart_prog () =
  let wl = Registry.find "164.gzip" in
  let s = wl.Workload.build () in
  (s.Workload.prog, s.Workload.layout, s.Workload.init Workload.Train)

(* A workload compiled once for the engine fast-forward benches, so only
   the run loop is measured. *)
let prepared name =
  lazy
    (let wl = Registry.find name in
     let s = wl.Workload.build () in
     let c =
       Hcc.compile
         (Hcc_config.v3 ())
         s.Workload.prog s.Workload.layout
         ~train_mem:(s.Workload.init Workload.Train)
     in
     (c, fun () -> s.Workload.init Workload.Ref))

let run_prepared p engine =
  let c, fresh_mem = Lazy.force p in
  let cfg = Exp_common.helix_cfg ~engine () in
  ignore (Executor.run ~compiled:c cfg c.Hcc.cp_prog (fresh_mem ()))

(* Stall-heavy and serial-heavy workloads. *)
let run_mcf = run_prepared (prepared "181.mcf")
let run_vpr = run_prepared (prepared "175.vpr")

(* Hundreds of short invocations over a ~16k-word image: the checked
   path's per-invocation cost, which gzip's handful of invocations hide. *)
let twolf = prepared "300.twolf"

(* 10k ticks of a 16-node ring taking a store every 8 cycles, under an
   optional fault plan. *)
let ring_ticks ?faults name =
  Bechamel.Test.make ~name
    (Bechamel.Staged.stage (fun () ->
         let backing = Hashtbl.create 16 in
         let r =
           Helix_ring.Ring.create
             { (Helix_ring.Ring.default_config ~n_nodes:16) with
               Helix_ring.Ring.faults }
             {
               Helix_ring.Ring.backing_load =
                 (fun a -> try Hashtbl.find backing a with Not_found -> 0);
               backing_store = (fun a v -> Hashtbl.replace backing a v);
               owner_l1_latency = (fun ~core:_ ~cycle:_ ~write:_ ~addr:_ -> 3);
             }
         in
         for c = 0 to 9_999 do
           if c land 7 = 0 then
             ignore
               (Helix_ring.Ring.try_store r ~node:(c land 15)
                  ~addr:(64 + (c land 63))
                  ~value:c ~cycle:c);
           Helix_ring.Ring.tick r ~cycle:c
         done))

let bench_tests =
  let open Bechamel in
  [
    Test.make ~name:"interp: gzip train input"
      (Staged.stage (fun () ->
           let prog, _, mem = quickstart_prog () in
           ignore (Interp.run prog mem)));
    Test.make ~name:"hcc: compile gzip with HCCv3"
      (Staged.stage (fun () ->
           let prog, layout, mem = quickstart_prog () in
           ignore (Hcc.compile (Hcc_config.v3 ()) prog layout ~train_mem:mem)));
    Test.make ~name:"executor: sequential gzip train"
      (Staged.stage (fun () ->
           let prog, _, mem = quickstart_prog () in
           ignore (Helix.run_sequential Mach_config.default prog mem)));
    ring_ticks "ring: 10k ticks with traffic";
    (* same traffic under the delay class: the cost of the plan's hash on
       the hot path *)
    ring_ticks "ring: 10k jittered ticks with traffic"
      ~faults:(Helix_ring.Ring.faulty ~delay:2 ~seed:42 ());
    (* same traffic again under a lossy fault plan: hot-path cost of
       per-send fault rolls, hop/checksum validation and the
       retransmission timer upkeep *)
    ring_ticks "ring: 10k faulty ticks with traffic"
      ~faults:
        (Helix_ring.Ring.faulty ~drop:20 ~dup:10 ~reorder:10 ~corrupt:10
           ~seed:42 ());
    Test.make ~name:"depcheck: 100k recorded accesses"
      (Staged.stage (fun () ->
           let d = Depcheck.create () in
           for i = 0 to 99_999 do
             Depcheck.record d ~core:(i land 15) ~iter:(i lsr 4)
               ~seg:(if i land 3 = 0 then Some (i land 7) else None)
               ~addr:((i * 13) land 4095)
               ~write:(i land 3 = 0)
           done;
           ignore (Depcheck.violations d)));
    Test.make ~name:"executor: gzip invocation with oracle+sanitizer"
      (Staged.stage (fun () ->
           let wl = Registry.find "164.gzip" in
           let s = wl.Workload.build () in
           let compiled =
             Hcc.compile
               (Hcc_config.v3 ())
               s.Workload.prog s.Workload.layout
               ~train_mem:(s.Workload.init Workload.Train)
           in
           ignore
             (Executor.run ~compiled
                (Executor.default_config ~ring:true
                   ~comm:Executor.fully_decoupled ~robust:Executor.checked
                   Mach_config.default)
                compiled.Hcc.cp_prog
                (s.Workload.init Workload.Ref))));
    Test.make ~name:"executor: twolf with oracle+sanitizer"
      (Staged.stage (fun () ->
           let c, fresh_mem = Lazy.force twolf in
           ignore
             (Executor.run ~compiled:c
                (Executor.default_config ~ring:true
                   ~comm:Executor.fully_decoupled ~robust:Executor.checked
                   Mach_config.default)
                c.Hcc.cp_prog (fresh_mem ()))));
    Test.make ~name:"cache: 100k L1 accesses"
      (Staged.stage (fun () ->
           let c = Helix_machine.Cache.create Mach_config.default_l1 in
           for i = 0 to 99_999 do
             ignore
               (Helix_machine.Cache.access c ~write:(i land 3 = 0)
                  ((i * 17) land 16383))
           done));
    Test.make ~name:"analysis: loops+liveness+deps on gzip main"
      (Staged.stage (fun () ->
           let prog, _, _ = quickstart_prog () in
           let f = Ir.main_func prog in
           let cfg = Cfg.of_func f in
           let lt = Helix_analysis.Loops.compute cfg in
           ignore (Helix_analysis.Liveness.compute cfg);
           List.iter
             (fun lp ->
               ignore
                 (Helix_analysis.Depend.compute Helix_analysis.Alias.best prog
                    f lp))
             (Helix_analysis.Loops.loops lt)));
    Test.make ~name:"engine: legacy per-cycle, mcf (stall-heavy)"
      (Staged.stage (fun () -> run_mcf Helix_engine.Engine.Legacy));
    Test.make ~name:"engine: event fast-forward, mcf (stall-heavy)"
      (Staged.stage (fun () -> run_mcf Helix_engine.Engine.Event));
    Test.make ~name:"engine: event fast-forward, vpr (serial-heavy)"
      (Staged.stage (fun () -> run_vpr Helix_engine.Engine.Event));
    Test.make ~name:"pool: 4 interp runs, 1 job"
      (Staged.stage (fun () ->
           Exp_common.Pool.set_jobs 1;
           let prog, _, mem = quickstart_prog () in
           ignore
             (Exp_common.Pool.map
                (fun _ -> Interp.run prog (Helix_ir.Memory.copy mem))
                [ 0; 1; 2; 3 ])));
    Test.make ~name:"pool: 4 interp runs, 2 jobs"
      (Staged.stage (fun () ->
           Exp_common.Pool.set_jobs 2;
           Fun.protect
             ~finally:(fun () -> Exp_common.Pool.set_jobs 1)
             (fun () ->
               let prog, _, mem = quickstart_prog () in
               ignore
                 (Exp_common.Pool.map
                    (fun _ -> Interp.run prog (Helix_ir.Memory.copy mem))
                    [ 0; 1; 2; 3 ]))));
  ]

let part2 () =
  let open Bechamel in
  Fmt.pr "@.== substrate micro-benchmarks (bechamel) ==@.";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"helix-rc" ~fmt:"%s %s" bench_tests)
  in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                   ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ est ] ->
          Fmt.pr "  %-44s %12.0f ns/run@." name est
      | _ -> Fmt.pr "  %-44s (no estimate)@." name)
    results

let () =
  if wants "figures" then part1 ();
  if wants "engine" then engine_ab ();
  if wants "micro" then part2 ();
  Fmt.pr "@.done.@."
