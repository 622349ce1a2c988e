(* Bechamel micro-benchmarks of the substrate itself (interpreter,
   compiler, ring network, caches, core models, checked executor, host
   pool), so performance regressions in the simulator are visible.  Host
   speed is gated elsewhere, by the same-host A/B of the repository
   benchmark (tools/perf_ab.sh); the paper's tables and figures are
   regenerated by helix_rc (helix_rc all [--quick] [--json-dir DIR]). *)

open Helix_ir
open Helix_hcc
open Helix_core
open Helix_machine
open Helix_workloads
open Helix_experiments

let quickstart_prog () =
  let wl = Registry.find "164.gzip" in
  let s = wl.Workload.build () in
  (s.Workload.prog, s.Workload.layout, s.Workload.init Workload.Train)

(* A workload compiled once, so only the run loop is measured. *)
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

(* Hundreds of short invocations over a ~16k-word image: the checked
   path's per-invocation cost, which gzip's handful of invocations hide. *)
let twolf = prepared "300.twolf"

(* 10k ticks of a 16-node ring taking a store every 8 cycles, under an
   optional fault plan.  Each tick is followed by the wake-up probe, as
   the event engine runs the ring, so the probe's cost shows too. *)
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
           Helix_ring.Ring.tick r ~cycle:c;
           ignore (Helix_ring.Ring.next_event r ~now:(c + 1))
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
                (Executor.default_config
                   ~comm:Executor.fully_decoupled ~robust:Executor.checked
                   Mach_config.default)
                compiled.Hcc.cp_prog
                (s.Workload.init Workload.Ref))));
    Test.make ~name:"executor: twolf with oracle+sanitizer"
      (Staged.stage (fun () ->
           let c, fresh_mem = Lazy.force twolf in
           ignore
             (Executor.run ~compiled:c
                (Executor.default_config
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

let () =
  let open Bechamel in
  Fmt.pr "== substrate micro-benchmarks (bechamel) ==@.";
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
    results;
  Fmt.pr "@.done.@."
