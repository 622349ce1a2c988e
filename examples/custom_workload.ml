(* Defining a workload of your own and pushing it through the full
   evaluation pipeline (all three compiler versions).

     dune exec examples/custom_workload.exe

   The workload models a toy spell-checker: a word stream probes a
   dictionary and bumps per-word counts (shared structure, like
   197.parser), then a scoring pass accumulates n-gram statistics
   (reduction-friendly, like the phases every HCC version handles). *)

open Helix_ir
open Helix_hcc
open Helix_core
open Helix_machine
open Helix_workloads

let spellcheck : Workload.t =
  let build () : Workload.spec =
    let layout = Memory.Layout.create () in
    let params = Workload.param_region layout in
    let words = Memory.Layout.alloc layout "words" 4096 in
    let counts = Memory.Layout.alloc layout "counts" 256 in
    let an_w = Workload.an_of words ~path:"w[]" ~ty:"int" ~affine:0 () in
    let an_c = Workload.an_of counts ~path:"count[]" ~ty:"int" () in
    let b = Builder.create "main" in
    let n = Workload.load_param b params 0 in
    let score = Builder.mov b (Ir.Imm 0) in
    (* probe & count *)
    let _ =
      Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Reg n) (fun i ->
          let w =
            Builder.load b ~offset:(Ir.Reg i) ~an:an_w
              (Ir.Imm words.Memory.Layout.base)
          in
          let h = Builder.libcall b Ir.Lc_hash [ Ir.Reg w ] in
          let k = Builder.band b (Ir.Reg h) (Ir.Imm 255) in
          let slot =
            Builder.add b (Ir.Imm counts.Memory.Layout.base) (Ir.Reg k)
          in
          let c = Builder.load b ~an:an_c (Ir.Reg slot) in
          let c1 = Builder.add b (Ir.Reg c) (Ir.Imm 1) in
          Builder.store b ~an:an_c (Ir.Reg slot) (Ir.Reg c1))
    in
    (* n-gram scoring: beefy iterations, pure reduction *)
    let m = Builder.shr b (Ir.Reg n) (Ir.Imm 2) in
    let _ =
      Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Reg m) (fun j ->
          let acc = Builder.mov b (Ir.Imm 0) in
          let _ =
            Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 32)
              (fun k ->
                let a0 = Builder.add b (Ir.Reg j) (Ir.Reg k) in
                let a = Builder.band b (Ir.Reg a0) (Ir.Imm 4095) in
                let w =
                  Builder.load b ~offset:(Ir.Reg a) ~an:an_w
                    (Ir.Imm words.Memory.Layout.base)
                in
                let d = Builder.mul b (Ir.Reg w) (Ir.Reg k) in
                let acc' = Builder.add b (Ir.Reg acc) (Ir.Reg d) in
                Builder.mov_to b acc (Ir.Reg acc'))
          in
          let s = Builder.add b (Ir.Reg score) (Ir.Reg acc) in
          Builder.mov_to b score (Ir.Reg s))
    in
    Builder.ret b (Some (Ir.Reg score));
    let prog = Ir.create_program () in
    Ir.add_func prog (Builder.func b);
    let init variant =
      let mem = Memory.create () in
      let n = match variant with Workload.Train -> 256 | Workload.Ref -> 1500 in
      Memory.store mem params.Memory.Layout.base n;
      let rng = Workload.mk_rng 0xcafe in
      Workload.fill mem words.Memory.Layout.base 4096 (fun _ -> rng 5000);
      mem
    in
    { Workload.prog; layout; init }
  in
  {
    Workload.name = "spellcheck";
    kind = Workload.Int;
    phases = 2;
    build;
    paper =
      { Workload.p_speedup = 0.0; p_coverage_v3 = 0.0; p_coverage_v2 = 0.0;
        p_coverage_v1 = 0.0; p_dominant = "n/a" };
  }

let () =
  let s = spellcheck.Workload.build () in
  let golden =
    Helix.golden_run s.Workload.prog (s.Workload.init Workload.Ref)
  in
  let s2 = spellcheck.Workload.build () in
  let seq =
    Helix.run_sequential Mach_config.default s2.Workload.prog
      (s2.Workload.init Workload.Ref)
  in
  Fmt.pr "spellcheck: golden %a, sequential %d cycles@."
    Fmt.(option int) golden.Helix.g_ret seq.Executor.r_cycles;
  List.iter
    (fun (vname, cfg, comm) ->
      let sp = spellcheck.Workload.build () in
      let compiled =
        Hcc.compile cfg sp.Workload.prog sp.Workload.layout
          ~train_mem:(sp.Workload.init Workload.Train)
      in
      let exec_cfg = Executor.default_config ~comm Mach_config.default in
      let par =
        Executor.run ~compiled exec_cfg compiled.Hcc.cp_prog
          (sp.Workload.init Workload.Ref)
      in
      Fmt.pr "%-8s coverage %5.1f%%  speedup %5.2fx  oracle %s@." vname
        (100.0 *. compiled.Hcc.cp_coverage)
        (Helix.speedup ~seq ~par)
        (if (Helix.verify golden par).Helix.ok then "OK" else "FAIL"))
    [
      ("HCCv1", Hcc_config.v1 (), Executor.fully_coupled);
      ("HCCv2", Hcc_config.v2 (), Executor.fully_coupled);
      ("HELIX-RC", Hcc_config.v3 (), Executor.fully_decoupled);
    ]
