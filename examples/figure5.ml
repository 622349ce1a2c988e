(* The paper's Figure 5 example, end to end.

     dune exec examples/figure5.exe

   A small hot loop (from 175.vpr, responsible for 55% of its runtime)
   has two paths: one updates a shared variable (a = a + 1), the other
   does not.  The compiler cannot predict the path, so it synchronizes
   every iteration.  This example shows:
   - the generated parallel body with its wait/signal bracket and the
     signal-only empty arm (HCCv3's unnecessary-wait elimination);
   - the coupled (conventional) vs decoupled (ring cache) execution
     times, reproducing the figure's message. *)

open Helix_ir
open Helix_hcc
open Helix_core
open Helix_machine

let build () =
  let layout = Memory.Layout.create () in
  let a_cell = Memory.Layout.alloc layout "a" 8 in
  let work = Memory.Layout.alloc layout "work" 2048 in
  let an_a = Ir.annot ~path:"a" ~ty:"int" a_cell.Memory.Layout.site in
  let an_w = Ir.annot ~path:"w[]" ~ty:"int" ~affine:0 work.Memory.Layout.site in
  let b = Builder.create "main" in
  let _ =
    Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 2048) (fun i ->
        let h = Builder.libcall b Ir.Lc_hash [ Ir.Reg i ] in
        let v = Builder.band b (Ir.Reg h) (Ir.Imm 255) in
        Builder.store b ~offset:(Ir.Reg i) ~an:an_w
          (Ir.Imm work.Memory.Layout.base) (Ir.Reg v))
  in
  let _ =
    Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 2048) (fun i ->
        (* parallel code: per-element work *)
        let w =
          Builder.load b ~offset:(Ir.Reg i) ~an:an_w
            (Ir.Imm work.Memory.Layout.base)
        in
        let x0 = Builder.mul b (Ir.Reg w) (Ir.Imm 3) in
        let x1 = Builder.libcall b Ir.Lc_hash [ Ir.Reg x0 ] in
        let x2 = Builder.band b (Ir.Reg x1) (Ir.Imm 15) in
        (* sequential segment on one path only: if cond then a = a + 1 *)
        let cond = Builder.eq b (Ir.Reg x2) (Ir.Imm 0) in
        Builder.if_then b (Ir.Reg cond) (fun () ->
            let a =
              Builder.load b ~an:an_a (Ir.Imm a_cell.Memory.Layout.base)
            in
            let a1 = Builder.add b (Ir.Reg a) (Ir.Imm 1) in
            Builder.store b ~an:an_a (Ir.Imm a_cell.Memory.Layout.base)
              (Ir.Reg a1)))
  in
  let a = Builder.load b ~an:an_a (Ir.Imm a_cell.Memory.Layout.base) in
  Builder.ret b (Some (Ir.Reg a));
  let prog = Ir.create_program () in
  Ir.add_func prog (Builder.func b);
  (prog, layout)

let () =
  let gprog, _ = build () in
  let golden = Helix.golden_run gprog (Memory.create ()) in
  let sprog, _ = build () in
  let seq = Helix.run_sequential Mach_config.default sprog (Memory.create ()) in
  let prog, layout = build () in
  let compiled =
    Helix.compile (Hcc_config.v3 ()) prog layout ~train_mem:(Memory.create ())
  in
  (* show the generated body of the Figure-5 loop *)
  let pl =
    List.find
      (fun (pl : Parallel_loop.t) -> pl.Parallel_loop.pl_segments <> [])
      (Hcc.selected_loops compiled)
  in
  Fmt.pr "--- generated parallel body (note the signal-only empty arm) ---@.";
  Fmt.pr "%a@." Pretty.pp_func
    (Ir.find_func compiled.Hcc.cp_prog pl.Parallel_loop.pl_body_fn);
  (* decoupled: full HELIX-RC *)
  let decoupled = Helix.run_parallel compiled (Memory.create ()) in
  (* coupled: same code, conventional machine (as in Figure 5b / 9) *)
  let coupled_cfg =
    Executor.default_config ~comm:Executor.fully_coupled
      Mach_config.default
  in
  let coupled =
    Executor.run ~compiled coupled_cfg compiled.Hcc.cp_prog (Memory.create ())
  in
  Fmt.pr "sequential execution:           %7d cycles@." seq.Executor.r_cycles;
  Fmt.pr "coupled (conventional machine): %7d cycles (%.2fx)@."
    coupled.Executor.r_cycles
    (Helix.speedup ~seq ~par:coupled);
  Fmt.pr "decoupled (ring cache):         %7d cycles (%.2fx)@."
    decoupled.Executor.r_cycles
    (Helix.speedup ~seq ~par:decoupled);
  Fmt.pr "oracle: coupled %s, decoupled %s@."
    (if (Helix.verify golden coupled).Helix.ok then "OK" else "FAIL")
    (if (Helix.verify golden decoupled).Helix.ok then "OK" else "FAIL")
