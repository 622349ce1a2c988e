open Helix_ir
open Helix_machine
open Helix_hcc

(* Top-level HELIX-RC API: compile a program with a chosen compiler
   version, simulate it sequentially and in parallel on a configurable
   machine, check results against the reference interpreter, and compute
   speedups.  This is the entry point examples and experiments use. *)

type golden = {
  g_ret : int option;
  g_mem : Memory.t;
  g_dyn_instrs : int;
}

(* Reference semantics on a given initial memory (consumed). *)
let golden_run (prog : Ir.program) (mem : Memory.t) : golden =
  let r = Interp.run prog mem in
  { g_ret = r.Interp.ret; g_mem = mem;
    g_dyn_instrs = r.Interp.stats.Interp.dyn_instrs }

(* Compile with an HCC version; [train_mem] is the training input the
   profiler runs on (it is consumed). *)
let compile (config : Hcc_config.t) (prog : Ir.program)
    (layout : Memory.Layout.t) ~(train_mem : Memory.t) : Hcc.compiled =
  Hcc.compile config prog layout ~train_mem

(* Sequential baseline: the unmodified program on one core of the same
   machine, no ring, no triggers. *)
let run_sequential (mach : Mach_config.t) (prog : Ir.program)
    (mem : Memory.t) : Executor.result =
  let cfg =
    Executor.default_config ~comm:Executor.fully_coupled
      (Mach_config.with_cores mach 1)
  in
  Executor.run cfg prog mem

(* Parallel run of a compiled program. *)
let run_parallel ?(exec_cfg : Executor.config option)
    (compiled : Hcc.compiled) (mem : Memory.t) : Executor.result =
  let cfg =
    match exec_cfg with
    | Some c -> c
    | None ->
        Executor.default_config
          (Mach_config.with_cores Mach_config.default
             compiled.Hcc.cp_config.Hcc_config.target_cores)
  in
  Executor.run ~compiled cfg compiled.Hcc.cp_prog mem

(* The correctness oracle: a simulated run must reproduce the reference
   memory image and return value exactly. *)
type verdict = { ok : bool; detail : string }

let verify (g : golden) (r : Executor.result) : verdict =
  if r.Executor.r_ret <> g.g_ret then
    {
      ok = false;
      detail =
        Printf.sprintf "return value mismatch: golden %s, simulated %s"
          (match g.g_ret with Some v -> string_of_int v | None -> "none")
          (match r.Executor.r_ret with
          | Some v -> string_of_int v
          | None -> "none");
    }
  else if not (Memory.equal g.g_mem r.Executor.r_mem) then
    { ok = false; detail = "memory image mismatch" }
  else { ok = true; detail = "exact match" }

let speedup ~(seq : Executor.result) ~(par : Executor.result) : float =
  if par.Executor.r_cycles = 0 then 0.0
  else
    float_of_int seq.Executor.r_cycles /. float_of_int par.Executor.r_cycles

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log (Float.max 1e-9 x)) 0.0 xs
        /. float_of_int (List.length xs))
