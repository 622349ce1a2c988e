open Helix_ir
open Helix_hcc

(* Differential oracle (ISSUE 2): shadow-execute one parallel-loop
   invocation sequentially through the reference interpreter and compare
   its architectural effect -- final memory image, executed trip count,
   live-out register values -- against what the parallel run produced.

   The shadow replays the compiled protocol, not the original loop: it
   initializes the runtime cells (reduction partials, last-value stamps,
   demoted-register cells) exactly as the executor does at loop entry,
   runs the generated per-iteration body function for each iteration in
   order, then reconstructs live-out registers from closed forms and
   cells and clears the compiler scratch.  A correct compilation makes
   this bit-identical to the sequential semantics of the original loop,
   so any divergence in the parallel run is a protocol or timing bug,
   not a modelling artifact.

   [Wait]/[Signal]/[Flush] are no-ops in the interpreter; the shadow is
   the timing-free sequential semantics of the same code.  Note
   [Interp.run_func] reseeds [Lc_rand] per call where a worker context
   carries its seed across iterations -- parallel bodies do not use
   [Lc_rand], so the shadow stays exact. *)

exception Replay_stuck of string

(* Everything captured at parallel-loop entry that the shadow needs:
   evaluated parameters and the entry values (r0, and for quadratic IVs
   the step register's s0 plus the step operand's value) feeding the
   exit-time register reconstruction. *)
type entry = {
  en_pl : Parallel_loop.t;
  en_trip : int option;    (* None: conditional loop, replay until stop *)
  en_params : int list;
  en_ivs : (Parallel_loop.iv_info * int * int * int) list;
      (* (info, r0, s0, step_value) *)
  en_reds : (Parallel_loop.reduction * int) list;
  en_lvs : (Parallel_loop.lastval * int) list;
  en_srs : (Parallel_loop.shared_reg * int) list;
  en_n : int;              (* cores: the cell-slot count *)
}

type replay = {
  rp_executed : int;              (* iterations that continued *)
  rp_regs : (Ir.reg * int) list;  (* live-out register values *)
  rp_dyn_instrs : int;            (* interpreter work, for timing charges *)
}

(* Cap for conditional replays so a non-terminating mis-compiled body
   fails loudly instead of hanging the oracle. *)
let max_conditional_iters = 100_000_000

let replay (prog : Ir.program) (en : entry) (mem : Memory.t) : replay =
  let pl = en.en_pl in
  (* runtime-cell initialization, mirroring the executor's loop entry *)
  List.iter
    (fun ((rd : Parallel_loop.reduction), _r0) ->
      for slot = 0 to en.en_n - 1 do
        Memory.store mem
          (rd.Parallel_loop.rd_base + slot)
          rd.Parallel_loop.rd_identity
      done)
    en.en_reds;
  List.iter
    (fun ((lv : Parallel_loop.lastval), _r0) ->
      for slot = 0 to en.en_n - 1 do
        Memory.store mem (lv.Parallel_loop.lv_iter_base + slot) 0
      done)
    en.en_lvs;
  List.iter
    (fun ((sr : Parallel_loop.shared_reg), r0) ->
      Memory.store mem sr.Parallel_loop.sr_addr r0)
    en.en_srs;
  let dyn = ref 0 in
  let run_iter i =
    match
      Interp.run_func prog pl.Parallel_loop.pl_body_fn mem
        ~args:(i :: en.en_params)
    with
    | ret, stats ->
        dyn := !dyn + stats.Interp.dyn_instrs;
        ret
    | exception Interp.Out_of_fuel ->
        raise (Replay_stuck "shadow iteration out of fuel")
    | exception Interp.Runtime_error e ->
        raise (Replay_stuck ("shadow iteration failed: " ^ e))
  in
  let executed =
    match en.en_trip with
    | Some trip ->
        for i = 0 to trip - 1 do
          ignore (run_iter i)
        done;
        trip
    | None ->
        let rec go i =
          if i > max_conditional_iters then
            raise (Replay_stuck "conditional replay exceeds iteration cap")
          else
            match run_iter i with Some v when v <> 0 -> go (i + 1) | _ -> i
        in
        go 0
  in
  (* exit-time reconstruction: the same recipe as [Executor.end_parallel] *)
  let regs = ref [] in
  List.iter
    (fun ((info : Parallel_loop.iv_info), r0, s0, step_value) ->
      if info.Parallel_loop.ivi_live_out then
        regs :=
          ( info.Parallel_loop.ivi_reg,
            Parallel_loop.iv_value_at info ~r0 ~s0 ~step_value executed )
          :: !regs)
    en.en_ivs;
  List.iter
    (fun ((rd : Parallel_loop.reduction), r0) ->
      let partials =
        List.init en.en_n (fun slot ->
            Memory.load mem (rd.Parallel_loop.rd_base + slot))
      in
      if rd.Parallel_loop.rd_live_out then
        regs :=
          ( rd.Parallel_loop.rd_reg,
            Parallel_loop.combine_reduction rd r0 partials )
          :: !regs)
    en.en_reds;
  List.iter
    (fun ((lv : Parallel_loop.lastval), r0) ->
      let best = ref (0, r0) in
      for slot = 0 to en.en_n - 1 do
        let stamp = Memory.load mem (lv.Parallel_loop.lv_iter_base + slot) in
        if stamp > fst !best then
          best :=
            (stamp, Memory.load mem (lv.Parallel_loop.lv_val_base + slot))
      done;
      if lv.Parallel_loop.lv_live_out then
        regs := (lv.Parallel_loop.lv_reg, snd !best) :: !regs)
    en.en_lvs;
  List.iter
    (fun ((sr : Parallel_loop.shared_reg), _r0) ->
      if sr.Parallel_loop.sr_live_out then
        regs :=
          (sr.Parallel_loop.sr_reg, Memory.load mem sr.Parallel_loop.sr_addr)
          :: !regs)
    en.en_srs;
  (* clear compiler scratch so the image matches the sequential one *)
  List.iter
    (fun (base, size) ->
      for a = base to base + size - 1 do
        Memory.store mem a 0
      done)
    pl.Parallel_loop.pl_scratch;
  { rp_executed = executed; rp_regs = List.rev !regs; rp_dyn_instrs = !dyn }
