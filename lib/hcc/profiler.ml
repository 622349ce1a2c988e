open Helix_ir
open Helix_analysis

(* Loop profiler.

   HCCv3 "includes a profiler to capture the behavior of the ring cache";
   HCCv1/v2 rely on an analytical model over static estimates.  This
   module is the shared measurement engine: it interprets the program on
   a training input and attributes retired instructions, invocations and
   iterations to every natural loop.  [Perf_model] turns the numbers into
   speedup estimates under either cost model. *)

type loop_profile = {
  lpf_func : string;
  lpf_loop_id : int;                (* Loops.l_id within its function *)
  lpf_header : Ir.label;
  mutable lpf_invocations : int;
  mutable lpf_iterations : int;
  mutable lpf_instrs : int;         (* dynamic instrs inside the body *)
}

type t = {
  total_instrs : int;
  loops : loop_profile list;
  train_ret : int option;
}

let instrs_per_iteration p =
  if p.lpf_iterations = 0 then 0.0
  else float_of_int p.lpf_instrs /. float_of_int p.lpf_iterations

(* Profile [prog] on the training memory.  [loops_of] must yield the loop
   analysis of each function (shared with the rest of the pipeline so loop
   ids line up). *)
let run (prog : Ir.program) (loops_of : string -> Loops.t)
    (train_mem : Memory.t) : t =
  (* per function: block -> innermost loop id, and header -> loop id *)
  let fn_info = Hashtbl.create 7 in
  let info fname =
    match Hashtbl.find_opt fn_info fname with
    | Some i -> i
    | None ->
        let lt = loops_of fname in
        let block_loop = Hashtbl.create 17 in
        List.iter
          (fun (lp : Loops.loop) ->
            Loops.Label_set.iter
              (fun b ->
                match Hashtbl.find_opt block_loop b with
                | Some (prev : Loops.loop) when prev.Loops.l_depth >= lp.Loops.l_depth
                  ->
                    ()
                | _ -> Hashtbl.replace block_loop b lp)
              lp.Loops.l_body)
          (Loops.loops lt);
        let profiles =
          List.map
            (fun (lp : Loops.loop) ->
              {
                lpf_func = fname;
                lpf_loop_id = lp.Loops.l_id;
                lpf_header = lp.Loops.l_header;
                lpf_invocations = 0;
                lpf_iterations = 0;
                lpf_instrs = 0;
              })
            (Loops.loops lt)
        in
        let i = (lt, block_loop, profiles, Hashtbl.create 7) in
        Hashtbl.replace fn_info fname i;
        i
  in
  let total = ref 0 in
  let last_block : (string, Ir.label) Hashtbl.t = Hashtbl.create 7 in
  let on_block ~fname l =
    let lt, _, profiles, _ = info fname in
    (match Loops.loop_of_header lt l with
    | Some id ->
        let lp = Loops.loop lt id in
        let p = List.nth profiles id in
        let from_outside =
          match Hashtbl.find_opt last_block fname with
          | Some prev -> not (Loops.contains lp prev)
          | None -> true
        in
        if from_outside then p.lpf_invocations <- p.lpf_invocations + 1
        else p.lpf_iterations <- p.lpf_iterations + 1
    | None -> ());
    Hashtbl.replace last_block fname l
  in
  let on_instr ~fname pos _ins =
    incr total;
    let _, block_loop, profiles, _ = info fname in
    (* attribute to every enclosing loop *)
    let rec up (lp : Loops.loop) =
      let p = List.nth profiles lp.Loops.l_id in
      p.lpf_instrs <- p.lpf_instrs + 1;
      match lp.Loops.l_parent with
      | Some pid ->
          let lt, _, _, _ = info fname in
          up (Loops.loop lt pid)
      | None -> ()
    in
    match Hashtbl.find_opt block_loop pos.Ir.ip_block with
    | Some lp -> up lp
    | None -> ()
  in
  let hooks =
    {
      Interp.on_mem = None;
      on_block = Some on_block;
      on_instr = Some on_instr;
    }
  in
  let res = Interp.run ~hooks prog train_mem in
  let loops =
    Hashtbl.fold (fun _ (_, _, ps, _) acc -> ps @ acc) fn_info []
  in
  { total_instrs = !total; loops; train_ret = res.Interp.ret }

let find t ~func ~loop_id =
  List.find_opt
    (fun p -> p.lpf_func = func && p.lpf_loop_id = loop_id)
    t.loops
