open Helix_ir

(* Register liveness, as a backward dataflow problem over the generic
   engine.  Facts are sets of live registers at block boundaries. *)

module Int_set = Dataflow.Int_set

type t = {
  live_in : Ir.label -> Int_set.t;
  live_out : Ir.label -> Int_set.t;
}

let block_gen_kill (f : Ir.func) l =
  let b = Ir.block_of_func f l in
  (* Forward walk: gen = upward-exposed uses (used before any def in this
     block), kill = all defined registers. *)
  let gen = ref Int_set.empty and kill = ref Int_set.empty in
  let use r = if not (Int_set.mem r !kill) then gen := Int_set.add r !gen in
  List.iter
    (fun ins ->
      List.iter use (Ir.uses_of_instr ins);
      List.iter (fun r -> kill := Int_set.add r !kill)
        (Ir.defs_of_instr ins))
    b.Ir.b_instrs;
  List.iter use (Ir.uses_of_term b.Ir.b_term);
  (!gen, !kill)

let compute (cfg : Cfg.t) : t =
  let f = cfg.Cfg.func in
  let cache = Hashtbl.create 17 in
  let gen_kill l =
    match Hashtbl.find_opt cache l with
    | Some gk -> gk
    | None ->
        let gk = block_gen_kill f l in
        Hashtbl.replace cache l gk;
        gk
  in
  let sol =
    Dataflow.set_problem ~direction:Dataflow.Backward
      ~entry_fact:Int_set.empty ~gen_kill cfg
  in
  { live_in = sol.Dataflow.fact_in; live_out = sol.Dataflow.fact_out }
