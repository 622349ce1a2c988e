open Helix_ir

(* Def-use information per virtual register: positions of every definition
   and every use.  The IR is not SSA, so a register may have several defs;
   the parallelizer's register analyses (induction, predictability) reason
   about the def multiset directly. *)

type t = {
  defs : (Ir.reg, Ir.ipos list) Hashtbl.t;
  uses : (Ir.reg, Ir.ipos list) Hashtbl.t;
  term_uses : (Ir.reg, Ir.label list) Hashtbl.t; (* uses in terminators *)
}

let compute (f : Ir.func) : t =
  let defs = Hashtbl.create 64
  and uses = Hashtbl.create 64
  and term_uses = Hashtbl.create 16 in
  let push tbl k v =
    let cur = try Hashtbl.find tbl k with Not_found -> [] in
    Hashtbl.replace tbl k (v :: cur)
  in
  Ir.iter_instrs f (fun pos ins ->
      List.iter (fun r -> push defs r pos) (Ir.defs_of_instr ins);
      List.iter (fun r -> push uses r pos) (Ir.uses_of_instr ins));
  List.iter
    (fun l ->
      let b = Ir.block_of_func f l in
      List.iter (fun r -> push term_uses r l) (Ir.uses_of_term b.Ir.b_term))
    f.Ir.f_order;
  { defs; uses; term_uses }

let defs_of t r = try Hashtbl.find t.defs r with Not_found -> []
let uses_of t r = try Hashtbl.find t.uses r with Not_found -> []
let term_uses_of t r = try Hashtbl.find t.term_uses r with Not_found -> []

let num_defs t r = List.length (defs_of t r)

(* The single definition of [r], or [None] if zero or several. *)
let unique_def t r = match defs_of t r with [ d ] -> Some d | _ -> None
