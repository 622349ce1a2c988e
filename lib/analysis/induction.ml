open Helix_ir

(* Induction-variable recognition for a single loop.

   The builder-generated (and HCC-normalized) update idiom for a register
   [r] updated once per iteration is

       s = binop op, r, step      (or binop op, step, r for commutative op)
       ...
       mov r, s

   where both instructions execute inside the loop.  We classify:

   - [Basic]     r += c with loop-invariant step (degree-1 polynomial);
   - [Polynomial2] r += s where the step register is itself a Basic IV of
                 the same loop (degree-2 polynomial), matching the paper's
                 "update function is a polynomial up to the second order";
   - [Accumulator] r op= x with op in {Add,Sub} and loop-variant x;
   - [Product]   r *= x;
   - [MinMax]    r = min/max (r, x).

   HCCv1 only recognizes [Basic] (linear IVs); HCCv2/v3 recognize the
   full lattice (paper Section 2.1). *)

type kind =
  | Basic of Ir.operand            (* invariant step *)
  | Polynomial2 of Ir.reg          (* step register, itself a basic IV *)
  | Accumulator
  | Product
  | MinMax

type iv = { iv_reg : Ir.reg; iv_kind : kind; iv_op : Ir.binop }

(* Is operand [o] invariant in loop [lp]: an immediate, or a register with
   no definition inside the loop? *)
let invariant (f : Ir.func) (lp : Loops.loop) (o : Ir.operand) =
  match o with
  | Ir.Imm _ -> true
  | Ir.Reg r ->
      not
        (Ir.fold_instrs f false (fun acc pos ins ->
             acc
             || (Loops.contains lp pos.Ir.ip_block
                && List.mem r (Ir.defs_of_instr ins))))

(* The update sites of a single-update register: the arithmetic
   instruction and the committing mov (equal when the update is a direct
   [r = op r, x]). *)
type update_sites = {
  us_binop : Ir.ipos;
  us_mov : Ir.ipos;
  us_op : Ir.binop;
  us_other : Ir.operand;
}

let update_sites (f : Ir.func) (du : Defuse.t) (lp : Loops.loop) r :
    update_sites option =
  let in_loop pos = Loops.contains lp pos.Ir.ip_block in
  match List.filter in_loop (Defuse.defs_of du r) with
  | [ dpos ] -> begin
      match Ir.instr_at f dpos with
      | Ir.Mov (_, Ir.Reg s) -> begin
          match Defuse.defs_of du s with
          | [ spos ] when in_loop spos -> begin
              match Ir.instr_at f spos with
              | Ir.Binop (_, op, Ir.Reg r', other) when r' = r ->
                  Some
                    { us_binop = spos; us_mov = dpos; us_op = op;
                      us_other = other }
              | Ir.Binop (_, op, other, Ir.Reg r') when r' = r ->
                  Some
                    { us_binop = spos; us_mov = dpos; us_op = op;
                      us_other = other }
              | _ -> None
            end
          | _ -> None
        end
      | Ir.Binop (_, op, Ir.Reg r', other) when r' = r ->
          Some { us_binop = dpos; us_mov = dpos; us_op = op; us_other = other }
      | Ir.Binop (_, op, other, Ir.Reg r') when r' = r ->
          Some { us_binop = dpos; us_mov = dpos; us_op = op; us_other = other }
      | _ -> None
    end
  | _ -> None

(* Try to see register [r] as "updated exactly once per iteration via the
   mov idiom"; returns the update [(op, other-operand)] on success. *)
let single_update (f : Ir.func) (du : Defuse.t) (lp : Loops.loop) r =
  let in_loop pos = Loops.contains lp pos.Ir.ip_block in
  let loop_defs = List.filter in_loop (Defuse.defs_of du r) in
  match loop_defs with
  | [ dpos ] -> begin
      match Ir.instr_at f dpos with
      | Ir.Mov (_, Ir.Reg s) -> begin
          (* the temp s must be defined once, inside the loop, as a binop
             reading r *)
          match Defuse.defs_of du s with
          | [ spos ] when in_loop spos -> begin
              match Ir.instr_at f spos with
              | Ir.Binop (_, op, Ir.Reg r', other) when r' = r ->
                  Some (op, other)
              | Ir.Binop (_, op, other, Ir.Reg r')
                when r' = r
                     && List.mem op
                          [ Ir.Add; Ir.Mul; Ir.And; Ir.Or; Ir.Xor; Ir.Min;
                            Ir.Max ] ->
                  Some (op, other)
              | _ -> None
            end
          | _ -> None
        end
      | Ir.Binop (_, op, Ir.Reg r', other) when r' = r -> Some (op, other)
      | _ -> None
    end
  | _ -> None

(* [analyze ~poly2 f du lp] classifies every register carried around the
   back edge that matches the single-update idiom.  [poly2=false] restricts
   to linear IVs (HCCv1's analysis). *)
let analyze ?(poly2 = true) (f : Ir.func) (du : Defuse.t) (lp : Loops.loop) :
    iv list =
  let candidates =
    Loops.defined_regs f lp |> Loops.Label_set.elements
  in
  let basics =
    List.filter_map
      (fun r ->
        match single_update f du lp r with
        | Some ((Ir.Add | Ir.Sub) as op, step) when invariant f lp step ->
            Some { iv_reg = r; iv_kind = Basic step; iv_op = op }
        | _ -> None)
      candidates
  in
  let is_basic r = List.exists (fun iv -> iv.iv_reg = r) basics in
  let others =
    List.filter_map
      (fun r ->
        if is_basic r then None
        else
          match single_update f du lp r with
          | Some ((Ir.Add | Ir.Sub) as op, Ir.Reg s)
            when poly2 && is_basic s ->
              Some { iv_reg = r; iv_kind = Polynomial2 s; iv_op = op }
          | Some ((Ir.Add | Ir.Sub) as op, _) when poly2 ->
              Some { iv_reg = r; iv_kind = Accumulator; iv_op = op }
          | Some (Ir.Mul, _) when poly2 ->
              Some { iv_reg = r; iv_kind = Product; iv_op = Ir.Mul }
          | Some ((Ir.Min | Ir.Max) as op, _) when poly2 ->
              Some { iv_reg = r; iv_kind = MinMax; iv_op = op }
          | _ -> None)
      candidates
  in
  basics @ others

let find ivs r = List.find_opt (fun iv -> iv.iv_reg = r) ivs

(* A register the compiler can recompute locally on each core: basic or
   second-order polynomial IV (value is a closed function of the iteration
   index and loop-invariant state). *)
let recomputable iv =
  match iv.iv_kind with
  | Basic _ | Polynomial2 _ -> true
  | Accumulator | Product | MinMax -> false

(* A register whose cross-iteration dependence is removable by reduction
   (each core accumulates privately; partial results combine at loop end). *)
let reducible iv =
  match iv.iv_kind with
  | Accumulator | Product | MinMax -> true
  | Basic _ | Polynomial2 _ -> false
