open Helix_ir
open Helix_analysis

(* IR transformation utilities shared by the HCC pipeline: dead-code
   elimination, block cloning (used by the parallel-body extraction in
   [Codegen]), and the canonical-loop-shape check that gates
   parallelization. *)

(* -- dead code elimination ------------------------------------------- *)

(* Remove instructions that define registers never used anywhere and have
   no side effects.  Iterates to a fixpoint; returns removed count. *)
let dead_code_elim (f : Ir.func) : int =
  let removed = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let du = Defuse.compute f in
    List.iter
      (fun l ->
        let b = Ir.block_of_func f l in
        let keep ins =
          match ins with
          | Ir.Binop (r, _, _, _) | Ir.Unop (r, _, _) | Ir.Mov (r, _) ->
              Defuse.uses_of du r <> [] || Defuse.term_uses_of du r <> []
          | Ir.Load _ | Ir.Store _ | Ir.Call _ | Ir.Libcall _ | Ir.Wait _
          | Ir.Signal _ | Ir.Flush | Ir.Nop ->
              true
        in
        let before = List.length b.Ir.b_instrs in
        let kept = List.filter keep b.Ir.b_instrs in
        if List.length kept < before then begin
          removed := !removed + before - List.length kept;
          b.Ir.b_instrs <- kept;
          changed := true
        end)
      f.Ir.f_order
  done;
  !removed

(* -- canonical loop shape -------------------------------------------- *)

(* A loop is in canonical (rotated-while) form when:
   - the header ends with a conditional branch, one target in the loop
     (body entry) and one outside (the unique loop exit);
   - there is a single latch ending with an unconditional jump to the
     header;
   - no other block exits the loop.
   Both Builder loop combinators produce this shape; HCC only
   parallelizes canonical loops (matching HELIX's restriction to loops it
   can restructure). *)
type canonical = {
  c_header : Ir.label;
  c_body_entry : Ir.label;
  c_exit : Ir.label;           (* first block after the loop *)
  c_latch : Ir.label;
  c_cond : Ir.operand;         (* continue condition (non-zero = stay) *)
}

let canonicalize (f : Ir.func) (lp : Loops.loop) : canonical option =
  match lp.Loops.l_latches with
  | [ latch ] -> begin
      let hb = Ir.block_of_func f lp.Loops.l_header in
      let lb = Ir.block_of_func f latch in
      match (hb.Ir.b_term, lb.Ir.b_term) with
      | Ir.Br (cond, t1, t2), Ir.Jmp back when back = lp.Loops.l_header ->
          let inside l = Loops.contains lp l in
          let shape =
            if inside t1 && not (inside t2) then Some (t1, t2)
            else if inside t2 && not (inside t1) then None
              (* inverted condition: continue on false; not produced by
                 the builder, rejected to keep trip-count logic simple *)
            else None
          in
          (match shape with
          | Some (body_entry, exit_) ->
              (* the header must be the only exiting block *)
              let exits_ok =
                List.for_all
                  (fun (from, _) -> from = lp.Loops.l_header)
                  lp.Loops.l_exits
              in
              if exits_ok then
                Some
                  {
                    c_header = lp.Loops.l_header;
                    c_body_entry = body_entry;
                    c_exit = exit_;
                    c_latch = latch;
                    c_cond = cond;
                  }
              else None
          | None -> None)
      | _ -> None
    end
  | _ -> None

(* -- block cloning ---------------------------------------------------- *)

(* Clone the blocks of [labels] from [src] into [dst], remapping labels
   via a fresh mapping.  Edges to labels outside the set are redirected
   through [redirect].  Returns the label map. *)
let clone_blocks ~(src : Ir.func) ~(dst : Ir.func) ~(labels : Ir.label list)
    ~(redirect : Ir.label -> Ir.label) : (Ir.label, Ir.label) Hashtbl.t =
  let map = Hashtbl.create 17 in
  List.iter (fun l -> Hashtbl.replace map l (Ir.fresh_label dst)) labels;
  let tgt l =
    match Hashtbl.find_opt map l with Some l' -> l' | None -> redirect l
  in
  List.iter
    (fun l ->
      let b = Ir.block_of_func src l in
      let term =
        match b.Ir.b_term with
        | Ir.Jmp t -> Ir.Jmp (tgt t)
        | Ir.Br (c, t1, t2) -> Ir.Br (c, tgt t1, tgt t2)
        | Ir.Ret o -> Ir.Ret o
      in
      Ir.add_block dst
        {
          Ir.b_label = Hashtbl.find map l;
          Ir.b_instrs = b.Ir.b_instrs;
          Ir.b_term = term;
        })
    labels;
  map
