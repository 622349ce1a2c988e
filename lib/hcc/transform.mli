open Helix_ir
open Helix_analysis

(** IR transformation utilities for the HCC pipeline. *)

val dead_code_elim : Ir.func -> int
(** Remove side-effect-free definitions that are never used, to a
    fixpoint; returns the count removed. *)

(** Canonical (rotated-while) loop shape: single conditional exit in the
    header, single latch jumping back.  HCC parallelizes only canonical
    loops. *)
type canonical = {
  c_header : Ir.label;
  c_body_entry : Ir.label;
  c_exit : Ir.label;
  c_latch : Ir.label;
  c_cond : Ir.operand;
}

val canonicalize : Ir.func -> Loops.loop -> canonical option

val clone_blocks :
  src:Ir.func -> dst:Ir.func -> labels:Ir.label list ->
  redirect:(Ir.label -> Ir.label) -> (Ir.label, Ir.label) Hashtbl.t
(** Clone blocks into [dst] with fresh labels; out-of-set edges pass
    through [redirect].  Returns the label map. *)

