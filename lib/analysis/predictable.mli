open Helix_ir

(** Predictable-variable classification (Section 2.2, Figure 3): decides,
    for every register carried across loop iterations, whether its
    cross-iteration communication can be removed. *)

type category =
  | Induction       (** polynomial update of degree <= 2: recompute *)
  | Reduction       (** accumulative / max / min: privatize partials *)
  | Dead_in_loop    (** set, not used until after the loop *)
  | Set_every_iter  (** redefined on every path before any use *)
  | Unpredictable   (** must be communicated (demoted to a shared cell) *)

type classified = {
  c_reg : Ir.reg;
  c_category : category;
  c_iv : Induction.iv option;
}

val category_name : category -> string

val carried_regs : Ir.func -> Liveness.t -> Loops.loop -> Ir.reg list
(** Registers defined in the loop and live at its header. *)

val set_every_iteration :
  Ir.func -> Dominance.t -> Defuse.t -> Loops.loop -> Ir.reg -> bool

val classify :
  ?poly2:bool ->
  ?recognize_reductions:bool ->
  ?recognize_dead:bool ->
  ?recognize_set_every:bool ->
  Ir.func -> Cfg.t -> Loops.loop -> classified list
(** Classify the carried registers.  The flags correspond to the HCC
    version feature tiers: HCCv1 passes [~poly2:false] and disables the
    other recognizers.  Reductions are validated: an accumulator read by
    anything other than its own update is unpredictable. *)

