open Helix_ir

(** Induction-variable recognition for a loop, over the canonical update
    idiom [tmp = op r, x; ...; mov r, tmp]. *)

type kind =
  | Basic of Ir.operand       (** r +/-= invariant step (degree 1) *)
  | Polynomial2 of Ir.reg     (** r +/-= s where s is a Basic IV *)
  | Accumulator               (** r +/-= loop-variant value *)
  | Product                   (** r *= value *)
  | MinMax                    (** r = min/max (r, value) *)

type iv = { iv_reg : Ir.reg; iv_kind : kind; iv_op : Ir.binop }

val invariant : Ir.func -> Loops.loop -> Ir.operand -> bool
(** Immediate, or register never defined inside the loop. *)

(** The two sites of a single-update register: the arithmetic instruction
    and the committing mov (equal for the direct [r = op r, x] form). *)
type update_sites = {
  us_binop : Ir.ipos;
  us_mov : Ir.ipos;
  us_op : Ir.binop;
  us_other : Ir.operand;
}

val update_sites :
  Ir.func -> Defuse.t -> Loops.loop -> Ir.reg -> update_sites option

val single_update :
  Ir.func -> Defuse.t -> Loops.loop -> Ir.reg ->
  (Ir.binop * Ir.operand) option

val analyze : ?poly2:bool -> Ir.func -> Defuse.t -> Loops.loop -> iv list
(** [~poly2:false] restricts to linear IVs (HCCv1's analysis). *)

val find : iv list -> Ir.reg -> iv option

val recomputable : iv -> bool
(** Closed function of the iteration index: Basic or Polynomial2. *)

val reducible : iv -> bool
(** Removable by privatizing per-core partials. *)
