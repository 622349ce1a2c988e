open Helix_ir

(** Def-use positions per virtual register (the IR is not SSA: registers
    may have several definitions). *)

type t

val compute : Ir.func -> t
val defs_of : t -> Ir.reg -> Ir.ipos list
val uses_of : t -> Ir.reg -> Ir.ipos list
val term_uses_of : t -> Ir.reg -> Ir.label list
val num_defs : t -> Ir.reg -> int
val unique_def : t -> Ir.reg -> Ir.ipos option
