open Helix_ir

(** Dominators via the Cooper-Harvey-Kennedy iterative algorithm. *)

type t

val compute : Cfg.t -> t

val idom : t -> Ir.label -> Ir.label option
(** Immediate dominator; the entry maps to itself. *)

val dominates : t -> Ir.label -> Ir.label -> bool
val strictly_dominates : t -> Ir.label -> Ir.label -> bool

val frontiers : t -> Ir.label -> Ir.label list
(** Dominance frontiers (Cooper et al.). *)
