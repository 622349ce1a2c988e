(** Control-flow-graph view over an [Ir.func]: successor/predecessor
    maps, reverse postorder and reachability.  All analyses build on
    this. *)

type t = {
  func : Ir.func;
  succ : (Ir.label, Ir.label list) Hashtbl.t;
  pred : (Ir.label, Ir.label list) Hashtbl.t;
  rpo : Ir.label array;
  rpo_index : (Ir.label, int) Hashtbl.t;
}

val of_func : Ir.func -> t

val successors : t -> Ir.label -> Ir.label list
val predecessors : t -> Ir.label -> Ir.label list
val entry : t -> Ir.label

val reverse_postorder : t -> Ir.label array
(** Reverse postorder over the blocks reachable from the entry; the entry
    is first. *)

val rpo_index : t -> Ir.label -> int option
val is_reachable : t -> Ir.label -> bool
val reachable_blocks : t -> Ir.label list

