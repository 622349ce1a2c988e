open Helix_ir

(** Loop-carried data-dependence analysis.

    Static: under an alias tier, every pair of conflicting accesses in a
    loop body is a carried edge (the compiler "must conservatively assume
    dependences exist between all iterations").  Dynamic: a collector
    that consumes interpreter hooks and records which edges are actual.
    Figure 2's accuracy = |static and actual| / |static|. *)

module Pos_set : Set.S with type elt = Ir.ipos

module Edge : sig
  type t = Ir.ipos * Ir.ipos
  val compare : t -> t -> int
end

module Edge_set : Set.S with type elt = Edge.t

val norm_edge : Ir.ipos -> Ir.ipos -> Edge.t

type mem_node = { mn_pos : Ir.ipos; mn_effect : Alias.effect_ }

type loop_deps = {
  ld_nodes : mem_node list;
  ld_edges : Edge_set.t;          (** loop-carried dependence edges *)
  ld_shared : Ir.mem_annot list;  (** annotations involved in them *)
}

val compute : Alias.tier -> Ir.program -> Ir.func -> Loops.loop -> loop_deps

val shared_classes :
  Alias.tier -> Ir.mem_annot list -> Ir.mem_annot list list
(** Alias classes of the shared annotations: HCCv3 builds one sequential
    segment per class. *)

(** Dynamic ground truth for one loop, driven from interpreter hooks. *)
module Dynamic : sig
  type t

  val create : unit -> t

  val begin_iteration : t -> unit
  val new_invocation : t -> unit
  (** Conflicts across invocations are not loop-carried: resets address
      state. *)

  val finish : t -> unit
  val access : t -> Interp.access_kind -> pos:Ir.ipos -> int -> unit
  val actual_edges : t -> Edge_set.t
end

val accuracy : static_edges:Edge_set.t -> actual:Edge_set.t -> float
