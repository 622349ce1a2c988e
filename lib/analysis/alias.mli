open Helix_ir

(** Tiered may-alias analysis, reproducing the precision ladder of
    Figure 2: VLLPA-style allocation-site points-to, extended with flow
    sensitivity, path-based naming, data-type incompatibility and
    standard-library call semantics.  A tier answers [may_alias a b];
    [false] is a proof of independence. *)

type tier = {
  name : string;
  flow_sensitive : bool;
  path_based : bool;
  type_based : bool;
  libcall_sem : bool;
}

val vllpa : tier
val vllpa_flow : tier
val vllpa_path : tier
val vllpa_type : tier
val vllpa_lib : tier

val ladder : tier list
(** The five tiers in presentation order, least precise first. *)

val best : tier
(** The most precise tier ([vllpa_lib]): what HCCv2/v3 use. *)

val may_alias : tier -> Ir.mem_annot -> Ir.mem_annot -> bool
(** Same-iteration aliasing. *)

val may_alias_carried : tier -> Ir.mem_annot -> Ir.mem_annot -> bool
(** Cross-iteration aliasing: a flow-sensitive tier additionally proves
    that two affine accesses to the same site with equal offsets touch a
    different address on every iteration. *)

val leq : tier -> tier -> bool
(** [leq t1 t2]: every independence [t1] proves, [t2] proves too. *)

(** Abstract memory effect of an instruction. *)
type effect_ = {
  e_reads : Ir.mem_annot list;
  e_writes : Ir.mem_annot list;
  e_opaque : bool;  (** may touch anything (unknown call) *)
}

val no_effect : effect_

val effect_of_instr :
  tier -> ?lib_annots:Ir.mem_annot list -> Ir.instr -> effect_
(** Pure math intrinsics are transparent at every tier; memory-touching
    library calls are opaque below the "+lib calls" tier. *)

val effects_conflict_carried : tier -> effect_ -> effect_ -> bool
