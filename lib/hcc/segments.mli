open Helix_ir
open Helix_analysis

(** Sequential-segment construction: number the shared-data classes and,
    under a conservative splitting policy, merge them ("different
    sequential segments always access different shared data", so distinct
    segments may run concurrently; HCCv1/v2 merge everything). *)

type t = {
  seg_id : int;
  seg_annots : Ir.mem_annot list;
  seg_positions : Ir.ipos list;
}

val mem_positions :
  Alias.tier -> Depend.loop_deps -> Ir.mem_annot list -> Ir.ipos list

val build :
  max_segments:int -> opaque:bool ->
  (Ir.mem_annot list * Ir.ipos list) list -> t list
(** [opaque] (an unknown call in the loop) forces a single segment. *)

val mean_size : t list -> float
