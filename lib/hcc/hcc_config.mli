open Helix_analysis

(** Compiler versions as feature tiers (Sections 2.1 and 4): HCCv1 (the
    original HELIX), HCCv2 (better analyses and transformations, still
    conventional-hardware targeted) and HCCv3 (the HELIX-RC co-designed
    compiler). *)

type version = V1 | V2 | V3

type t = {
  version : version;
  tier : Alias.tier;             (** dependence-analysis precision *)
  poly2 : bool;                  (** degree-2 induction variables *)
  recognize_reductions : bool;
  recognize_dead : bool;
  recognize_set_every : bool;
  max_segments : int;            (** shared classes merged down to this *)
  diamond_placement : bool;      (** tight wait/signal in conditionals *)
  eliminate_waits : bool;        (** signal-only on non-accessing paths *)
  profile_loop_selection : bool; (** v3's ring-cache-aware cost model *)
  target_cores : int;
  sync_latency : int;            (** cost-model synchronization latency *)
}

val v1 : ?target_cores:int -> unit -> t
val v2 : ?target_cores:int -> unit -> t
val v3 : ?target_cores:int -> unit -> t

