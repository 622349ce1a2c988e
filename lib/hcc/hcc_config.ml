open Helix_analysis

(* Compiler versions as feature tiers (paper Sections 2.1 and 4).

   HCCv1: the original HELIX compiler -- allocation-site alias analysis,
   linear induction variables only, conservative segment construction,
   analytical loop-selection model tuned for conventional hardware.

   HCCv2: engineering improvements -- the full alias-precision ladder,
   polynomial (degree-2) induction variables, reductions, privatization
   (scalar expansion/renaming), still a single merged sequential segment
   per loop and conventional-hardware loop selection.

   HCCv3: the HELIX-RC co-designed compiler -- everything in HCCv2 plus
   aggressive splitting of sequential segments (one per shared-data alias
   class), wait elimination enabled by decoupled signals, and a
   ring-cache-aware profiler for loop selection. *)

type version = V1 | V2 | V3

type t = {
  version : version;
  tier : Alias.tier;                (* dependence-analysis precision *)
  poly2 : bool;                     (* degree-2 induction variables *)
  recognize_reductions : bool;
  recognize_dead : bool;            (* set-but-unused-until-after-loop *)
  recognize_set_every : bool;       (* set-in-every-iteration *)
  max_segments : int;               (* merge shared classes down to this *)
  diamond_placement : bool;         (* tight wait/signal in conditionals *)
  eliminate_waits : bool;           (* signal-only on non-accessing paths *)
  profile_loop_selection : bool;    (* v3 ring-cache profiler *)
  target_cores : int;
  (* loop-selection cost model: expected core-to-core synchronization
     latency of the target machine *)
  sync_latency : int;
}

let v1 ?(target_cores = 16) () =
  {
    version = V1;
    tier = Alias.vllpa;
    poly2 = false;
    recognize_reductions = false;
    recognize_dead = false;
    recognize_set_every = false;
    max_segments = 1;
    diamond_placement = false;
    eliminate_waits = false;
    profile_loop_selection = false;
    target_cores;
    (* Figure 1's conventional target: optimistic 10-cycle c2c; one
       synchronization costs about three transfers (signal visibility,
       data request, data reply) *)
    sync_latency = 30;
  }

let v2 ?(target_cores = 16) () =
  {
    (v1 ~target_cores ()) with
    version = V2;
    tier = Alias.vllpa_lib;
    poly2 = true;
    recognize_reductions = true;
    recognize_dead = true;
    recognize_set_every = true;
    diamond_placement = true;
  }

let v3 ?(target_cores = 16) () =
  {
    (v2 ~target_cores ()) with
    version = V3;
    max_segments = max_int;
    eliminate_waits = true;
    profile_loop_selection = true;
    sync_latency = 10; (* ring-cache latency assumption *)
  }
