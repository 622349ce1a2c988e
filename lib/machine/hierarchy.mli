(** The conventional memory hierarchy: per-core L1s, shared banked L2,
    DRAM, and a directory charging cache-to-cache latency when a core
    touches a line last written by another core (the paper's optimistic
    10-cycle coherence abstraction). *)

type t

val create : Mach_config.t -> t

val access :
  t -> core:int -> cycle:int -> write:bool -> coherent:bool -> int -> int
(** Latency of a word access through core-local L1.  [coherent] charges
    directory cost for remotely-dirty lines (shared data on the
    conventional machine); private accesses never pay it. *)

val owner_l1_access : t -> core:int -> cycle:int -> write:bool -> int -> int
(** The ring cache's owner node reaching the L1 level on a ring miss or
    eviction. *)

val l1_hit_rate : t -> int -> float
val c2c_transfers : t -> int

val export_metrics : t -> Helix_obs.Metrics.t -> unit
(** Publish directory/L2 counters and per-core L1 hit rates under
    ["hier."]. *)
