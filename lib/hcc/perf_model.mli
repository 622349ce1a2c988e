(** Loop-selection cost models: the classic DOACROSS steady-state bound
    under either the conventional (HCCv1/v2) or the decoupled (HCCv3)
    synchronization cost. *)

type estimate = {
  e_speedup : float;
  e_benefit : float;      (** estimated cycles saved program-wide *)
  e_seq_portion : float;  (** fraction of an iteration inside segments *)
}

type loop_facts = {
  lf_iter_instrs : float;
  lf_iterations : float;
  lf_invocations : float;
  lf_segments : int;
  lf_segment_instrs : float;
  lf_body_static : int;
  lf_loop_wide : bool;
}

val estimate :
  n_cores:int -> sync_latency:int -> decoupled:bool -> loop_facts -> estimate

val facts_of_profile :
  Profiler.loop_profile -> Parallel_loop.t -> loop_facts

val facts_static : depth:int -> Parallel_loop.t -> loop_facts
(** Fallback when no profile is available. *)
