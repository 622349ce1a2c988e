open Helix_analysis

(** Loop selection: choose a nesting antichain of compiled candidate
    loops maximizing estimated benefit, keeping only candidates whose
    predicted speedup clears the threshold. *)

type candidate = {
  cd_loop : Parallel_loop.t;
  cd_depth : int;
  cd_profile : Profiler.loop_profile option;
  cd_estimate : Perf_model.estimate;
}

val threshold : float
(** Minimum predicted speedup for selection. *)

val choose : candidate list -> (string -> Loops.t) -> candidate list

val coverage : candidate list -> Profiler.t -> float
(** Dynamic instruction coverage of the selected set (Table 1). *)
