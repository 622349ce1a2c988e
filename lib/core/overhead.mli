(** Overhead taxonomy (Figure 12): attribute every core-cycle of a
    parallel run that does not contribute to ideal speedup. *)

type t = {
  ov_additional_instrs : float;
  ov_wait_signal : float;
  ov_memory : float;
  ov_iteration_imbalance : float;
  ov_low_trip_count : float;
  ov_communication : float;
  ov_dependence_waiting : float;
}

val categories : t -> (string * float) list

val analyze : n_cores:int -> seq_retired:int -> Executor.result -> t
(** Fractions of total core-cycles.  Idle cycles split between low trip
    count (invocations with fewer iterations than core slots) and
    imbalance; serial-phase idling folds into imbalance. *)

