open Helix_ir
open Helix_analysis

(** Loop profiler: interpret the program on a training input and
    attribute retired instructions, invocations and iterations to every
    natural loop.  All HCC versions profile; HCCv3's cost model
    additionally assumes ring-cache latencies. *)

type loop_profile = {
  lpf_func : string;
  lpf_loop_id : int;
  lpf_header : Ir.label;
  mutable lpf_invocations : int;
  mutable lpf_iterations : int;
  mutable lpf_instrs : int;
}

type t = {
  total_instrs : int;
  loops : loop_profile list;
  train_ret : int option;
}

val instrs_per_iteration : loop_profile -> float

val run : Ir.program -> (string -> Loops.t) -> Memory.t -> t
val find : t -> func:string -> loop_id:int -> loop_profile option
