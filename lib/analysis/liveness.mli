open Helix_ir

(** Register liveness as a backward dataflow problem. *)

module Int_set = Dataflow.Int_set

type t = {
  live_in : Ir.label -> Int_set.t;
  live_out : Ir.label -> Int_set.t;
}

val block_gen_kill : Ir.func -> Ir.label -> Int_set.t * Int_set.t
(** Forward scan: gen = upward-exposed uses, kill = defined registers. *)

val compute : Cfg.t -> t

