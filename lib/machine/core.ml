(* Core-model dispatcher: picks the in-order or out-of-order timing engine
   according to the configuration. *)

type t =
  | In_order of Core_inorder.t
  | Out_of_order of Core_ooo.t

let create ?retired_sink (cfg : Mach_config.core_config)
    (supply : Core_model.supply) =
  match cfg.Mach_config.kind with
  | Mach_config.In_order -> In_order (Core_inorder.create ?retired_sink cfg supply)
  | Mach_config.Out_of_order ->
      Out_of_order (Core_ooo.create ?retired_sink cfg supply)

let tick = function
  | In_order c -> Core_inorder.tick c
  | Out_of_order c -> Core_ooo.tick c

let next_event = function
  | In_order c -> Core_inorder.next_event c
  | Out_of_order c -> Core_ooo.next_event c

let skip = function
  | In_order c -> Core_inorder.skip c
  | Out_of_order c -> Core_ooo.skip c

let quiescent = function
  | In_order c -> Core_inorder.quiescent c
  | Out_of_order c -> Core_ooo.quiescent c

let stats = function
  | In_order c -> Core_inorder.stats c
  | Out_of_order c -> Core_ooo.stats c

let describe = function
  | In_order c -> Core_inorder.describe c
  | Out_of_order c -> Core_ooo.describe c
