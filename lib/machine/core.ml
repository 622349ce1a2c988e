(* Core-model dispatcher: picks the in-order or out-of-order timing engine
   according to the configuration.  Every entry point takes all of its
   arguments, so a per-cycle call builds no partial application. *)

type t =
  | In_order of Core_inorder.t
  | Out_of_order of Core_ooo.t

let create ?retired_sink ~id (cfg : Mach_config.core_config)
    (supply : Core_model.supply) =
  match cfg.Mach_config.kind with
  | Mach_config.In_order ->
      In_order (Core_inorder.create ?retired_sink ~id cfg supply)
  | Mach_config.Out_of_order ->
      Out_of_order (Core_ooo.create ?retired_sink cfg supply)

let tick t cycle =
  match t with
  | In_order c -> Core_inorder.tick c cycle
  | Out_of_order c -> Core_ooo.tick c cycle

let next_event t ~now =
  match t with
  | In_order c -> Core_inorder.next_event c ~now
  | Out_of_order c -> Core_ooo.next_event c ~now

let skip t ~now ~cycles =
  match t with
  | In_order c -> Core_inorder.skip c ~now ~cycles
  | Out_of_order c -> Core_ooo.skip c ~now ~cycles

let quiescent = function
  | In_order c -> Core_inorder.quiescent c
  | Out_of_order c -> Core_ooo.quiescent c

let stats = function
  | In_order c -> Core_inorder.stats c
  | Out_of_order c -> Core_ooo.stats c

let describe = function
  | In_order c -> Core_inorder.describe c
  | Out_of_order c -> Core_ooo.describe c
