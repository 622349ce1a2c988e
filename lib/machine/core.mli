(** Core-model dispatcher: the in-order or out-of-order timing engine,
    chosen by configuration. *)

type t

val create :
  ?retired_sink:int ref ->
  id:int ->
  Mach_config.core_config ->
  Core_model.supply ->
  t
(** [id] is the core's index in its machine (what [HELIX_TRACE_CORE]
    selects).  [retired_sink] is shared with {!Stats.create}: a monotonic
    counter bumped on every retirement, letting the executor watchdog
    observe aggregate progress without folding over all cores each
    cycle. *)

val tick : t -> int -> unit
(** Advance the core one clock cycle. *)

val next_event : t -> now:int -> int
(** Event-engine contract: [c] (c >= now) promises the core cannot
    change architectural state before cycle [c] without an external
    event; [now] means active; [max_int] ([Engine.never]) means purely
    reactive (blocked on the shared world). *)

val skip : t -> now:int -> cycles:int -> unit
(** Charge the cycle-accounting the elided ticks of a fast-forwarded
    window would have performed (the stall bucket is constant across an
    event-free window). *)

val quiescent : t -> bool
(** Nothing in flight and the supply currently yields no work. *)

val stats : t -> Stats.t
val describe : t -> string
