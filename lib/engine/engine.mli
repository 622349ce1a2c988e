(** Shared simulation kernel.

    The engine owns the simulated clock and drives a fixed, ordered set
    of {!component}s.  In [Legacy] mode it reproduces a strict
    cycle-stepped loop: every component is ticked on every cycle.  In
    [Event] mode it additionally asks each component, after every tick
    round, for the earliest future cycle at which that component could
    change architectural state on its own ({!component.cp_next_event});
    when every component agrees that nothing can happen before some
    cycle [w > now], the engine fast-forwards the clock to [w] in one
    step, giving each component the chance to account for the skipped
    cycles ({!component.cp_skip}: stall-bucket charging, phase counters,
    watchdog bookkeeping).

    The contract that makes [Event] bit-identical to [Legacy] is: if
    every registered component returns [w_i] (or {!never}) with
    [min w_i > now], then ticking every component at each cycle of
    [now .. min w_i - 1] is a no-op except for per-cycle statistics
    charging -- which [cp_skip] must perform in closed form. *)

type kind = Legacy | Event

val all : kind list
(** Every kind this build defines, in a stable order. *)

val kind_of_string : string -> kind option
val kind_to_string : kind -> string

val never : int
(** [max_int]: the {!component.cp_next_event} answer of a purely
    reactive component. *)

type component = {
  cp_name : string;
  cp_tick : cycle:int -> unit;
      (** Advance the component's state by one cycle.  Components are
          ticked in registration order, once per engine step. *)
  cp_next_event : now:int -> int;
      (** Called after a full tick round, with [now] = the cycle about
          to be simulated.  [c] (with [c >= now]) promises that the
          component cannot change state before cycle [c]; [now] means
          "active, do not skip".  {!never} means the component is
          purely reactive: it only changes state in response to other
          components and never wakes up by itself.  An int rather than
          an option, so the per-round probe allocates nothing. *)
  cp_skip : now:int -> cycles:int -> unit;
      (** The engine skipped [cycles] cycles starting at [now] (i.e. the
          window [now .. now + cycles - 1] was never ticked).  Charge
          whatever per-cycle accounting the skipped ticks would have
          performed. *)
}

(** Convenience for purely passive components (e.g. the memory
    hierarchy, whose latencies are charged at access time). *)
val passive : string -> component

type t

val create : kind:kind -> clock:int ref -> unit -> t
(** The engine shares [clock] with its owner; [Engine.step] is the only
    writer while the engine runs. *)

val register : t -> component -> unit
(** Append a component; it is ticked after every earlier one. *)

val step : t -> unit
(** Tick every component at the current clock value, advance the clock
    by one, then (in [Event] mode) fast-forward over any provably dead
    window. *)

val kind : t -> kind

val steps : t -> int
(** Tick rounds actually executed. *)

val fast_forwards : t -> int
(** Number of clock jumps taken. *)

val skipped_cycles : t -> int
(** Total cycles elided by jumps. *)
