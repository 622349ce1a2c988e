(** Conventional-mode signal log.

    Without a ring, a signal is a store to a shared cell that waiters see
    only a fixed visibility latency later: a serialized request and
    transmission, each one cache-to-cache transfer (paper §3.2).  So a
    wait needs the store cycle of the threshold-th signal from each
    origin.  The log keeps every (segment, origin) pair's store cycles
    oldest first in a growable int array, so that lookup is one array
    read however many signals came before it. *)

type t

val create : origins:int -> latency:int -> t
(** An empty log for origins [0 .. origins - 1] whose signals become
    visible [latency] cycles after they are stored. *)

val record : t -> seg:int -> origin:int -> cycle:int -> unit
(** Append a signal stored at [cycle].  Cycles must be recorded in
    nondecreasing order per pair, and across pairs for
    {!next_visible}. *)

val count : t -> seg:int -> origin:int -> int
(** Signals recorded for the pair since the last {!reset}. *)

val nth : t -> seg:int -> origin:int -> int -> int
(** [nth t ~seg ~origin k] is the store cycle of the [k]-th oldest
    signal (1-based); [Invalid_argument] unless [1 <= k <= count]. *)

val visible : t -> seg:int -> origin:int -> cycle:int -> int -> bool
(** [visible t ~seg ~origin ~cycle k]: is the pair's [k]-th signal
    visible at [cycle]?  Always true for [k <= 0]. *)

val next_visible : t -> now:int -> int
(** The earliest cycle [>= now] at which a recorded signal becomes
    visible, or [max_int] if none is pending.  Forgets the visibility
    cycles before [now], so [now] must not decrease between resets. *)

val reset : t -> unit
(** Forget every signal (a new invocation, or a fallback), keeping the
    arrays' capacity. *)
