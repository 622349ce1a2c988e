(** Conventional-mode signal log.

    Without a ring, a signal is a store to a shared cell that waiters see
    only a cache-to-cache round trip later (paper §3.2), so a wait needs
    the store cycle of the threshold-th signal from each origin.  The log
    keeps every (segment, origin) pair's store cycles oldest first in a
    growable int array, so that lookup is one array read however many
    signals came before it. *)

type t

val create : origins:int -> t
(** An empty log for origins [0 .. origins - 1]. *)

val record : t -> seg:int -> origin:int -> cycle:int -> unit
(** Append a signal stored at [cycle].  Cycles must be recorded in
    nondecreasing order per pair. *)

val count : t -> seg:int -> origin:int -> int
(** Signals recorded for the pair since the last {!reset}. *)

val nth : t -> seg:int -> origin:int -> int -> int
(** [nth t ~seg ~origin k] is the store cycle of the [k]-th oldest
    signal (1-based); [Invalid_argument] unless [1 <= k <= count]. *)

val reset : t -> unit
(** Forget every signal (a new invocation, or a fallback), keeping the
    arrays' capacity. *)
