(** Array-backed circular FIFO queue with an int key beside every entry
    (an arrival or ready cycle, a hop stamp), growing by doubling.  The
    ring's replacement for [Stdlib.Queue]: push, pop and the head reads
    allocate nothing, and a keyed entry needs no tuple. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty queue.  [dummy] fills unused slots; it is never returned. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit
(** [push q key v] appends [(key, v)] at the tail. *)

val key : 'a t -> int
(** The head's key.  The queue must not be empty. *)

val peek : 'a t -> 'a
(** The head's value.  The queue must not be empty. *)

val pop : 'a t -> 'a
(** Remove the head and return its value.  The queue must not be
    empty. *)

val nth_key : 'a t -> int -> int
val nth : 'a t -> int -> 'a
(** Entry [j], counted from the head ([0 <= j < length q]). *)

val clear : 'a t -> unit

val swap_last_two : 'a t -> unit
(** Exchange the two newest entries, keys included; a no-op below two
    entries.  O(1). *)
