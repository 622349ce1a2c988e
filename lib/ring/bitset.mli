(** Fixed-size mutable set of ints in [\[0, n)], one bit per member: the
    ring's busy sets of nodes, wires and links.  Only [create]
    allocates. *)

type t

val create : int -> t
(** The empty set over [\[0, n)]. *)

val add : t -> int -> unit
val remove : t -> int -> unit
val clear : t -> unit

val next : t -> int -> int
(** [next s i] is the smallest member [>= i], or [-1] if there is none.
    Iterating with [next s (i + 1)] visits members in ascending order and
    sees every change made to members above [i] meanwhile. *)
