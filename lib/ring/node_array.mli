(** Per-node cache array: set-associative, LRU, one-word lines by default
    (Section 5.1 — no false sharing; a configurable line size exists for
    the ablation that demonstrates why one word is a correctness
    requirement).  An unbounded variant backs the "unlimited resources"
    configurations.  Any int is an address, negative ones included. *)

type t

val create : ?line_words:int -> size_words:int -> assoc:int -> unit -> t
(** [size_words = max_int] selects the unbounded variant. *)

val lookup : t -> int -> bool
(** Is the word cached?  Counts a hit or a miss.  Allocates nothing. *)

val last_hit : t -> int
(** The value the last hitting {!lookup} read. *)

val insert : t -> int -> int -> unit
(** Write a word, allocating its line (LRU victim) on a miss.  The bounded
    variant allocates nothing. *)

val invalidate : t -> int -> unit
val clear : t -> unit
val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Valid lines displaced by {!insert} (always 0 when unbounded). *)

val hit_rate : t -> float
