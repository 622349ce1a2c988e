(** Set-associative cache timing model with LRU replacement.  Tracks tags
    only: data lives in the functional memory; the model answers hit or
    miss plus dirty evictions.  Accesses allocate nothing. *)

type t

type outcome =
  | Hit
  | Miss        (** the victim way was invalid or clean *)
  | Miss_dirty  (** the victim was dirty: {!evicted_line} needs write-back *)

val create : Mach_config.cache_config -> t
val access : t -> write:bool -> int -> outcome

val evicted_line : t -> int
(** Line address of the victim of the most recent [Miss_dirty]. *)

val contains : t -> int -> bool
val invalidate : t -> int -> unit
val flush_all : t -> unit
val hit_rate : t -> float

val hits : t -> int
val misses : t -> int
val evictions : t -> int
(** Valid lines replaced on a miss, clean or dirty. *)
