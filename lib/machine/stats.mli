(** Per-core cycle accounting: every simulated cycle lands in exactly one
    bucket, following the overhead taxonomy of Figure 12. *)

type bucket =
  | Busy
  | Sync_instr
  | Dep_wait
  | Communication
  | Mem_stall
  | Pipeline
  | Idle

val all_buckets : bucket list
val bucket_name : bucket -> string

val bucket_index : bucket -> int
(** Dense index of a bucket in [0, 7): its slot in [by_bucket]. *)

type t = {
  mutable cycles : int;
  mutable retired : int;
  mutable retired_sync : int;
  mutable shared_loads : int;
  mutable shared_stores : int;
  by_bucket : int array;  (** cycles per {!bucket_index} *)
  retired_sink : int ref;
}

val create : ?retired_sink:int ref -> unit -> t
(** [retired_sink] (default: a private ref) is a shared monotonic
    counter bumped by every {!retire}; the executor threads one ref
    through all cores so its watchdog can observe aggregate retirement
    progress in O(1) instead of folding over every core each cycle. *)

val charge : t -> bucket -> unit

val charge_n : t -> bucket -> int -> unit
(** [charge_n t b n] records [n] cycles in bucket [b] — exactly what [n]
    consecutive [charge t b] calls would.  Used when the event engine
    fast-forwards over a stall window. *)

val retire : t -> unit
(** Count one retired uop, in both [t.retired] and the shared sink. *)

val get : t -> bucket -> int
val merge : t list -> t
val fraction : t -> bucket -> float

val export_metrics : prefix:string -> t -> Helix_obs.Metrics.t -> unit
(** Publish cycles, retirement counters, IPC and the per-bucket counts
    and fractions under [prefix ^ "."] — the same fractions [pp]
    prints. *)

val pp : Format.formatter -> t -> unit
