(** Flat, word-addressed memory shared by the reference interpreter and
    the cycle-stepped simulator.  Uninitialized words read as zero; a
    store of zero erases the binding, so two memories with the same
    observable contents are [equal]. *)

type t

val create : unit -> t
val load : t -> int -> int
val store : t -> int -> int -> unit
val copy : t -> t
(** A fresh memory with the same contents and no open journal. *)

(** {2 Undo journal}

    While a journal is open, the first [store] to an address records the
    value it held when the journal opened.  Rolling back or walking the
    journal costs O(distinct addresses stored), not O(image size): the
    executor's checkpoint for fallback and for the oracle's shadow. *)

val open_journal : t -> unit
(** Start an empty journal at the current image (replacing any open one). *)

val close_journal : t -> unit
(** Stop recording; the image is left as it is. *)

val rollback : t -> unit
(** Restore every journaled address to its value when the journal opened
    (erasing bindings that were absent) and empty the journal, which stays
    open at the restored image.
    @raise Invalid_argument when no journal is open. *)

val iter_journal : t -> (int -> int -> unit) -> unit
(** [iter_journal m f] calls [f addr old] for every address stored since
    the journal opened, [old] being its value then.  No-op when closed. *)

val hash : t -> int
(** Content hash, independent of insertion order: the oracle that a
    parallel execution reproduced the sequential memory image. *)

val equal : t -> t -> bool

(** Static layout of named regions: the ground truth for allocation
    sites, and the address map workload generators build against. *)
module Layout : sig
  type region = { name : string; site : int; base : int; size : int }
  type t

  val create : unit -> t

  val alloc : t -> string -> int -> region
  (** [alloc t name size] reserves [size] words.  Regions are padded so
      distinct sites never share a simulated cache line. *)

  val find : t -> string -> region
  val region_of_addr : t -> int -> region option
  val site_of_addr : t -> int -> int
  val regions : t -> region list
end
