open Helix_ir
open Helix_machine

(** Per-core functional execution engine: executes IR eagerly (registers
    and private memory are core-local, so early evaluation is safe) and
    yields one timed uop per retired instruction through a pull
    interface.  Shared-world semantics cannot run early: a load inside a
    sequential segment blocks the context until the core model fires its
    sink at the timed issue point.  Segment membership is decided exactly
    as in the paper's hardware: by counting executed wait and signal
    instructions. *)

type parallel_trigger = { p_func : string; p_header : Ir.label }

type status =
  | Running
  | Blocked                       (** awaiting a shared load's sink *)
  | Suspended of parallel_trigger (** serial core at a parallel header *)
  | Finished of int option

(** {2 Decoded code} *)

type code
(** A program decoded for the timed walker: each function becomes (on its
    first call) an array of blocks whose instructions carry their
    register tokens for every frame depth; ALU-class instructions and
    branches carry their finished uops, which every dynamic instance
    shares.  Build one per run and share it between the serial context
    and every worker. *)

val code : ?trigger:(string -> Ir.label -> bool) -> Ir.program -> code
(** [trigger f l] marks block [l] of function [f] as a parallel-loop
    header: a [~serial:true] context suspends on entering it.  Default:
    no block is a header. *)

val stride : code -> int
(** At least every function's [f_next_reg]: the spacing of token depth
    planes. *)

val token : code -> int -> Ir.reg -> int
(** [token code depth r] = [(depth land 3) * stride code + r]: distinct
    for distinct [(depth mod 4, r)] pairs, and below [4 * stride code].
    @raise Invalid_argument unless [0 <= r < min (stride code) 65536]. *)

(** {2 Contexts} *)

type t

val create : ?serial:bool -> code -> Memory.t -> core_id:int -> t
(** [serial] (default [false]): the context suspends when it enters a
    block the code's trigger marks (the serial core reached a selected
    parallel-loop header). *)

val start : t -> string -> int list -> unit
(** Begin executing [fname args]; discards any previous call. *)

type body
(** A function of the code, resolved once for repeated starts. *)

val body : code -> string -> body

val start_body : t -> body -> int array -> unit
(** [start] with the function already resolved and the arguments in an
    array (read, not kept).  When the previous start of the same body has
    returned, its frame is reset and reused instead of allocated. *)

val status : t -> status
val wait_depth : t -> int

val set_mem_hook :
  t -> (seg:int option -> addr:int -> write:bool -> unit) option -> unit
(** Dependence-sanitizer tap: called for every IR-level [Load]/[Store]
    with the innermost open segment (or [None] outside any wait..signal
    window).  Libcall-internal reads (strcmp/memchr) are not reported —
    they are private-world accesses by construction. *)

val reg_value : t -> Ir.reg -> int
(** Current frame's register, e.g. to evaluate parallel-loop parameters
    at loop entry. *)

val set_reg : t -> Ir.reg -> int -> unit
val operand_value : t -> Ir.operand -> int

val jump_to : t -> Ir.label -> unit
(** Resume the current frame at [block] (the executor finishing a
    parallel loop sends the serial core to the loop exit). *)

val next_uop : t -> Uop.t option
(** Pull the next uop, advancing as needed; [None] when blocked,
    suspended or finished. *)
