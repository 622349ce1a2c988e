(** Core intermediate representation for the HELIX-RC compiler family.

    A register machine over machine words with explicit basic blocks and a
    flat, word-addressed shared memory.  The [Wait]/[Signal] instructions
    are the paper's ISA extension (Section 3.1): they delimit sequential
    segments, and a core derives "am I inside a segment?" by counting
    them. *)

type reg = int
(** Virtual register id, dense per function. *)

type label = int
(** Basic-block label, dense per function. *)

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Min | Max

type unop = Neg | Not

type operand = Reg of reg | Imm of int

(** Standard-library calls whose memory semantics the compiler knows; the
    "+lib calls" analysis tier (Figure 2) exploits them. *)
type libcall =
  | Lc_abs | Lc_min | Lc_max | Lc_hash | Lc_log2 | Lc_isqrt
  | Lc_rand | Lc_strcmp | Lc_memchr

(** Static annotation on a memory access: exactly the information each
    alias-analysis tier can recover.  [site] is the allocation site;
    [flow] a flow-sensitive value id ([-1] unknown); [path] the storeless
    access path; [ty] the static type; [affine] marks accesses whose
    address is an affine function of the enclosing loop's induction
    variable, with the recorded offset.  Generators must keep annotations
    sound: accesses that can dynamically alias never carry distinguishing
    annotations. *)
type mem_annot = {
  site : int;
  flow : int;
  path : string;
  ty : string;
  affine : int option;
}

type addr = { base : operand; offset : operand; annot : mem_annot }

type instr =
  | Binop of reg * binop * operand * operand
  | Unop of reg * unop * operand
  | Mov of reg * operand
  | Load of reg * addr
  | Store of addr * operand
  | Call of reg option * string * operand list
  | Libcall of reg * libcall * operand list
  | Wait of int      (** enter sequential segment [id] *)
  | Signal of int    (** leave sequential segment [id] *)
  | Flush            (** ring-cache flush fence *)
  | Nop

type terminator =
  | Jmp of label
  | Br of operand * label * label  (** non-zero takes the first target *)
  | Ret of operand option

type block = {
  b_label : label;
  mutable b_instrs : instr list;
  mutable b_term : terminator;
}

type func = {
  f_name : string;
  f_params : reg list;
  f_entry : label;
  f_blocks : (label, block) Hashtbl.t;
  mutable f_order : label list;
  mutable f_next_reg : int;
  mutable f_next_label : int;
}

type program = { p_funcs : (string, func) Hashtbl.t; p_main : string }

(** {1 Construction} *)

val no_annot : mem_annot
(** The fully-unknown annotation: aliases everything at every tier. *)

val annot :
  ?flow:int -> ?path:string -> ?ty:string -> ?affine:int -> int -> mem_annot
(** [annot site] builds an annotation for [site] with optional precision
    facets. *)

val mk_addr : ?offset:operand -> ?an:mem_annot -> operand -> addr

val create_func : ?params:reg list -> string -> label -> func
(** [create_func name entry] makes an empty function whose entry block
    must be added by the caller. *)

val create_program : ?main:string -> unit -> program
val add_func : program -> func -> unit
val add_block : func -> block -> unit
val fresh_reg : func -> reg
val fresh_label : func -> label

(** {1 Access} *)

val find_func : program -> string -> func
val main_func : program -> func
val block_of_func : func -> label -> block
val successors : terminator -> label list

(** {1 Structural queries} *)

val defs_of_instr : instr -> reg list
val uses_of_instr : instr -> reg list
val uses_of_term : terminator -> reg list
val regs_of_operand : operand -> reg list
val regs_of_addr : addr -> reg list
val is_sync : instr -> bool

val libcall_name : libcall -> string

(** Memory-effect class of a library call. *)
type lib_effect = Lib_pure | Lib_reads | Lib_private_state

val libcall_effect : libcall -> lib_effect

(** Stable instruction position: block label and index within it. *)
type ipos = { ip_block : label; ip_index : int }

val iter_instrs : func -> (ipos -> instr -> unit) -> unit
val instr_at : func -> ipos -> instr
val fold_instrs : func -> 'a -> ('a -> ipos -> instr -> 'a) -> 'a
