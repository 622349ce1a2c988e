(* Core intermediate representation for the HELIX-RC compiler family.

   The IR is a register machine over machine words (OCaml [int]s) with
   explicit basic blocks and a flat, word-addressed shared memory.  It is
   deliberately close to the low-level IR that HCCv3 operates on in the
   paper: every loop-carried communication is either a virtual register or
   a memory word, and the new [Wait]/[Signal] instructions extend the ISA
   exactly as described in Section 3.1 of the paper. *)

type reg = int
type label = int

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Min | Max

type unop = Neg | Not

type operand =
  | Reg of reg
  | Imm of int

(* Standard-library calls whose memory semantics the compiler knows.  The
   paper's dependence analysis tier (iv) exploits these semantics to prune
   apparent dependences (Figure 2). *)
type libcall =
  | Lc_abs            (* pure *)
  | Lc_min            (* pure *)
  | Lc_max            (* pure *)
  | Lc_hash           (* pure *)
  | Lc_log2           (* pure *)
  | Lc_isqrt          (* pure *)
  | Lc_rand           (* reads/writes only its private seed word *)
  | Lc_strcmp         (* reads both argument buffers, writes nothing *)
  | Lc_memchr         (* reads the argument buffer, writes nothing *)

(* Static annotation attached to every memory access; this is the
   information the alias-analysis tiers (Section 2.2, Figure 2) are able to
   recover.  Workload generators must keep annotations *sound*: accesses
   that can dynamically alias must never carry distinguishing annotations.

   - [site] is the allocation site (base tier: VLLPA-style allocation-site
     points-to sets).
   - [flow] distinguishes values a flow-sensitive analysis can separate
     within the same site; [-1] means "unknown at this tier".
   - [path] is the storeless access path (Deutsch-style naming).
   - [ty] is the static data type of the accessed object.
   - [affine] marks accesses whose address is an affine function of the
     enclosing loop's canonical induction variable, recording the offset
     relative to it.  A flow-sensitive analysis proves that two affine
     accesses to the same site with equal offsets touch a different
     address on every iteration, killing the false self-carried
     dependence; unequal offsets are a real carried dependence at their
     distance.  Generators must keep the field sound: within a site all
     affine accesses use the same canonical stride. *)
type mem_annot = {
  site : int;
  flow : int;
  path : string;
  ty : string;
  affine : int option;
}

type addr = {
  base : operand;
  offset : operand;
  annot : mem_annot;
}

type instr =
  | Binop of reg * binop * operand * operand
  | Unop of reg * unop * operand
  | Mov of reg * operand
  | Load of reg * addr
  | Store of addr * operand
  | Call of reg option * string * operand list
  | Libcall of reg * libcall * operand list
  | Wait of int      (* enter sequential segment [id] *)
  | Signal of int    (* leave sequential segment [id] *)
  | Flush            (* ring-cache flush fence at parallel-loop exit *)
  | Nop

type terminator =
  | Jmp of label
  | Br of operand * label * label  (* non-zero -> first target *)
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
  mutable f_order : label list;      (* layout order, entry first *)
  mutable f_next_reg : int;
  mutable f_next_label : int;
}

type program = {
  p_funcs : (string, func) Hashtbl.t;
  p_main : string;
}

(* ------------------------------------------------------------------ *)
(* Constructors and accessors                                          *)
(* ------------------------------------------------------------------ *)

let no_annot = { site = -1; flow = -1; path = ""; ty = ""; affine = None }

let annot ?(flow = -1) ?(path = "") ?(ty = "") ?affine site =
  { site; flow; path; ty; affine }

let mk_addr ?(offset = Imm 0) ?(an = no_annot) base =
  { base; offset; annot = an }

let block_of_func f l =
  match Hashtbl.find_opt f.f_blocks l with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Ir.block_of_func: no block %d in %s" l f.f_name)

let fresh_reg f =
  let r = f.f_next_reg in
  f.f_next_reg <- r + 1;
  r

let fresh_label f =
  let l = f.f_next_label in
  f.f_next_label <- l + 1;
  l

let add_block f b =
  if Hashtbl.mem f.f_blocks b.b_label then
    invalid_arg (Printf.sprintf "Ir.add_block: duplicate label %d" b.b_label);
  Hashtbl.replace f.f_blocks b.b_label b;
  f.f_order <- f.f_order @ [ b.b_label ]

let create_func ?(params = []) name entry =
  {
    f_name = name;
    f_params = params;
    f_entry = entry;
    f_blocks = Hashtbl.create 17;
    f_order = [];
    f_next_reg =
      (match params with [] -> 0 | ps -> 1 + List.fold_left max 0 ps);
    f_next_label = entry + 1;
  }

let create_program ?(main = "main") () =
  { p_funcs = Hashtbl.create 7; p_main = main }

let add_func p f = Hashtbl.replace p.p_funcs f.f_name f

let find_func p name =
  match Hashtbl.find_opt p.p_funcs name with
  | Some f -> f
  | None -> invalid_arg ("Ir.find_func: unknown function " ^ name)

let main_func p = find_func p p.p_main

(* ------------------------------------------------------------------ *)
(* Structural helpers                                                  *)
(* ------------------------------------------------------------------ *)

let successors = function
  | Jmp l -> [ l ]
  | Br (_, l1, l2) -> if l1 = l2 then [ l1 ] else [ l1; l2 ]
  | Ret _ -> []

let defs_of_instr = function
  | Binop (r, _, _, _) | Unop (r, _, _) | Mov (r, _) | Load (r, _)
  | Libcall (r, _, _) ->
      [ r ]
  | Call (Some r, _, _) -> [ r ]
  | Call (None, _, _) | Store _ | Wait _ | Signal _ | Flush | Nop -> []

let regs_of_operand = function Reg r -> [ r ] | Imm _ -> []

let regs_of_addr a = regs_of_operand a.base @ regs_of_operand a.offset

let uses_of_instr = function
  | Binop (_, _, a, b) -> regs_of_operand a @ regs_of_operand b
  | Unop (_, _, a) | Mov (_, a) -> regs_of_operand a
  | Load (_, ad) -> regs_of_addr ad
  | Store (ad, v) -> regs_of_addr ad @ regs_of_operand v
  | Call (_, _, args) | Libcall (_, _, args) ->
      List.concat_map regs_of_operand args
  | Wait _ | Signal _ | Flush | Nop -> []

let uses_of_term = function
  | Jmp _ -> []
  | Br (c, _, _) -> regs_of_operand c
  | Ret (Some o) -> regs_of_operand o
  | Ret None -> []

let is_sync = function Wait _ | Signal _ -> true | _ -> false

let libcall_name = function
  | Lc_abs -> "abs"
  | Lc_min -> "min"
  | Lc_max -> "max"
  | Lc_hash -> "hash"
  | Lc_log2 -> "log2"
  | Lc_isqrt -> "isqrt"
  | Lc_rand -> "rand"
  | Lc_strcmp -> "strcmp"
  | Lc_memchr -> "memchr"

(* Memory effect summary of a library call, used by the libcall-semantics
   tier of the dependence analysis.  [Lib_pure] calls touch no user-visible
   memory; [Lib_reads] calls only read their argument buffers. *)
type lib_effect = Lib_pure | Lib_reads | Lib_private_state

let libcall_effect = function
  | Lc_abs | Lc_min | Lc_max | Lc_hash | Lc_log2 | Lc_isqrt -> Lib_pure
  | Lc_rand -> Lib_private_state
  | Lc_strcmp | Lc_memchr -> Lib_reads

(* Unique position of an instruction inside a function: block label and
   index within the block.  Analyses use this as a stable instruction id. *)
type ipos = { ip_block : label; ip_index : int }

let iter_instrs f k =
  List.iter
    (fun l ->
      let b = block_of_func f l in
      List.iteri (fun i ins -> k { ip_block = l; ip_index = i } ins) b.b_instrs)
    f.f_order

let instr_at f pos =
  let b = block_of_func f pos.ip_block in
  List.nth b.b_instrs pos.ip_index

let fold_instrs f acc k =
  let acc = ref acc in
  iter_instrs f (fun pos ins -> acc := k !acc pos ins);
  !acc
