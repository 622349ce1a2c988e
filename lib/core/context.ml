open Helix_ir
open Helix_machine

(* Per-core functional execution engine.

   A context executes IR eagerly -- registers and private memory are
   core-local, so early evaluation is safe -- and exposes a pull interface
   ([next_uop]) that yields one timed uop per retired instruction.  The
   timing model consumes uops at simulated speed; because the interface is
   pull-based, eager execution never runs ahead of the core model by more
   than its decode capacity.

   Shared-world semantics cannot run early: a load inside a sequential
   segment gets its value at its timed issue point, so the context blocks
   ([Blocked]) until the core model fires the uop's sink.  Stores and
   signals carry their payload in the uop and let execution continue.

   Whether an access is shared is decided exactly as in the paper's
   hardware (Section 3.1): the context counts executed wait and signal
   instructions; memory operations at positive depth go to the shared
   world.

   Contexts walk decoded code, not raw IR: each function is decoded once
   per [code] value (on its first call) into block arrays whose
   instructions carry their register tokens for every frame depth.  An
   instruction whose uop is static -- ALU-class instructions and both
   outcomes of a branch -- carries the finished uop, one per depth, and
   every dynamic instance shares it: nothing reads such a uop's [meta],
   which only tags shared operations.  Loads, stores and shared
   operations build a fresh uop.  The per-instruction path does no
   hashing and no list walking.  The golden [Interp] keeps walking raw
   IR, so the oracle stays independent of this walker. *)

(* Minimal view of a parallel-loop trigger; the executor keeps the full
   metadata keyed by (function, header). *)
type parallel_trigger = { p_func : string; p_header : Ir.label }

type status =
  | Running
  | Blocked                      (* waiting for a shared load's sink *)
  | Suspended of parallel_trigger (* serial core reached a parallel header *)
  | Finished of int option

(* ---- decoded code ---- *)

type dinstr = {
  d_ins : Ir.instr;
  d_srcs : int list array;       (* source tokens, by frame depth land 3 *)
  d_dst : int option array;      (* destination token, by depth land 3 *)
  d_uop : Uop.t option array;    (* ALU-class: the shared uop, by depth *)
  d_args : Ir.operand array;     (* call and libcall arguments *)
  mutable d_callee : dfunc option;  (* [Call]: resolved on first execution *)
}

and dblock = {
  d_instrs : dinstr array;
  d_term : Ir.terminator;
  d_branch : Uop.t option array;
      (* [Br]: the shared uop at [2 * (depth land 3) + taken], with the
         predictor's static_id baked in *)
  d_header : bool;               (* the code's trigger fires on entry *)
}

and dfunc = { d_func : Ir.func; d_blocks : dblock option array (* by label *) }

type code = {
  c_prog : Ir.program;
  c_stride : int;                (* >= every function's [f_next_reg] *)
  c_trigger : string -> Ir.label -> bool;
  c_funcs : (string, dfunc) Hashtbl.t;
}

(* Register tokens name a (frame depth mod 4, register) pair for the
   core's dependence tracking: [(depth land 3) * stride + r], injective
   because every register is below [stride], and dense in
   [0, 4 * stride) so the cores can keep ready times in arrays. *)
let max_reg = 0xffff

let token code depth r =
  if r < 0 || r > max_reg || r >= code.c_stride then
    invalid_arg
      (Printf.sprintf "Context.token: register r%d outside [0, %d)" r
         (Int.min (max_reg + 1) code.c_stride));
  ((depth land 3) * code.c_stride) + r

let stride code = code.c_stride

let code ?(trigger = fun _ _ -> false) prog =
  {
    c_prog = prog;
    c_stride =
      Hashtbl.fold (fun _ f acc -> Int.max acc f.Ir.f_next_reg) prog.Ir.p_funcs 1;
    c_trigger = trigger;
    c_funcs = Hashtbl.create 16;
  }

let by_depth code regs = Array.init 4 (fun d -> List.map (token code d) regs)

let lib_latency = function
  | Ir.Lc_abs | Ir.Lc_min | Ir.Lc_max -> 1
  | Ir.Lc_hash | Ir.Lc_log2 -> 3
  | Ir.Lc_isqrt -> 12
  | Ir.Lc_rand -> 4
  | Ir.Lc_strcmp | Ir.Lc_memchr -> 6

let[@inline] uop kind srcs dst = { Uop.kind; srcs; dst; sink = None; meta = 0 }

let decode_instr code (ins : Ir.instr) =
  let dst =
    match ins with
    | Ir.Binop (r, _, _, _) | Ir.Unop (r, _, _) | Ir.Mov (r, _)
    | Ir.Load (r, _) | Ir.Libcall (r, _, _) ->
        Some r
    | _ -> None
  in
  (* wait/signal/flush and nop carry no sources *)
  let srcs =
    match ins with
    | Ir.Wait _ | Ir.Signal _ | Ir.Flush | Ir.Nop -> []
    | _ -> Ir.uses_of_instr ins
  in
  (* every core type: ALU 1, Mul 3, Div/Rem 20 cycles *)
  let alu =
    match ins with
    | Ir.Binop (_, (Ir.Div | Ir.Rem), _, _) -> Some 20
    | Ir.Binop (_, Ir.Mul, _, _) -> Some 3
    | Ir.Binop _ | Ir.Unop _ | Ir.Mov _ | Ir.Nop -> Some 1
    | Ir.Call _ -> Some 2  (* call/return overhead as a short ALU op *)
    | Ir.Libcall (_, lc, _) -> Some (lib_latency lc)
    | Ir.Load _ | Ir.Store _ | Ir.Wait _ | Ir.Signal _ | Ir.Flush -> None
  in
  let d_srcs = by_depth code srcs in
  let d_dst = Array.init 4 (fun d -> Option.map (token code d) dst) in
  {
    d_ins = ins;
    d_srcs;
    d_dst;
    d_uop =
      Array.init 4 (fun d ->
          Option.map (fun lat -> uop (Uop.Alu lat) d_srcs.(d) d_dst.(d)) alu);
    d_args =
      (match ins with
      | Ir.Call (_, _, a) | Ir.Libcall (_, _, a) -> Array.of_list a
      | _ -> [||]);
    d_callee = None;
  }

let decode_block code (f : Ir.func) label (b : Ir.block) =
  (* the branch predictor's static id: keep this exact value *)
  let static_id = Hashtbl.hash (f.Ir.f_name, label) in
  let srcs =
    by_depth code
      (match b.Ir.b_term with
      | Ir.Br (c, _, _) -> Ir.regs_of_operand c
      | Ir.Jmp _ | Ir.Ret _ -> [])
  in
  {
    d_instrs = Array.of_list (List.map (decode_instr code) b.Ir.b_instrs);
    d_term = b.Ir.b_term;
    d_branch =
      Array.init 8 (fun i ->
          Some
            (uop
               (Uop.Branch { taken = i land 1 = 1; static_id })
               srcs.(i lsr 1) None));
    d_header = code.c_trigger f.Ir.f_name label;
  }

let func code name =
  match Hashtbl.find_opt code.c_funcs name with
  | Some df -> df
  | None ->
      let f = Ir.find_func code.c_prog name in
      let n = Hashtbl.fold (fun l _ acc -> Int.max acc (l + 1)) f.Ir.f_blocks 0 in
      let blocks = Array.make n None in
      Hashtbl.iter
        (fun l b -> if l >= 0 then blocks.(l) <- Some (decode_block code f l b))
        f.Ir.f_blocks;
      let df = { d_func = f; d_blocks = blocks } in
      Hashtbl.replace code.c_funcs name df;
      df

let block_at df l =
  match if l >= 0 && l < Array.length df.d_blocks then df.d_blocks.(l) else None with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Ir.block_of_func: no block %d in %s" l
           df.d_func.Ir.f_name)

(* ---- contexts ---- *)

type frame = {
  fn : dfunc;
  regs : int array;
  mutable block : Ir.label;
  mutable cur : dblock;          (* decoded [block] *)
  mutable index : int;           (* next instruction within the block *)
  mutable entered : bool;        (* block-entry hook already fired *)
  dst_in_caller : Ir.reg option; (* where the caller wants our result *)
}

type t = {
  code : code;
  mem : Memory.t;
  core_id : int;
  serial : bool;                 (* suspends at the code's trigger blocks *)
  mutable frames : frame list;   (* innermost first *)
  mutable depth : int;           (* [List.length frames] *)
  mutable last_start : frame list;
      (* the one-frame stack the last [start] built, kept so the next
         start of the same function reuses its registers *)
  mutable status : status;
  mutable wait_depth : int;
  mutable seg_stack : int list;  (* open segments, innermost first *)
  mutable rand_seed : int;
  (* dependence-sanitizer tap: observes every IR-level memory access with
     the segment (if any) it executes under.  Accesses internal to
     libcalls (strcmp/memchr) are not reported -- they are private-world
     reads by construction. *)
  mutable on_mem : (seg:int option -> addr:int -> write:bool -> unit) option;
}

let create ?(serial = false) code mem ~core_id =
  {
    code;
    mem;
    core_id;
    serial;
    frames = [];
    depth = 0;
    last_start = [];
    status = Finished None;
    wait_depth = 0;
    seg_stack = [];
    rand_seed = 0x12345;
    on_mem = None;
  }

let[@inline] value regs = function Ir.Imm i -> i | Ir.Reg r -> regs.(r)

let goto fr l =
  fr.block <- l;
  fr.cur <- block_at fr.fn l;
  fr.index <- 0

(* Bind [args.(i..)] to the parameters [ps] in order; parameters beyond
   the arguments keep their value (zero in a fresh frame). *)
let rec bind_params regs (args : int array) i = function
  | p :: ps when i < Array.length args ->
      regs.(p) <- args.(i);
      bind_params regs args (i + 1) ps
  | _ -> ()

(* A frame entering [df] with [args] bound to its parameters in order;
   parameters beyond the arguments start at zero. *)
let new_frame df dst_in_caller (args : int array) =
  let f = df.d_func in
  let regs = Array.make (Int.max 1 f.Ir.f_next_reg) 0 in
  bind_params regs args 0 f.Ir.f_params;
  {
    fn = df;
    regs;
    block = f.Ir.f_entry;
    cur = block_at df f.Ir.f_entry;
    index = 0;
    entered = false;
    dst_in_caller;
  }

type body = dfunc

let body = func

(* Start executing [df args]; any previous call is discarded.  Once the
   previous start of the same function has returned, its frame is reset
   to exactly what [new_frame] would build (registers zeroed, parameters
   bound, entry block) and reused, so a worker's per-iteration start
   allocates nothing. *)
let start_body t df args =
  (match (t.frames, t.last_start) with
  | [], ([ fr ] as stack) when fr.fn == df ->
      Array.fill fr.regs 0 (Array.length fr.regs) 0;
      bind_params fr.regs args 0 df.d_func.Ir.f_params;
      goto fr df.d_func.Ir.f_entry;
      fr.entered <- false;
      t.frames <- stack
  | _ ->
      let stack = [ new_frame df None args ] in
      t.last_start <- stack;
      t.frames <- stack);
  t.depth <- 1;
  t.status <- Running;
  t.wait_depth <- 0;
  t.seg_stack <- []

let start t fname args = start_body t (func t.code fname) (Array.of_list args)

let set_mem_hook t hook = t.on_mem <- hook

(* Innermost open segment, [None] outside any wait..signal window. *)
let current_segment t =
  match t.seg_stack with s :: _ -> Some s | [] -> None

let observe_mem t ~addr ~write =
  match t.on_mem with
  | None -> ()
  | Some f -> f ~seg:(current_segment t) ~addr ~write

let status t = t.status
let wait_depth t = t.wait_depth

let current_frame t =
  match t.frames with
  | f :: _ -> f
  | [] -> invalid_arg "Context: no frame"

(* Read a register of the outermost (serial) frame, e.g. to evaluate
   parallel-loop parameters at loop entry. *)
let reg_value t r = (current_frame t).regs.(r)

let set_reg t r v = (current_frame t).regs.(r) <- v

let operand_value t (o : Ir.operand) = value (current_frame t).regs o

(* Force the current frame to resume at [block] (used when the executor
   finishes a parallel loop and the serial core continues at its exit). *)
let jump_to t block =
  let fr = current_frame t in
  goto fr block;
  fr.entered <- true;
  (* a suspended serial context becomes runnable again *)
  (match t.status with Suspended _ -> t.status <- Running | _ -> ());
  t.wait_depth <- 0;
  t.seg_stack <- []

let arg regs args i = if i < Array.length args then value regs args.(i) else 0

let lib_eval t regs lc args =
  match lc with
  | Ir.Lc_abs -> abs (arg regs args 0)
  | Ir.Lc_min -> Int.min (arg regs args 0) (arg regs args 1)
  | Ir.Lc_max -> Int.max (arg regs args 0) (arg regs args 1)
  | Ir.Lc_hash -> Interp.mix_hash (arg regs args 0)
  | Ir.Lc_log2 -> Interp.ilog2 (arg regs args 0)
  | Ir.Lc_isqrt -> Interp.isqrt (arg regs args 0)
  | Ir.Lc_rand ->
      t.rand_seed <-
        ((t.rand_seed * 2862933555777941757) + 3037000493) land max_int;
      (t.rand_seed lsr 16) land 0x3fffffff
  | Ir.Lc_strcmp ->
      let a = arg regs args 0 and b = arg regs args 1
      and len = Int.min (arg regs args 2) 64 in
      let rec go i =
        if i >= len then 0
        else
          let va = Memory.load t.mem (a + i)
          and vb = Memory.load t.mem (b + i) in
          if va <> vb then compare va vb else go (i + 1)
      in
      go 0
  | Ir.Lc_memchr ->
      let base = arg regs args 0 and needle = arg regs args 1
      and len = Int.min (arg regs args 2) 256 in
      let rec go i =
        if i >= len then -1
        else if Memory.load t.mem (base + i) = needle then i
        else go (i + 1)
      in
      go 0

(* Execute one instruction of the current block. *)
let exec_instr t fr d k =
  let regs = fr.regs in
  let srcs = Array.unsafe_get d.d_srcs k in
  let dst = Array.unsafe_get d.d_dst k in
  match d.d_ins with
  | Ir.Binop (r, op, a, b) ->
      regs.(r) <- Interp.eval_binop op (value regs a) (value regs b);
      Array.unsafe_get d.d_uop k
  | Ir.Unop (r, op, a) ->
      regs.(r) <- Interp.eval_unop op (value regs a);
      Array.unsafe_get d.d_uop k
  | Ir.Mov (r, a) ->
      regs.(r) <- value regs a;
      Array.unsafe_get d.d_uop k
  | Ir.Load (r, ad) ->
      let a = value regs ad.Ir.base + value regs ad.Ir.offset in
      observe_mem t ~addr:a ~write:false;
      if t.wait_depth > 0 then begin
        (* shared load: value arrives via the sink *)
        t.status <- Blocked;
        let sink v =
          regs.(r) <- v;
          t.status <- Running
        in
        Some
          {
            Uop.kind = Uop.Shared (Uop.S_load a);
            srcs;
            dst;
            sink = Some sink;
            meta = 0;
          }
      end
      else begin
        regs.(r) <- Memory.load t.mem a;
        Some (uop (Uop.Load_priv a) srcs dst)
      end
  | Ir.Store (ad, v) ->
      let a = value regs ad.Ir.base + value regs ad.Ir.offset in
      let v = value regs v in
      observe_mem t ~addr:a ~write:true;
      if t.wait_depth > 0 then
        Some (uop (Uop.Shared (Uop.S_store (a, v))) srcs None)
      else begin
        Memory.store t.mem a v;
        Some (uop (Uop.Store_priv a) srcs None)
      end
  | Ir.Call (dst_reg, name, _) ->
      let df =
        match d.d_callee with
        | Some df -> df
        | None ->
            let df = func t.code name in
            d.d_callee <- Some df;
            df
      in
      let args = Array.map (value regs) d.d_args in
      t.frames <- new_frame df dst_reg args :: t.frames;
      t.depth <- t.depth + 1;
      Array.unsafe_get d.d_uop k
  | Ir.Libcall (r, lc, _) ->
      regs.(r) <- lib_eval t regs lc d.d_args;
      Array.unsafe_get d.d_uop k
  | Ir.Wait seg ->
      t.wait_depth <- t.wait_depth + 1;
      t.seg_stack <- seg :: t.seg_stack;
      Some (uop (Uop.Shared (Uop.S_wait seg)) [] None)
  | Ir.Signal seg ->
      t.wait_depth <- Int.max 0 (t.wait_depth - 1);
      (* close the matching segment; tolerate unbalanced (mis-compiled)
         code by popping the head instead *)
      (t.seg_stack <-
         (let rec remove = function
            | [] -> []
            | s :: rest when s = seg -> rest
            | s :: rest -> s :: remove rest
          in
          if List.mem seg t.seg_stack then remove t.seg_stack
          else match t.seg_stack with _ :: r -> r | [] -> []));
      Some (uop (Uop.Shared (Uop.S_signal seg)) [] None)
  | Ir.Flush -> Some (uop (Uop.Shared Uop.S_flush) [] None)
  | Ir.Nop -> Array.unsafe_get d.d_uop k

(* Execute the current block's terminator. *)
let exec_term t fr outer_frames k =
  let b = fr.cur in
  match b.d_term with
  | Ir.Jmp l ->
      goto fr l;
      fr.entered <- false;
      None
  | Ir.Br (c, l1, l2) ->
      let taken = value fr.regs c <> 0 in
      goto fr (if taken then l1 else l2);
      fr.entered <- false;
      Array.unsafe_get b.d_branch ((2 * k) + Bool.to_int taken)
  | Ir.Ret o ->
      let rv = match o with Some op -> Some (value fr.regs op) | None -> None in
      t.frames <- outer_frames;
      t.depth <- t.depth - 1;
      (match (outer_frames, fr.dst_in_caller) with
      | caller :: _, Some d ->
          caller.regs.(d) <- (match rv with Some v -> v | None -> 0)
      | _ -> ());
      (match outer_frames with [] -> t.status <- Finished rv | _ :: _ -> ());
      None

(* Execute at most one instruction; return the uop it produced, if any.
   [None] with status Running means "made progress without a timed uop"
   (e.g. an unconditional jump): the caller loops. *)
let step (t : t) : Uop.t option =
  match t.status with
  | Blocked | Finished _ | Suspended _ -> None
  | Running -> (
      match t.frames with
      | [] ->
          t.status <- Finished None;
          None
      | fr :: outer_frames ->
          (* block-entry hook: parallel-loop trigger on the serial core *)
          if (not fr.entered) && fr.index = 0 then begin
            fr.entered <- true;
            if t.serial && fr.cur.d_header then
              t.status <-
                Suspended
                  { p_func = fr.fn.d_func.Ir.f_name; p_header = fr.block }
          end;
          match t.status with
          | Suspended _ -> None
          | _ ->
              let k = t.depth land 3 in
              let instrs = fr.cur.d_instrs in
              if fr.index < Array.length instrs then begin
                let d = Array.unsafe_get instrs fr.index in
                fr.index <- fr.index + 1;
                exec_instr t fr d k
              end
              else exec_term t fr outer_frames k)

(* Pull the next uop, advancing the context as needed. *)
let rec next_uop t =
  match t.status with
  | Blocked | Finished _ | Suspended _ -> None
  | Running -> (
      match step t with
      | Some _ as u -> u
      | None -> (
          match t.status with Running -> next_uop t | _ -> None))
