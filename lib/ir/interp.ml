(* Reference interpreter.

   Executes a program sequentially against a [Memory.t].  It defines the
   golden semantics every parallel execution must reproduce, and it doubles
   as the profiling engine: instrumentation hooks expose every memory
   access, block entry, and retired instruction, which the dependence
   ground truth, the loop profiler (HCCv3's ring-cache profiler), and the
   figure-4 statistics are built from.

   [Wait]/[Signal]/[Flush] are no-ops here: sequential execution trivially
   satisfies every synchronization constraint. *)

exception Out_of_fuel
exception Runtime_error of string

type access_kind = Read | Write

type hooks = {
  on_mem :
    (fname:string -> pos:Ir.ipos -> access_kind -> int -> int -> unit) option;
        (* fname pos kind address value *)
  on_block : (fname:string -> Ir.label -> unit) option;
  on_instr : (fname:string -> Ir.ipos -> Ir.instr -> unit) option;
}

let no_hooks = { on_mem = None; on_block = None; on_instr = None }

type stats = {
  mutable dyn_instrs : int;
  mutable dyn_loads : int;
  mutable dyn_stores : int;
  mutable dyn_branches : int;
  mutable dyn_calls : int;
}

type result = { ret : int option; stats : stats; mem_hash : int }

type state = {
  prog : Ir.program;
  mem : Memory.t;
  hooks : hooks;
  fuel : int;
  stats : stats;
  mutable rand_seed : int;
}

let eval_binop op a b =
  match op with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Div -> if b = 0 then 0 else a / b
  | Ir.Rem -> if b = 0 then 0 else a mod b
  | Ir.And -> a land b
  | Ir.Or -> a lor b
  | Ir.Xor -> a lxor b
  | Ir.Shl -> a lsl (b land 63)
  | Ir.Shr -> a asr (b land 63)
  | Ir.Eq -> if a = b then 1 else 0
  | Ir.Ne -> if a <> b then 1 else 0
  | Ir.Lt -> if a < b then 1 else 0
  | Ir.Le -> if a <= b then 1 else 0
  | Ir.Gt -> if a > b then 1 else 0
  | Ir.Ge -> if a >= b then 1 else 0
  | Ir.Min -> Int.min a b
  | Ir.Max -> Int.max a b

let eval_unop op a = match op with Ir.Neg -> -a | Ir.Not -> lnot a

let ilog2 n =
  if n <= 1 then 0
  else
    let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
    go n 0

let isqrt n =
  if n <= 0 then 0
  else
    let rec go x =
      let y = (x + (n / x)) / 2 in
      if y >= x then x else go y
    in
    go n

let mix_hash x =
  let x = x * 0x9e3779b97f4a7c1 in
  let x = x lxor (x lsr 29) in
  let x = x * 0xbf58476d1ce4e5b in
  (x lxor (x lsr 32)) land max_int

(* Deterministic LCG: the "private seed word" of the C library's rand. *)
let lib_rand st =
  st.rand_seed <- ((st.rand_seed * 2862933555777941757) + 3037000493)
                  land max_int;
  (st.rand_seed lsr 16) land 0x3fffffff

let eval_libcall st ~fname ~pos lc (args : int list) =
  let arg i = try List.nth args i with _ -> 0 in
  let record kind a v =
    match st.hooks.on_mem with
    | Some f -> f ~fname ~pos kind a v
    | None -> ()
  in
  match lc with
  | Ir.Lc_abs -> abs (arg 0)
  | Ir.Lc_min -> Int.min (arg 0) (arg 1)
  | Ir.Lc_max -> Int.max (arg 0) (arg 1)
  | Ir.Lc_hash -> mix_hash (arg 0)
  | Ir.Lc_log2 -> ilog2 (arg 0)
  | Ir.Lc_isqrt -> isqrt (arg 0)
  | Ir.Lc_rand -> lib_rand st
  | Ir.Lc_strcmp ->
      (* strcmp (a, b, len): bounded word-wise comparison *)
      let a = arg 0 and b = arg 1 and len = Int.min (arg 2) 64 in
      let rec go i =
        if i >= len then 0
        else
          let va = Memory.load st.mem (a + i)
          and vb = Memory.load st.mem (b + i) in
          record Read (a + i) va;
          record Read (b + i) vb;
          if va <> vb then compare va vb else go (i + 1)
      in
      go 0
  | Ir.Lc_memchr ->
      (* memchr (base, needle, len): first index holding needle, or -1 *)
      let base = arg 0 and needle = arg 1 and len = Int.min (arg 2) 256 in
      let rec go i =
        if i >= len then -1
        else
          let v = Memory.load st.mem (base + i) in
          record Read (base + i) v;
          if v = needle then i else go (i + 1)
      in
      go 0

(* Execute one function call frame; returns the optional return value. *)
let rec exec_func st (f : Ir.func) (args : int list) : int option =
  let regs = Array.make (Int.max 1 f.Ir.f_next_reg) 0 in
  (try
     List.iter2 (fun p a -> regs.(p) <- a) f.Ir.f_params args
   with Invalid_argument _ ->
     raise (Runtime_error (Printf.sprintf "%s: arity mismatch" f.Ir.f_name)));
  let value = function Ir.Reg r -> regs.(r) | Ir.Imm i -> i in
  let addr_of (a : Ir.addr) = value a.Ir.base + value a.Ir.offset in
  let fname = f.Ir.f_name in
  let record kind ~pos a v =
    match st.hooks.on_mem with
    | Some h -> h ~fname ~pos kind a v
    | None -> ()
  in
  let rec run_block l : int option =
    (match st.hooks.on_block with Some h -> h ~fname l | None -> ());
    let b = Ir.block_of_func f l in
    let rec run_instrs idx = function
      | [] -> run_term b.Ir.b_term
      | ins :: rest ->
          st.stats.dyn_instrs <- st.stats.dyn_instrs + 1;
          if st.stats.dyn_instrs > st.fuel then raise Out_of_fuel;
          let pos = { Ir.ip_block = l; Ir.ip_index = idx } in
          (match st.hooks.on_instr with
          | Some h -> h ~fname pos ins
          | None -> ());
          (match ins with
          | Ir.Binop (r, op, a, b') -> regs.(r) <- eval_binop op (value a) (value b')
          | Ir.Unop (r, op, a) -> regs.(r) <- eval_unop op (value a)
          | Ir.Mov (r, a) -> regs.(r) <- value a
          | Ir.Load (r, ad) ->
              st.stats.dyn_loads <- st.stats.dyn_loads + 1;
              let a = addr_of ad in
              let v = Memory.load st.mem a in
              record Read ~pos a v;
              regs.(r) <- v
          | Ir.Store (ad, v) ->
              st.stats.dyn_stores <- st.stats.dyn_stores + 1;
              let a = addr_of ad in
              let v = value v in
              record Write ~pos a v;
              Memory.store st.mem a v
          | Ir.Call (dst, callee, cargs) ->
              st.stats.dyn_calls <- st.stats.dyn_calls + 1;
              let cf = Ir.find_func st.prog callee in
              let rv = exec_func st cf (List.map value cargs) in
              (match (dst, rv) with
              | Some r, Some v -> regs.(r) <- v
              | Some r, None -> regs.(r) <- 0
              | None, _ -> ())
          | Ir.Libcall (r, lc, cargs) ->
              regs.(r) <- eval_libcall st ~fname ~pos lc (List.map value cargs)
          | Ir.Wait _ | Ir.Signal _ | Ir.Flush | Ir.Nop -> ());
          run_instrs (idx + 1) rest
    and run_term = function
      | Ir.Jmp l' -> run_block l'
      | Ir.Br (c, l1, l2) ->
          st.stats.dyn_branches <- st.stats.dyn_branches + 1;
          if value c <> 0 then run_block l1 else run_block l2
      | Ir.Ret o -> Option.map value o
    in
    run_instrs 0 b.Ir.b_instrs
  in
  run_block f.Ir.f_entry

let fresh_stats () =
  { dyn_instrs = 0; dyn_loads = 0; dyn_stores = 0; dyn_branches = 0;
    dyn_calls = 0 }

let run ?(hooks = no_hooks) ?(fuel = 200_000_000) ?(args = [])
    (prog : Ir.program) (mem : Memory.t) : result =
  let st =
    { prog; mem; hooks; fuel; stats = fresh_stats (); rand_seed = 0x12345 }
  in
  let ret = exec_func st (Ir.main_func prog) args in
  { ret; stats = st.stats; mem_hash = Memory.hash mem }

(* Run a single function against a fresh private register file.  The
   oracle calls this once per replayed iteration, so it must not do
   O(image) work such as hashing memory. *)
let run_func ?(hooks = no_hooks) ?(fuel = 200_000_000) ?(args = []) prog fname
    mem =
  let st =
    { prog; mem; hooks; fuel; stats = fresh_stats (); rand_seed = 0x12345 }
  in
  let f = Ir.find_func prog fname in
  let ret = exec_func st f args in
  (ret, st.stats)
