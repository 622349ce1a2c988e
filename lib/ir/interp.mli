(** Reference interpreter: the golden sequential semantics every parallel
    execution must reproduce, and the measurement engine behind the
    profiler, the dynamic dependence ground truth and the Figure-4
    statistics.  [Wait]/[Signal]/[Flush] are no-ops here. *)

exception Out_of_fuel
exception Runtime_error of string

type access_kind = Read | Write

(** Instrumentation hooks.  [on_mem] fires for every load/store (and for
    the bounded reads of [strcmp]/[memchr]); [on_block] at every block
    entry; [on_instr] per retired instruction. *)
type hooks = {
  on_mem :
    (fname:string -> pos:Ir.ipos -> access_kind -> int -> int -> unit) option;
  on_block : (fname:string -> Ir.label -> unit) option;
  on_instr : (fname:string -> Ir.ipos -> Ir.instr -> unit) option;
}

val no_hooks : hooks

type stats = {
  mutable dyn_instrs : int;
  mutable dyn_loads : int;
  mutable dyn_stores : int;
  mutable dyn_branches : int;
  mutable dyn_calls : int;
}

type result = { ret : int option; stats : stats; mem_hash : int }

val eval_binop : Ir.binop -> int -> int -> int
(** Word arithmetic shared with the runtime contexts (division by zero
    yields 0; shifts mask their amount). *)

val eval_unop : Ir.unop -> int -> int

val ilog2 : int -> int
val isqrt : int -> int
val mix_hash : int -> int

val run :
  ?hooks:hooks -> ?fuel:int -> ?args:int list -> Ir.program -> Memory.t ->
  result
(** Execute [main] against the given memory (mutated in place).
    @raise Out_of_fuel when more than [fuel] instructions retire. *)

val run_func :
  ?hooks:hooks -> ?fuel:int -> ?args:int list -> Ir.program -> string ->
  Memory.t -> int option * stats
(** Execute a single named function; returns its return value and the
    dynamic counts.  Unlike [run] it does not hash memory, so a call
    costs only the instructions it retires. *)
