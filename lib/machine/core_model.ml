(* Common interface between core timing models and the runtime.

   The runtime hands each core a [supply]:
   - [sup_next] pops the next uop on the committed path, or [None] when
     the core has no work (loop finished, or the next iteration is not
     assigned yet);
   - [sup_mem] charges a private (non-segment) memory access against the
     core's L1 path and returns its latency;
   - [sup_shared] performs a shared-world operation *at this cycle*
     (ring-cache or coherent access, wait/signal, flush) and either
     completes it with a latency or asks the core to retry next cycle;
   - [sup_settled] may only be consulted right after [sup_next] returned
     [None]: [true] asserts that further [sup_next] calls are pure and
     will keep returning [None] until some *other* component (scheduler,
     ring, another core) changes shared state — the event engine uses it
     to prove a core idle without waiting out the conservative
     two-fruitless-pulls rule. *)

type supply = {
  sup_next : unit -> Uop.t option;
  sup_mem : cycle:int -> write:bool -> addr:int -> int;
  sup_shared : cycle:int -> tag:int -> Uop.shared_op -> Uop.shared_outcome;
      (* [tag] is the uop's [Uop.meta]: the iteration the operation
         belongs to *)
  sup_settled : unit -> bool;
}
