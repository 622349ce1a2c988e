open Helix_ir

(* Predictable-variable classification (paper Section 2.2, Figure 3).

   For every register carried across loop iterations we decide whether the
   cross-iteration communication can be removed because the value is
   predictable, falling into one of the paper's four categories:

   (i)   induction variables with polynomial update of degree <= 2;
   (ii)  accumulative, maximum and minimum variables (reductions);
   (iii) variables set but not used until after the loop;
   (iv)  variables set in every iteration (the previous value is dead).

   Anything else genuinely needs core-to-core register communication; the
   HCC compilers turn those registers into shared memory locations. *)

type category =
  | Induction       (* (i) *)
  | Reduction       (* (ii) *)
  | Dead_in_loop    (* (iii) set, not used until after the loop *)
  | Set_every_iter  (* (iv) redefined on every path before any use *)
  | Unpredictable   (* must be communicated *)

type classified = {
  c_reg : Ir.reg;
  c_category : category;
  c_iv : Induction.iv option; (* for Induction/Reduction *)
}

let category_name = function
  | Induction -> "induction"
  | Reduction -> "reduction"
  | Dead_in_loop -> "dead-in-loop"
  | Set_every_iter -> "set-every-iteration"
  | Unpredictable -> "unpredictable"

(* Registers carried around the back edge of [lp]: defined inside the loop
   and live at the loop header (so a use in some iteration may observe a
   def from a previous one). *)
let carried_regs (f : Ir.func) (live : Liveness.t) (lp : Loops.loop) =
  let defined = Loops.defined_regs f lp in
  Loops.Label_set.elements defined
  |> List.filter (fun r ->
         Dataflow.Int_set.mem r (live.Liveness.live_in lp.Loops.l_header))

(* Does the definition of [r] in block [bdef] dominate all latches, with
   every in-loop use of [r] appearing after the def (i.e. the def is
   unconditional and upstream of uses)?  That is the "set in every
   iteration before any use" test, approximated via dominance. *)
let set_every_iteration (_f : Ir.func) (dom : Dominance.t) (du : Defuse.t)
    (lp : Loops.loop) r =
  let in_loop pos = Loops.contains lp pos.Ir.ip_block in
  match List.filter in_loop (Defuse.defs_of du r) with
  | [] -> false
  | defs ->
      let def_blocks = List.map (fun p -> p.Ir.ip_block) defs in
      (* some def dominates every latch: the register is written on every
         iteration *)
      let dominating =
        List.filter
          (fun db ->
            List.for_all (fun latch -> Dominance.dominates dom db latch)
              lp.Loops.l_latches)
          def_blocks
      in
      (match dominating with
      | [] -> false
      | db :: _ ->
          (* every in-loop use must be dominated by the def block, so no
             use can observe the previous iteration's value *)
          let uses = List.filter in_loop (Defuse.uses_of du r) in
          let term_uses =
            Defuse.term_uses_of du r |> List.filter (Loops.contains lp)
          in
          List.for_all
            (fun u ->
              Dominance.dominates dom db u.Ir.ip_block
              && (u.Ir.ip_block <> db
                 || (* same block: def index must precede use index *)
                 List.exists
                   (fun d ->
                     d.Ir.ip_block = db && d.Ir.ip_index < u.Ir.ip_index)
                   defs))
            uses
          && List.for_all (fun l -> Dominance.dominates dom db l) term_uses)

let classify ?(poly2 = true) ?(recognize_reductions = true)
    ?(recognize_dead = true) ?(recognize_set_every = true) (f : Ir.func)
    (cfg : Cfg.t) (lp : Loops.loop) : classified list =
  let du = Defuse.compute f in
  let live = Liveness.compute cfg in
  let dom = Dominance.compute cfg in
  let ivs = Induction.analyze ~poly2 f du lp in
  let carried = carried_regs f live lp in
  (* a reduction is only valid when the accumulator's sole in-loop reader
     is its own update (otherwise intermediate values are observed and the
     dependence must be communicated) *)
  let valid_reduction r =
    match Induction.update_sites f du lp r with
    | None -> false
    | Some us ->
        let in_loop pos = Loops.contains lp pos.Ir.ip_block in
        List.filter in_loop (Defuse.uses_of du r)
        |> List.for_all (fun u -> u = us.Induction.us_binop)
        && not
             (Defuse.term_uses_of du r |> List.exists (Loops.contains lp))
  in
  List.map
    (fun r ->
      match Induction.find ivs r with
      | Some iv when Induction.recomputable iv ->
          { c_reg = r; c_category = Induction; c_iv = Some iv }
      | Some iv
        when recognize_reductions && Induction.reducible iv
             && valid_reduction r ->
          { c_reg = r; c_category = Reduction; c_iv = Some iv }
      | _ ->
          let in_loop_uses =
            List.filter
              (fun p -> Loops.contains lp p.Ir.ip_block)
              (Defuse.uses_of du r)
          and in_loop_term_uses =
            Defuse.term_uses_of du r |> List.filter (Loops.contains lp)
          in
          if recognize_dead && in_loop_uses = [] && in_loop_term_uses = []
          then { c_reg = r; c_category = Dead_in_loop; c_iv = None }
          else if recognize_set_every && set_every_iteration f dom du lp r
          then { c_reg = r; c_category = Set_every_iter; c_iv = None }
          else { c_reg = r; c_category = Unpredictable; c_iv = None })
    carried
