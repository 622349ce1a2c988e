open Helix_ir
open Helix_machine
open Helix_ring
open Helix_hcc

(** The HELIX-RC executor: a cycle-stepped simulation of a multicore
    running a compiled program.

    Serial phase: core 0 executes through its context; the others idle.
    At a selected parallel-loop header the executor suspends the serial
    context, spawns one worker per core (iterations round-robin over the
    logical ring) and runs the parallel phase; at the end the ring is
    flushed, sequential register state is reconstructed (closed-form
    IVs, reduction partials, stamped last-values, demoted cells) and the
    serial context resumes at the loop exit.

    Communication routing implements the paper's decoupling matrix
    (Figure 8): segment memory traffic goes to the ring or to the
    coherent conventional hierarchy per [comm_mode]; synchronization is
    either proactive ring broadcast or the lazy conventional scheme whose
    per-signal visibility latency produces the Figure-5b chains.  The
    three classes are independent: a run builds the ring exactly when
    [comm_mode] sends some class through it. *)

type comm_mode = {
  reg_via_ring : bool;   (** demoted-register cells through the ring *)
  mem_via_ring : bool;   (** program shared memory through the ring *)
  sync_via_ring : bool;  (** decoupled signals *)
}

val fully_decoupled : comm_mode
val fully_coupled : comm_mode

(** Robustness layer: differential oracle, dependence sanitizer and
    graceful sequential fallback.  All checks default off — they cost an
    undo journal of the words each invocation writes plus per-access
    sanitizer work. *)
type robustness = {
  check_oracle : bool;
      (** shadow-execute each parallel invocation sequentially via
          {!Oracle.replay} and compare trip count, live-out registers
          and the final memory image *)
  sanitize : bool;
      (** record worker memory accesses and flag cross-iteration
          conflicts not ordered by wait/signal ({!Depcheck}); also
          asserts the paper's ≤2 outstanding-signals bound at flush *)
  fallback : bool;
      (** on a violation or a parallel-phase deadlock, roll back to the
          loop-entry image, re-execute sequentially and continue *)
  strict : bool;  (** violations raise [Stuck (Violation, _)] instead *)
}

val no_robustness : robustness
val checked : robustness
(** Oracle + sanitizer + fallback on, strict off: the [--check] mode. *)

type config = {
  mach : Mach_config.t;
  ring_cfg : Ring.config;
      (** the ring's parameters and fault plan; unused (no ring is
          built, and the fault plan does nothing) when [comm] routes no
          class through the ring *)
  comm : comm_mode;
  setup_latency : int;            (** parallel-phase entry charge *)
  fuel : int;
  watchdog_cycles : int;
      (** cycles without any retirement before the run is declared
          [Stuck] (default 2M; tests lower it to force cheap wedges) *)
  trace : Helix_obs.Trace.t option;  (** event trace sink, off by default *)
  robust : robustness;
  engine : Helix_engine.Engine.kind;
      (** [Event] (the default) fast-forwards over provably dead cycle
          windows, found by asking every component for its next event
          after each tick round; its results are bit-identical to
          [Legacy], which ticks every cycle.  Overridable via
          [HELIX_ENGINE=legacy|event]. *)
}

val default_engine : Helix_engine.Engine.kind
(** [Event], unless the [HELIX_ENGINE] environment variable says
    otherwise. *)

val default_config :
  ?comm:comm_mode -> ?trace:Helix_obs.Trace.t -> ?robust:robustness ->
  ?engine:Helix_engine.Engine.kind -> Mach_config.t -> config
(** [comm] defaults to {!fully_decoupled}; [ring_cfg] is
    [Ring.default_config] for the machine's core count.  Pass
    {!fully_coupled} for the conventional machine. *)

type invocation_record = {
  inv_loop : int;
  inv_trip : int;
  inv_cycles : int;
}

type result = {
  r_cycles : int;
  r_ret : int option;
  r_mem : Memory.t;
  r_core_stats : Stats.t array;
  r_retired : int;
  r_invocations : invocation_record list;
  r_serial_cycles : int;
  r_parallel_cycles : int;
  r_ring_dist_hist : int array;       (** Figure 4b *)
  r_ring_consumers_hist : int array;  (** Figure 4c *)
  r_max_outstanding_signals : int;    (** must stay <= 2 *)
  r_ring_hit_rate : float;
  r_fallbacks : int;   (** invocations re-executed sequentially *)
  r_violations : int;  (** robustness checks tripped *)
  r_metrics : Helix_obs.Metrics.t;
      (** every counter of the run under stable names
          under the ring./core.<i>./cores./hier./exec. prefixes *)
}

(** Why a run died: [Fuel] is the cycle/trip budget, [Deadlock] the
    no-retirement watchdog, [Violation] a robustness check under
    [strict] (or one the fallback machinery could not recover from),
    [Faulted] an injected fail-stop the machine could neither reknit
    around (survivors taking over the dead core's iterations) nor roll
    back from — core 0 died, or a mid-invocation death found no
    fallback.  Names: ["fuel"], ["deadlock"], ["violation"],
    ["fault"]. *)
type stuck_reason = Fuel | Deadlock | Violation | Faulted

val stuck_reason_name : stuck_reason -> string

exception Stuck of stuck_reason * string
(** The string payload is a full report: loop/phase scheduling counters,
    dead cores (if any), every worker's context state and per-segment
    wait targets (signals expected vs received from each origin), and
    the complete ring snapshot (all nodes' signal buffers, lockstep
    acceptance vectors, per-class in-flight and fault-recovery counters,
    link occupancy). *)

val wait_satisfied :
  n:int -> alive:bool array -> owned:int list array -> core:int -> seg:int ->
  cycle:int -> local_iter:int ->
  ('e -> core:int -> seg:int -> cycle:int -> int -> int -> bool) -> 'e ->
  bool
(** The all-predecessor wait check of core [core]'s local iteration
    [local_iter] on segment [seg] at [cycle], on [n] lanes where
    [owned.(c)] lists the lanes live core [c] executes ([[c]] until a
    fail-stop reknit).  For each live origin [o <> core], in ascending
    order, it asks [ok env ~core ~seg ~cycle o threshold], where
    [threshold] is how many of [o]'s iterations precede this one, and
    stops at the first [false].  The visiting order is part of the
    contract: the ring's check marks thresholds consumed. *)

type wait_cursor
(** Where a core's last failed wait stopped: its epoch, key
    [(seg, local_iter)], global iteration, blocking origin and that
    origin's threshold. *)

val wait_cursor : unit -> wait_cursor
(** An empty cursor. *)

val wait_resume :
  wait_cursor -> epoch:int -> n:int -> alive:bool array ->
  owned:int list array -> core:int -> seg:int -> cycle:int ->
  local_iter:int ->
  ('e -> core:int -> seg:int -> cycle:int -> int -> int -> bool) -> 'e ->
  bool
(** {!wait_satisfied}, resumed at the blocking origin of the previous
    failed call with the same [(epoch, seg, local_iter)]: that origin is
    re-asked with its stored threshold, and once it passes the walk
    continues upward.  A failure stores the new blocking origin; a
    success empties the cursor.  Exact -- the same answers, and the same
    final source state -- for a source on which a satisfied origin stays
    satisfied and asking it again changes nothing, as long as the caller
    moves to a new [epoch] whenever the source resets or [alive]/[owned]
    change. *)

val run :
  ?compiled:Hcc.compiled -> config -> Ir.program -> Memory.t -> result
(** Simulate the program to completion on the given initial memory
    (mutated in place).  Without [compiled] there are no parallel
    triggers: the single-core sequential baseline. *)
