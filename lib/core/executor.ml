open Helix_ir
open Helix_machine
open Helix_ring
open Helix_hcc
module Engine = Helix_engine.Engine
module Trace = Helix_obs.Trace
module Metrics = Helix_obs.Metrics
module Json = Helix_obs.Json

(* The HELIX-RC executor: a cycle-stepped simulation of a multicore
   running a compiled program.

   Serial phase: core 0 executes the program through its context; all
   other cores idle.  When the serial context reaches the header of a
   selected parallel loop, the executor suspends it, spawns one worker
   context per core (successive iterations round-robin over cores,
   forming the logical ring), and enters the parallel phase.  When every
   iteration has completed and the ring has drained, the ring cache is
   flushed, sequential register state is reconstructed (induction
   variables from closed forms, reductions from per-core partials,
   last-value variables from stamped cells, demoted registers from their
   shared cells), and the serial context resumes at the loop exit.

   Communication routing reproduces the paper's decoupling matrix
   (Figure 8): memory accesses inside sequential segments go to the ring
   cache or to the coherent conventional hierarchy depending on
   [comm_mode]; synchronization uses proactively-broadcast ring signals
   (a wait completes when *all* other cores' signals have arrived) or the
   conventional chained scheme (a wait polls only its ring predecessor's
   signal, which becomes visible one cache-to-cache latency after it is
   stored). *)

type comm_mode = {
  reg_via_ring : bool;  (* demoted-register cells through the ring *)
  mem_via_ring : bool;  (* program shared memory through the ring *)
  sync_via_ring : bool; (* decoupled signals *)
}

let fully_decoupled =
  { reg_via_ring = true; mem_via_ring = true; sync_via_ring = true }

let fully_coupled =
  { reg_via_ring = false; mem_via_ring = false; sync_via_ring = false }

(* Robustness layer (ISSUE 2).  All checks default off: they cost an
   undo journal per invocation (O(words it writes)) plus per-access
   sanitizer work, and the baseline performance experiments must not pay
   for them. *)
type robustness = {
  check_oracle : bool;  (* shadow-execute each invocation sequentially *)
  sanitize : bool;      (* dynamic dependence + signal-bound checks *)
  fallback : bool;      (* roll back + re-execute sequentially on trouble *)
  strict : bool;        (* violations raise [Stuck Violation] instead *)
}

let no_robustness =
  { check_oracle = false; sanitize = false; fallback = false; strict = false }

let checked =
  { check_oracle = true; sanitize = true; fallback = true; strict = false }

type config = {
  mach : Mach_config.t;
  ring_cfg : Ring.config option;
  comm : comm_mode;
  setup_latency : int;
  fuel : int;
  watchdog_cycles : int;
      (* cycles without a single retirement before declaring the run
         stuck; tests lower it to exercise the deadlock report *)
  trace : Trace.t option;
  robust : robustness;
  engine : Engine.kind;
}

(* The event engine is the default: its results are bit-identical to
   the legacy per-cycle loop (asserted by the differential test suite),
   it just elides dead cycles.  HELIX_ENGINE=legacy flips every run back
   for A/B comparison without touching call sites. *)
let default_engine =
  Helix_obs.Env.get "HELIX_ENGINE" ~accepted:"legacy or event"
    ~default:Engine.Event (fun s ->
      Engine.kind_of_string (String.lowercase_ascii s))

let default_config ?(ring = true) ?(comm = fully_decoupled) ?trace
    ?(robust = no_robustness) ?(engine = default_engine) mach =
  {
    mach;
    ring_cfg =
      (if ring then Some (Ring.default_config ~n_nodes:mach.Mach_config.n_cores)
       else None);
    comm;
    setup_latency = 10;
    fuel = 400_000_000;
    watchdog_cycles = 2_000_000;
    trace;
    robust;
    engine;
  }

type invocation_record = {
  inv_loop : int;          (* Parallel_loop id *)
  inv_trip : int;          (* executed iterations *)
  inv_cycles : int;        (* wall duration of the phase *)
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
  r_ring_dist_hist : int array;       (* Figure 4b *)
  r_ring_consumers_hist : int array;  (* Figure 4c *)
  r_max_outstanding_signals : int;
  r_ring_hit_rate : float;
  r_fallbacks : int;    (* invocations re-executed sequentially *)
  r_violations : int;   (* robustness checks tripped *)
  r_metrics : Metrics.t;
      (* every component's counters, published under dotted names
         under the ring./core.<i>./cores./hier./exec. prefixes *)
}

(* Why a run died: [Fuel] is the cycle/trip budget, [Deadlock] the
   no-retirement watchdog, [Violation] a robustness check under
   [strict] (or one the fallback machinery could not recover from),
   [Faulted] an injected fail-stop the machine could neither reknit
   around nor fall back from (core 0 died, or no fallback was
   available mid-invocation). *)
type stuck_reason = Fuel | Deadlock | Violation | Faulted

let stuck_reason_name = function
  | Fuel -> "fuel"
  | Deadlock -> "deadlock"
  | Violation -> "violation"
  | Faulted -> "fault"

exception Stuck of stuck_reason * string

(* ------------------------------------------------------------------ *)

type worker = {
  w_core : int;
  w_ctx : Context.t;
  mutable w_local_iter : int;     (* iterations started on this core *)
  mutable w_running_iter : bool;  (* an iteration awaits completion accounting *)
}

type par_state = {
  ps_pl : Parallel_loop.t;
  ps_trip : int option; (* None: conditional, gated starts *)
  ps_params : int list;
  ps_iv_entry : (Parallel_loop.iv_info * int * int * int) list;
      (* (info, r0, s0, step_value) *)
  ps_red_entry : (Parallel_loop.reduction * int) list;
  ps_lv_entry : (Parallel_loop.lastval * int) list;
  ps_sr_entry : (Parallel_loop.shared_reg * int) list;
  mutable ps_started : int;
  mutable ps_finished : int;
  mutable ps_executed : int; (* iterations that returned continue=1 *)
  mutable ps_contig : int;   (* contiguous continue=1 prefix length *)
  mutable ps_stopped : bool; (* some iteration returned 0 *)
  ps_start_cycle : int;      (* workers may not start before this *)
  ps_entry_cycle : int;
}

type phase = Serial | Parallel of par_state

type t = {
  cfg : config;
  compiled : Hcc.compiled option;
  prog : Ir.program;
  mem : Memory.t;
  n : int;
  hier : Hierarchy.t;
  ring : Ring.t option;
  serial_ctx : Context.t;
  workers : worker option array;
  mutable cores : Core.t array;
  mutable phase : phase;
  now : int ref;
  mutable serial_stall_until : int;
  mutable invocations : invocation_record list;
  mutable serial_cycles : int;
  mutable parallel_cycles : int;
  mutable done_ : bool;
  mutable ret : int option;
  mutable max_outstanding : int;
  (* watchdog state: the monotonic [total_retired] counter is bumped by
     every core at retirement time (via [Stats.retire]), replacing the
     per-cycle fold over all cores' stats *)
  total_retired : int ref;
  mutable last_progress : int;
  mutable last_retired : int;
  (* event-engine state: upcoming conventional-signal visibility cycles
     (monotone FIFO; only fed when signals bypass the ring) and the
     scheduler-visible iteration-scheduling signature of the previous
     cycle, to veto fast-forwarding across a supply-unblocking change *)
  conv_vis : int Queue.t;
  mutable sched_sig : bool * int * int * int * int * bool * int;
  mutable sched_changed : bool;
  (* conventional signalling: (seg, origin) -> store cycles, in order *)
  conv_log : Signal_log.t;
  (* addresses of demoted-register cells, for routing *)
  reg_cells : (int, unit) Hashtbl.t;
  (* robustness state *)
  depcheck : Depcheck.t;
  mutable mk_core : int -> Core.t;   (* for rebuilding cores on fallback *)
  mutable extra_stats : Stats.t list; (* stats of cores discarded by fallback *)
  mutable fallbacks : int;
  mutable violations : int;
  (* fail-stop state.  The compiled code bakes the lane count into the
     iteration space: per-core privatization slots are [iter mod n]
     (reduction partials, last-value stamps), so a reknit must keep the
     modulus and the lane->slot mapping intact.  [owned.(c)] is the
     sorted list of lanes core [c] currently executes: initially [[c]];
     a dead core's lanes are adopted round-robin by the survivors
     (balanced, lowest-loaded first), so each lane -- and hence each
     privatization slot -- still has exactly one owner and the
     wait/signal contract is preserved with recomputed thresholds.
     While everyone lives the formulas below reduce bit-for-bit to the
     fixed-n round robin.  [pending_death] is the fault plan's
     scheduled fail-stop, consumed by the scheduler at its cycle. *)
  alive : bool array;
  owned : int list array;
  mutable n_active : int;
  mutable pending_death : (int * int) option;  (* (node, cycle) *)
}

(* Global iteration for core [c]'s [k]-th local iteration: lanes repeat
   every [n] iterations, so with [m] owned lanes the worker sweeps its
   sorted lane list once per block of [n].  Reduces to [k * n + c]
   when [owned.(c) = [c]]. *)
let iter_of_local ~n ~owned ~core ~local_iter =
  let lanes = owned.(core) in
  let m = List.length lanes in
  (n * (local_iter / m)) + List.nth lanes (local_iter mod m)

let rec lanes_below r acc = function
  | [] -> acc
  | l :: tl -> lanes_below r (if l < r then acc + 1 else acc) tl

(* How many of core [c']'s iterations precede global iteration [g]:
   whole blocks contribute all of its lanes, the partial block the lanes
   below [g mod n].  This is the signal threshold [g]'s segments must
   wait for from origin [c']. *)
let iters_before ~n ~owned ~core:c' ~iter:g =
  (List.length owned.(c') * (g / n)) + lanes_below (g mod n) 0 owned.(c')

(* Before its local iteration [local_iter] (global iteration g) may enter
   sequential segment [seg], core [core] needs from every other live core
   exactly as many signals as that core has iterations preceding g.  A
   dead core neither signals nor is waited on; its adopted lanes count
   toward the adopter.  While everyone lives this is the classic k / k+1
   split around the core id.

   [ok env ~core ~seg ~cycle origin threshold] asks the signal source
   whether one origin's threshold is met.  Origins are visited in
   ascending order and the loop stops at the first [false]; that order is
   part of the contract, because the ring's check marks thresholds
   consumed for the outstanding-signal accounting.  Neither the loop nor
   a static [ok] allocates, so a blocked core's poll costs O(origins). *)
let wait_satisfied ~n ~alive ~owned ~core ~seg ~cycle ~local_iter ok env =
  let g = iter_of_local ~n ~owned ~core ~local_iter in
  let c' = ref 0 and sat = ref true in
  while !sat && !c' < n do
    let o = !c' in
    if o <> core && alive.(o) then
      sat := ok env ~core ~seg ~cycle o (iters_before ~n ~owned ~core:o ~iter:g);
    incr c'
  done;
  !sat

let find_loop t ~func ~header =
  match t.compiled with
  | None -> None
  | Some c -> Hcc.find_parallel_loop c ~func ~header

let trace_invocations =
  Helix_obs.Env.get "HELIX_TRACE_INV"
    ~accepted:"a number of invocations (integer >= 0)" ~default:0
    (Helix_obs.Env.int_at_least 0)

let traced = ref 0

(* ---- conventional chained signalling ---- *)

let conv_signal_record t ~seg ~origin ~cycle =
  Signal_log.record t.conv_log ~seg ~origin ~cycle;
  (* publish the cycle at which this signal becomes visible to waiters,
     for the event engine: a fast-forward must not cross it.  Record
     cycles are nondecreasing, so the queue stays sorted. *)
  Queue.add (cycle + (2 * t.cfg.mach.Mach_config.mem.Mach_config.c2c_latency))
    t.conv_vis

(* Is the [threshold]-th (1-based) signal visible at [cycle], given the
   cache-to-cache visibility latency?  A [wait_satisfied] predicate. *)
let conv_signal_visible t ~core:_ ~seg ~cycle origin threshold =
  threshold <= 0
  || Signal_log.count t.conv_log ~seg ~origin >= threshold
     && Signal_log.nth t.conv_log ~seg ~origin threshold
        (* serialized signal request + transmission (Section 3.2) *)
        + (2 * t.cfg.mach.Mach_config.mem.Mach_config.c2c_latency)
        <= cycle

let ring_signals_satisfied ring ~core ~seg ~cycle:_ origin threshold =
  Ring.signals_satisfied ring ~node:core ~seg ~origin ~threshold

(* ---- shared-world callback for core [c] ---- *)

let route_via_ring t addr =
  match t.ring with
  | None -> false
  | Some _ ->
      if Hashtbl.mem t.reg_cells addr then t.cfg.comm.reg_via_ring
      else t.cfg.comm.mem_via_ring

let waits_met t ~core ~seg ~cycle ~local_iter ok env =
  wait_satisfied ~n:t.n ~alive:t.alive ~owned:t.owned ~core ~seg ~cycle
    ~local_iter ok env

(* Signals core [core] has seen for [(seg, origin)], without touching
   the consumed accounting: for diagnostics only. *)
let received_for t ~core ~seg ~origin =
  match t.ring with
  | Some r -> Ring.signals_received r ~node:core ~seg ~origin
  | None -> Signal_log.count t.conv_log ~seg ~origin

(* [(origin, threshold, received)] for each origin core [core]'s wait on
   [seg] in local iteration [local_iter] needs, in the wait's order. *)
let wait_targets t ~core ~seg ~local_iter =
  let acc = ref [] in
  ignore
    (waits_met t ~core ~seg ~cycle:!(t.now) ~local_iter
       (fun () ~core ~seg ~cycle:_ origin threshold ->
         acc := (origin, threshold, received_for t ~core ~seg ~origin) :: !acc;
         true)
       ());
  List.rev !acc

let shared_op t ~core ~cycle ~tag (op : Uop.shared_op) : Uop.shared_outcome =
  let c2c = t.cfg.mach.Mach_config.mem.Mach_config.c2c_latency in
  (* the uop's stamped iteration, NOT the worker's current counter: an
     out-of-order window may still hold a previous iteration's wait after
     the eager context has started the next assigned iteration *)
  let local_iter = max 0 tag in
  match op with
  | Uop.S_wait seg ->
      let satisfied =
        if t.cfg.comm.sync_via_ring then begin
          match t.ring with
          | Some ring ->
              waits_met t ~core ~seg ~cycle ~local_iter
                ring_signals_satisfied ring
          | None -> true
        end
        else
          (* lazy pull-based transmission: the same all-predecessor
             semantics, but each signal becomes visible only one
             cache-to-cache latency after it is stored -- this is what
             serializes the Figure 5b chain *)
          waits_met t ~core ~seg ~cycle ~local_iter conv_signal_visible t
      in
      if satisfied then begin
        Trace.wait_complete t.cfg.trace ~cycle ~core ~seg ~iter:local_iter;
        Uop.Sh_done { latency = 1; value = 0 }
      end
      else begin
        if !traced < trace_invocations && cycle land 15 = 0 then
          Printf.eprintf "  [trace] @%d core %d wait seg%d k=%d missing=%s\n"
            cycle core seg local_iter
            (String.concat ","
               (List.filter_map
                  (fun (o, th, have) ->
                    if have >= th then None
                    else Some (Printf.sprintf "%d(th%d)" o th))
                  (wait_targets t ~core ~seg ~local_iter)));
        Uop.Sh_retry
      end
  | Uop.S_signal seg ->
      if t.cfg.comm.sync_via_ring then begin
        match t.ring with
        | Some ring ->
            if Ring.try_signal ring ~node:core ~seg ~cycle then begin
              t.max_outstanding <-
                max t.max_outstanding (Ring.max_outstanding_signals ring);
              Uop.Sh_done { latency = 1; value = 0 }
            end
            else Uop.Sh_retry
        | None -> Uop.Sh_done { latency = 1; value = 0 }
      end
      else begin
        conv_signal_record t ~seg ~origin:core ~cycle;
        Uop.Sh_done { latency = 2; value = 0 }
      end
  | Uop.S_load addr ->
      if route_via_ring t addr then begin
        match t.ring with
        | Some ring ->
            let value, latency = Ring.load ring ~node:core ~addr ~cycle in
            if !traced < trace_invocations && latency > 10 then
              Printf.eprintf "  [trace] @%d core %d ring MISS a=%d lat=%d\n"
                cycle core addr latency;
            Uop.Sh_done { latency; value }
        | None -> assert false
      end
      else begin
        (* lazy pull-based sharing: the request and the reply each cross
           the chip, so a remote access costs two transfers on top of the
           local hierarchy *)
        let latency =
          Hierarchy.access t.hier ~core ~cycle ~write:false ~coherent:true
            addr
        in
        Uop.Sh_done
          { latency = max latency (2 * c2c); value = Memory.load t.mem addr }
      end
  | Uop.S_store (addr, v) ->
      if route_via_ring t addr then begin
        match t.ring with
        | Some ring ->
            if Ring.try_store ring ~node:core ~addr ~value:v ~cycle then
              Uop.Sh_done { latency = 1; value = 0 }
            else Uop.Sh_retry
        | None -> assert false
      end
      else begin
        let latency =
          Hierarchy.access t.hier ~core ~cycle ~write:true ~coherent:true addr
        in
        Memory.store t.mem addr v;
        (* ownership acquisition: invalidation round trip *)
        Uop.Sh_done { latency = max latency (2 * c2c); value = 0 }
      end
  | Uop.S_flush -> Uop.Sh_done { latency = 1; value = 0 }

(* ---- iteration scheduling ---- *)

let can_start t (ps : par_state) iter =
  !(t.now) >= ps.ps_start_cycle
  &&
  match ps.ps_trip with
  | Some trip -> iter < trip
  | None -> (not ps.ps_stopped) && iter <= ps.ps_contig

let finish_iteration ~now (ps : par_state) rv =
  if !traced < trace_invocations then
    Printf.eprintf "  [trace] @%d iter finished (fin=%d/%d)\n" now
      (ps.ps_finished + 1) ps.ps_started;
  ps.ps_finished <- ps.ps_finished + 1;
  match rv with
  | Some v when v <> 0 ->
      ps.ps_executed <- ps.ps_executed + 1;
      (* iterations finish in per-core order and conditional starts are
         gated serially, so counting the continue prefix is exact *)
      if not ps.ps_stopped then ps.ps_contig <- ps.ps_contig + 1
  | Some _ | None -> ps.ps_stopped <- true

let worker_next_uop t (ps : par_state) (w : worker) =
  let rec go () =
    match Context.status w.w_ctx with
    | Context.Running | Context.Blocked -> (
        match Context.next_uop w.w_ctx with
        | Some u ->
            u.Uop.meta <- max 0 (w.w_local_iter - 1);
            Some u
        | None -> None)
    | Context.Suspended _ -> None
    | Context.Finished rv ->
        if w.w_running_iter then begin
          w.w_running_iter <- false;
          finish_iteration ~now:!(t.now) ps rv
        end;
        (* schedule the next iteration assigned to this core: the sweep
           over its owned lanes (identical to core-id round-robin while
           every core lives) *)
        let iter =
          iter_of_local ~n:t.n ~owned:t.owned ~core:w.w_core
            ~local_iter:w.w_local_iter
        in
        if can_start t ps iter then begin
          w.w_local_iter <- w.w_local_iter + 1;
          ps.ps_started <- ps.ps_started + 1;
          w.w_running_iter <- true;
          if !traced < trace_invocations then
            Printf.eprintf "  [trace] @%d core %d starts iter %d\n" !(t.now)
              w.w_core iter;
          Context.start w.w_ctx ps.ps_pl.Parallel_loop.pl_body_fn
            (iter :: ps.ps_params);
          go ()
        end
        else None
  in
  go ()

(* ---- phase transitions ---- *)

let eval_operand_in serial_ctx (o : Ir.operand) =
  Context.operand_value serial_ctx o

let compute_trip (c : Parallel_loop.counted) ~init ~step ~bound =
  let cmp v =
    match c.Parallel_loop.ccmp with
    | Ir.Lt -> v < bound
    | Ir.Le -> v <= bound
    | Ir.Gt -> v > bound
    | Ir.Ge -> v >= bound
    | Ir.Ne -> v <> bound
    | _ -> false
  in
  let rec go k v =
    if k > 100_000_000 then raise (Stuck (Fuel, "trip count exceeds fuel"))
    else if cmp v then go (k + 1) (v + (c.Parallel_loop.csign * step))
    else k
  in
  go 0 init

(* (Re)create one fresh worker per *live* core: fail-stopped cores get
   none, so their lanes' iterations are redistributed round-robin over
   the survivors by the lane-based assignment formula.  Also the
   reknit-recovery path: when a core dies before a pristine invocation
   has made any progress, respawning over the survivors restarts it
   with a consistent wait/signal contract. *)
let spawn_workers t =
  for c = 0 to t.n - 1 do
    t.workers.(c) <- None
  done;
  for c = 0 to t.n - 1 do
    if t.alive.(c) then begin
      let w =
        {
          w_core = c;
          w_ctx = Context.create t.prog t.mem ~core_id:c;
          w_local_iter = 0;
          w_running_iter = false;
        }
      in
      if t.cfg.robust.sanitize then
        Context.set_mem_hook w.w_ctx
          (Some
             (fun ~seg ~addr ~write ->
               Depcheck.record t.depcheck ~core:c
                 ~iter:(max 0 (w.w_local_iter - 1))
                 ~seg ~addr ~write));
      t.workers.(c) <- Some w
    end
  done

(* Functional bookkeeping write by the runtime itself (cell
   initialization, scratch clearing): must also invalidate ring copies. *)
let runtime_store t addr v =
  (match t.ring with Some r -> Ring.invalidate_addr r addr | None -> ());
  Memory.store t.mem addr v

let begin_parallel t (pl : Parallel_loop.t) =
  let sc = t.serial_ctx in
  let params = List.map (Context.reg_value sc) pl.Parallel_loop.pl_params in
  let iv_entry =
    List.map
      (fun (info : Parallel_loop.iv_info) ->
        let r0 = Context.reg_value sc info.Parallel_loop.ivi_reg in
        match info.Parallel_loop.ivi_form with
        | Parallel_loop.Linear { step; _ } ->
            (info, r0, 0, eval_operand_in sc step)
        | Parallel_loop.Quadratic { step_reg; step; _ } ->
            (info, r0, Context.reg_value sc step_reg,
             eval_operand_in sc step))
      pl.Parallel_loop.pl_ivs
  in
  let trip =
    match pl.Parallel_loop.pl_kind with
    | Parallel_loop.Counted c ->
        let init = Context.reg_value sc c.Parallel_loop.civ in
        let step = eval_operand_in sc c.Parallel_loop.cstep in
        let bound = eval_operand_in sc c.Parallel_loop.cbound in
        Some (compute_trip c ~init ~step ~bound)
    | Parallel_loop.Conditional -> None
  in
  if !traced < trace_invocations then
    Printf.eprintf "  [trace] @%d begin_parallel loop%d trip=%s\n" !(t.now)
      pl.Parallel_loop.pl_id
      (match trip with Some k -> string_of_int k | None -> "?");
  Trace.loop_enter t.cfg.trace ~cycle:!(t.now) ~loop:pl.Parallel_loop.pl_id
    ~trip;
  (* rollback point for the oracle and the fallback: journal every store
     from here on, runtime-cell writes included; closed when the
     invocation ends, falls back, or the run raises *)
  if t.cfg.robust.check_oracle || t.cfg.robust.fallback then
    Memory.open_journal t.mem;
  if t.cfg.robust.sanitize then Depcheck.reset t.depcheck;
  let red_entry =
    List.map
      (fun (rd : Parallel_loop.reduction) ->
        let r0 = Context.reg_value sc rd.Parallel_loop.rd_reg in
        for slot = 0 to t.n - 1 do
          runtime_store t
            (rd.Parallel_loop.rd_base + slot)
            rd.Parallel_loop.rd_identity
        done;
        (rd, r0))
      pl.Parallel_loop.pl_reductions
  in
  let lv_entry =
    List.map
      (fun (lv : Parallel_loop.lastval) ->
        let r0 = Context.reg_value sc lv.Parallel_loop.lv_reg in
        for slot = 0 to t.n - 1 do
          runtime_store t (lv.Parallel_loop.lv_iter_base + slot) 0
        done;
        (lv, r0))
      pl.Parallel_loop.pl_lastvals
  in
  let sr_entry =
    List.map
      (fun (sr : Parallel_loop.shared_reg) ->
        let r0 = Context.reg_value sc sr.Parallel_loop.sr_reg in
        runtime_store t sr.Parallel_loop.sr_addr r0;
        (sr, r0))
      pl.Parallel_loop.pl_shared_regs
  in
  Signal_log.reset t.conv_log;
  Queue.clear t.conv_vis;
  spawn_workers t;
  t.phase <-
    Parallel
      {
        ps_pl = pl;
        ps_trip = trip;
        ps_params = params;
        ps_iv_entry = iv_entry;
        ps_red_entry = red_entry;
        ps_lv_entry = lv_entry;
        ps_sr_entry = sr_entry;
        ps_started = 0;
        ps_finished = 0;
        ps_executed = 0;
        ps_contig = 0;
        ps_stopped = false;
        ps_start_cycle = !(t.now) + t.cfg.setup_latency;
        ps_entry_cycle = !(t.now);
      }

let parallel_done t (ps : par_state) =
  let all_scheduled =
    match ps.ps_trip with
    | Some trip -> ps.ps_started >= trip
    | None -> ps.ps_stopped
  in
  (* data must land before the flush (node arrays stay valid across
     invocations); in-flight signals may be dropped *)
  all_scheduled
  && ps.ps_finished = ps.ps_started
  && Array.for_all Core.quiescent t.cores
  && (match t.ring with Some r -> Ring.data_drained r | None -> true)

let end_parallel_normal t (ps : par_state) =
  if !traced < trace_invocations then begin
    incr traced;
    Printf.eprintf "  [trace] @%d end_parallel (entry @%d, started %d)\n"
      !(t.now) ps.ps_entry_cycle ps.ps_started
  end;
  let pl = ps.ps_pl in
  let sc = t.serial_ctx in
  let executed = ps.ps_executed in
  (* flush the ring cache: the distributed fence at loop exit *)
  let flush_lat =
    match t.ring with
    | Some ring -> Ring.flush ring ~cycle:!(t.now)
    | None -> 0
  in
  (* reconstruct sequential register state *)
  List.iter
    (fun ((info : Parallel_loop.iv_info), r0, s0, step_value) ->
      if info.Parallel_loop.ivi_live_out then
        Context.set_reg sc info.Parallel_loop.ivi_reg
          (Parallel_loop.iv_value_at info ~r0 ~s0 ~step_value executed))
    ps.ps_iv_entry;
  List.iter
    (fun ((rd : Parallel_loop.reduction), r0) ->
      let partials =
        List.init t.n (fun slot ->
            Memory.load t.mem (rd.Parallel_loop.rd_base + slot))
      in
      if rd.Parallel_loop.rd_live_out then
        Context.set_reg sc rd.Parallel_loop.rd_reg
          (Parallel_loop.combine_reduction rd r0 partials))
    ps.ps_red_entry;
  List.iter
    (fun ((lv : Parallel_loop.lastval), r0) ->
      let best = ref (0, r0) in
      for slot = 0 to t.n - 1 do
        let stamp = Memory.load t.mem (lv.Parallel_loop.lv_iter_base + slot) in
        if stamp > fst !best then
          best :=
            (stamp, Memory.load t.mem (lv.Parallel_loop.lv_val_base + slot))
      done;
      if lv.Parallel_loop.lv_live_out then
        Context.set_reg sc lv.Parallel_loop.lv_reg (snd !best))
    ps.ps_lv_entry;
  List.iter
    (fun ((sr : Parallel_loop.shared_reg), _r0) ->
      if sr.Parallel_loop.sr_live_out then
        Context.set_reg sc sr.Parallel_loop.sr_reg
          (Memory.load t.mem sr.Parallel_loop.sr_addr))
    ps.ps_sr_entry;
  (* clear compiler scratch so the memory image matches sequential *)
  List.iter
    (fun (base, size) ->
      for a = base to base + size - 1 do
        runtime_store t a 0
      done)
    pl.Parallel_loop.pl_scratch;
  for c = 0 to t.n - 1 do
    t.workers.(c) <- None
  done;
  t.invocations <-
    {
      inv_loop = pl.Parallel_loop.pl_id;
      inv_trip = executed;
      inv_cycles = !(t.now) - ps.ps_entry_cycle;
    }
    :: t.invocations;
  Trace.loop_flush t.cfg.trace ~cycle:!(t.now) ~loop:pl.Parallel_loop.pl_id
    ~iterations:executed
    ~span:(!(t.now) - ps.ps_entry_cycle)
    ~flush_latency:flush_lat;
  t.serial_stall_until <- !(t.now) + 2 + flush_lat;
  Context.jump_to sc pl.Parallel_loop.pl_exit;
  t.phase <- Serial

(* ---- robustness: sanitizer verdicts, fallback, oracle ---- *)

let oracle_entry t (ps : par_state) : Oracle.entry =
  {
    Oracle.en_pl = ps.ps_pl;
    en_trip = ps.ps_trip;
    en_params = ps.ps_params;
    en_ivs = ps.ps_iv_entry;
    en_reds = ps.ps_red_entry;
    en_lvs = ps.ps_lv_entry;
    en_srs = ps.ps_sr_entry;
    en_n = t.n;
  }

(* Graceful degradation: roll the invocation back through its undo
   journal and re-execute it sequentially through the oracle's replay
   engine, then resume the run at the loop exit.  The ring is aborted
   (its speculative state would be stale after the rollback) and the
   worker cores are rebuilt so no in-flight uop survives; their
   accumulated statistics are preserved in [extra_stats].  The
   re-execution is charged at one instruction per cycle on the serial
   core. *)
let do_fallback t (ps : par_state) ~reason =
  let pl = ps.ps_pl in
  (match t.ring with Some r -> Ring.abort r | None -> ());
  Memory.rollback t.mem;
  Memory.close_journal t.mem;
  Signal_log.reset t.conv_log;
  Queue.clear t.conv_vis;
  for c = 0 to t.n - 1 do
    t.workers.(c) <- None
  done;
  t.extra_stats <-
    Array.to_list (Array.map Core.stats t.cores) @ t.extra_stats;
  t.cores <- Array.init t.n t.mk_core;
  let rp =
    try Oracle.replay t.prog (oracle_entry t ps) t.mem
    with Oracle.Replay_stuck msg ->
      raise (Stuck (Violation, "sequential fallback failed: " ^ msg))
  in
  List.iter
    (fun (r, v) -> Context.set_reg t.serial_ctx r v)
    rp.Oracle.rp_regs;
  t.fallbacks <- t.fallbacks + 1;
  t.invocations <-
    {
      inv_loop = pl.Parallel_loop.pl_id;
      inv_trip = rp.Oracle.rp_executed;
      inv_cycles = !(t.now) - ps.ps_entry_cycle;
    }
    :: t.invocations;
  Trace.fallback t.cfg.trace ~cycle:!(t.now) ~loop:pl.Parallel_loop.pl_id
    ~reason ~iterations:rp.Oracle.rp_executed;
  t.serial_stall_until <- !(t.now) + 2 + rp.Oracle.rp_dyn_instrs;
  Context.jump_to t.serial_ctx pl.Parallel_loop.pl_exit;
  t.phase <- Serial

(* Sanitizer verdict for the finishing invocation.  Must run before the
   flush: the signal-bound check reads the live signal buffers, which
   the flush resets. *)
let detect_violation t =
  if not t.cfg.robust.sanitize then None
  else if Depcheck.violations t.depcheck > 0 then
    Some ("dependence", Depcheck.summary t.depcheck)
  else
    let outstanding =
      match t.ring with Some r -> Ring.max_outstanding_signals r | None -> 0
    in
    if outstanding > 2 then
      Some
        ( "signal_bound",
          Printf.sprintf
            "max outstanding signals %d exceeds the past/future bound of 2"
            outstanding )
    else None

(* Differential oracle: runs after the normal end-of-loop path and
   replays the invocation sequentially in place.  The parallel values of
   the journaled words are saved, memory rolls back to the entry image,
   and the shadow runs under the same (now empty) journal.  A word
   neither side wrote holds its entry value on both, so comparing the
   union of the two journals is a full-image compare.  Trip count and
   live-out registers are compared too.  On mismatch under [fallback]
   the shadow image *is* the correct exit state and stays; otherwise the
   parallel image is put back. *)
let check_oracle t (ps : par_state) =
  let loop = ps.ps_pl.Parallel_loop.pl_id in
  let cycle = !(t.now) in
  let mem = t.mem in
  let parallel = Hashtbl.create 64 in
  Memory.iter_journal mem (fun a _ ->
      Hashtbl.replace parallel a (Memory.load mem a));
  Memory.rollback mem;
  let keep_parallel () =
    Memory.rollback mem;
    Memory.close_journal mem;
    Hashtbl.iter (Memory.store mem) parallel
  in
  match Oracle.replay t.prog (oracle_entry t ps) mem with
  | exception Oracle.Replay_stuck msg ->
      keep_parallel ();
      t.violations <- t.violations + 1;
      Trace.oracle_result t.cfg.trace ~cycle ~loop ~ok:false
        ~detail:("shadow replay stuck: " ^ msg);
      if t.cfg.robust.strict then
        raise (Stuck (Violation, "oracle shadow replay stuck: " ^ msg))
  | rp -> (
      let probs = ref [] in
      if rp.Oracle.rp_executed <> ps.ps_executed then
        probs :=
          Printf.sprintf "trip: parallel %d vs sequential %d" ps.ps_executed
            rp.Oracle.rp_executed
          :: !probs;
      List.iter
        (fun (r, v) ->
          let got = Context.reg_value t.serial_ctx r in
          if got <> v then
            probs :=
              Printf.sprintf "reg r%d: parallel %d vs sequential %d" r got v
              :: !probs)
        rp.Oracle.rp_regs;
      let differs = ref false in
      Hashtbl.iter
        (fun a v -> if v <> Memory.load mem a then differs := true)
        parallel;
      Memory.iter_journal mem (fun a entry ->
          if (not (Hashtbl.mem parallel a)) && entry <> Memory.load mem a then
            differs := true);
      if !differs then probs := "final memory image differs" :: !probs;
      if !probs <> [] && t.cfg.robust.fallback && not t.cfg.robust.strict
      then Memory.close_journal mem
      else keep_parallel ();
      match !probs with
      | [] ->
          Trace.oracle_result t.cfg.trace ~cycle ~loop ~ok:true ~detail:""
      | probs ->
          let detail = String.concat "; " (List.rev probs) in
          t.violations <- t.violations + 1;
          Trace.violation t.cfg.trace ~cycle ~loop ~kind:"oracle" ~detail;
          Trace.oracle_result t.cfg.trace ~cycle ~loop ~ok:false ~detail;
          if t.cfg.robust.strict then
            raise
              (Stuck
                 ( Violation,
                   Printf.sprintf "oracle mismatch on loop %d: %s" loop detail
                 ))
          else if t.cfg.robust.fallback then begin
            (match t.ring with Some r -> Ring.abort r | None -> ());
            List.iter
              (fun (r, v) -> Context.set_reg t.serial_ctx r v)
              rp.Oracle.rp_regs;
            t.fallbacks <- t.fallbacks + 1;
            Trace.fallback t.cfg.trace ~cycle ~loop ~reason:"oracle"
              ~iterations:rp.Oracle.rp_executed;
            t.serial_stall_until <-
              max t.serial_stall_until (cycle + 2 + rp.Oracle.rp_dyn_instrs)
          end)

let end_parallel t (ps : par_state) =
  let loop = ps.ps_pl.Parallel_loop.pl_id in
  let normal () =
    end_parallel_normal t ps;
    if t.cfg.robust.check_oracle then check_oracle t ps;
    Memory.close_journal t.mem
  in
  match detect_violation t with
  | None -> normal ()
  | Some (vkind, detail) ->
      t.violations <- t.violations + 1;
      Trace.violation t.cfg.trace ~cycle:!(t.now) ~loop ~kind:vkind ~detail;
      if t.cfg.robust.strict then
        raise
          (Stuck
             ( Violation,
               Printf.sprintf "%s violation on loop %d: %s" vkind loop detail
             ))
      else if t.cfg.robust.fallback then
        do_fallback t ps ~reason:vkind
      else normal ()

(* ---- construction ---- *)

let create ?(compiled : Hcc.compiled option) (cfg : config)
    (prog : Ir.program) (mem : Memory.t) : t =
  let n = cfg.mach.Mach_config.n_cores in
  let trigger =
    match compiled with
    | None -> None
    | Some c ->
        Some
          (fun fname header ->
            Hcc.find_parallel_loop c ~func:fname ~header <> None)
  in
  let serial_ctx = Context.create ~trigger prog mem ~core_id:0 in
  let hier = Hierarchy.create cfg.mach in
  let t_ref = ref None in
  let ring =
    Option.map
      (fun rc ->
        Ring.create ?trace:cfg.trace rc
          {
            Ring.backing_load = Memory.load mem;
            backing_store = Memory.store mem;
            owner_l1_latency =
              (fun ~core ~cycle ~write ~addr ->
                Hierarchy.owner_l1_access hier ~core ~cycle ~write addr);
          })
      cfg.ring_cfg
  in
  let reg_cells = Hashtbl.create 64 in
  (match compiled with
  | Some c ->
      List.iter
        (fun (s : Select.candidate) ->
          List.iter
            (fun sr -> Hashtbl.replace reg_cells sr.Parallel_loop.sr_addr ())
            s.Select.cd_loop.Parallel_loop.pl_shared_regs)
        c.Hcc.cp_candidates
  | None -> ());
  let t =
    {
      cfg;
      compiled;
      prog;
      mem;
      n;
      hier;
      ring;
      serial_ctx;
      workers = Array.make n None;
      cores = [||];
      phase = Serial;
      now = ref 0;
      serial_stall_until = 0;
      invocations = [];
      serial_cycles = 0;
      parallel_cycles = 0;
      done_ = false;
      ret = None;
      max_outstanding = 0;
      total_retired = ref 0;
      last_progress = 0;
      last_retired = -1;
      conv_vis = Queue.create ();
      sched_sig = (false, 0, 0, 0, 0, false, n);
      sched_changed = false;
      conv_log = Signal_log.create ~origins:n;
      reg_cells;
      depcheck = Depcheck.create ();
      mk_core = (fun _ -> invalid_arg "Executor: cores not initialized");
      extra_stats = [];
      fallbacks = 0;
      violations = 0;
      alive = Array.make n true;
      owned = Array.init n (fun c -> [ c ]);
      n_active = n;
      pending_death =
        (match cfg.ring_cfg with
        | Some { Ring.faults = Some p; _ } -> p.Link.fl_fail_stop
        | _ -> None);
    }
  in
  t_ref := Some t;
  let supply_for core =
    {
      Core_model.sup_next =
        (fun () ->
          let t = Option.get !t_ref in
          if !(t.now) < t.serial_stall_until && core = 0 then None
          else
            match t.phase with
            | Serial ->
                if core = 0 then Context.next_uop t.serial_ctx else None
            | Parallel ps -> begin
                match t.workers.(core) with
                | Some w -> worker_next_uop t ps w
                | None -> None
              end);
      sup_mem =
        (fun ~cycle ~write ~addr ->
          let t = Option.get !t_ref in
          if write then
            (match t.ring with
            | Some r -> Ring.invalidate_addr r addr
            | None -> ());
          Hierarchy.access hier ~core ~cycle ~write ~coherent:false addr);
      sup_shared =
        (fun ~cycle ~tag op ->
          let t = Option.get !t_ref in
          shared_op t ~core ~cycle ~tag op);
      sup_settled =
        (fun () ->
          let t = Option.get !t_ref in
          match t.phase with
          | Serial ->
              (* a [None] from the serial supply means the serial context
                 is not [Running] (or the core is stall-gated, whose
                 release cycle the scheduler publishes): repeat pulls are
                 pure *)
              true
          | Parallel ps -> (
              match t.workers.(core) with
              | None -> true
              | Some w -> (
                  match Context.status w.w_ctx with
                  | Context.Finished _ ->
                      (* the next pull runs [finish_iteration] and/or
                         starts the next assigned iteration: only pure if
                         both are out of the picture.  [can_start]'s time
                         gate is safe because the scheduler publishes
                         [ps_start_cycle] as a wake-up. *)
                      (not w.w_running_iter)
                      && not
                           (can_start t ps
                              (iter_of_local ~n:t.n ~owned:t.owned
                                 ~core:w.w_core ~local_iter:w.w_local_iter))
                  | Context.Blocked | Context.Suspended _ -> true
                  | Context.Running -> false)));
    }
  in
  t.mk_core <-
    (fun c ->
      Core.create ~retired_sink:t.total_retired cfg.mach.Mach_config.core
        (supply_for c));
  t.cores <- Array.init n t.mk_core;
  t

(* ---- stuck diagnostics ---- *)

(* Full deadlock report: phase and scheduling counters, every worker's
   context/core state plus its wait targets (expected signal thresholds
   versus signals actually received, per segment and origin), and the
   ring's complete snapshot.  This is the payload of [Stuck]: when a
   16-core run wedges, the answer is almost always in the one node or
   worker a partial dump would have omitted. *)
let stuck_report t ~reason =
  let b = Buffer.create 4096 in
  Buffer.add_string b ("HELIX-RC stuck: " ^ reason ^ "\n");
  if t.n_active < t.n then
    Buffer.add_string b
      (Printf.sprintf "  dead cores: %s (survivors %d/%d; lane ownership %s)\n"
         (String.concat ","
            (List.filter_map
               (fun c -> if t.alive.(c) then None else Some (string_of_int c))
               (List.init t.n Fun.id)))
         t.n_active t.n
         (String.concat " "
            (List.filter_map
               (fun c ->
                 if t.alive.(c) then
                   Some
                     (Printf.sprintf "%d:[%s]" c
                        (String.concat ";"
                           (List.map string_of_int t.owned.(c))))
                 else None)
               (List.init t.n Fun.id))));
  (match t.phase with
  | Serial ->
      Buffer.add_string b
        (Printf.sprintf "  phase: serial (serial ctx %s)\n"
           (match Context.status t.serial_ctx with
           | Context.Running -> "running"
           | Context.Blocked -> "blocked-on-shared-load"
           | Context.Suspended _ -> "suspended"
           | Context.Finished _ -> "finished"))
  | Parallel ps ->
      Buffer.add_string b
        (Printf.sprintf
           "  phase: parallel loop %d entered @%d: started=%d finished=%d \
            executed=%d trip=%s%s\n"
           ps.ps_pl.Parallel_loop.pl_id ps.ps_entry_cycle ps.ps_started
           ps.ps_finished ps.ps_executed
           (match ps.ps_trip with
           | Some k -> string_of_int k
           | None -> "?")
           (if ps.ps_stopped then " stopped" else ""));
      let segs =
        List.map
          (fun (si : Parallel_loop.segment_info) -> si.Parallel_loop.si_id)
          ps.ps_pl.Parallel_loop.pl_segments
      in
      Array.iteri
        (fun c w ->
          match w with
          | None -> ()
          | Some w ->
              Buffer.add_string b
                (Printf.sprintf
                   "  worker %d: local_iter=%d running=%b status=%s\n" c
                   w.w_local_iter w.w_running_iter
                   (match Context.status w.w_ctx with
                   | Context.Running -> "running"
                   | Context.Blocked -> "blocked-on-shared-load"
                   | Context.Suspended _ -> "suspended"
                   | Context.Finished _ -> "finished"));
              Buffer.add_string b
                (Printf.sprintf "    core-model: %s\n"
                   (Core.describe t.cores.(c)));
              let k = max 0 (w.w_local_iter - 1) in
              List.iter
                (fun seg ->
                  let targets =
                    List.map
                      (fun (origin, threshold, have) ->
                        Printf.sprintf "from %d need %d have %d%s" origin
                          threshold have
                          (if have >= threshold then "" else " MISSING"))
                      (wait_targets t ~core:c ~seg ~local_iter:k)
                  in
                  Buffer.add_string b
                    (Printf.sprintf "    wait targets seg %d (iter %d): %s\n"
                       seg k
                       (if targets = [] then "(none: single core)"
                        else String.concat "; " targets)))
                segs)
        t.workers);
  (match t.ring with
  | Some r ->
      Buffer.add_string b "  ring state:\n";
      Buffer.add_string b (Ring.describe r)
  | None -> ());
  Buffer.contents b

(* Structured variant for tooling (attached to traces / dumped by the
   CLI next to the JSONL trace). *)
let stuck_snapshot t ~reason : Json.t =
  let phase_name =
    match t.phase with Serial -> "serial" | Parallel _ -> "parallel"
  in
  Json.Obj
    ([
       ("reason", Json.String reason);
       ("cycle", Json.Int !(t.now));
       ("phase", Json.String phase_name);
       ("dead_cores", Json.Int (t.n - t.n_active));
     ]
    @ match t.ring with
      | Some r -> [ ("ring", Ring.snapshot r) ]
      | None -> [])

(* ---- fail-stop processing ---- *)

(* Redistribute the dead core's lanes round-robin over the survivors,
   balanced: each lane goes to the currently lowest-loaded live core
   (lowest id on ties).  Keeps every lane single-owner, so the compiled
   [iter mod n] privatization slots stay exclusive. *)
let adopt_lanes t ~dead =
  List.iter
    (fun lane ->
      let best = ref (-1) in
      for c = t.n - 1 downto 0 do
        if
          t.alive.(c)
          && (!best < 0
             || List.length t.owned.(c) <= List.length t.owned.(!best))
        then best := c
      done;
      if !best >= 0 then
        t.owned.(!best) <- List.sort compare (lane :: t.owned.(!best)))
    t.owned.(dead);
  t.owned.(dead) <- [];
  t.n_active <- 0;
  for c = 0 to t.n - 1 do
    if t.alive.(c) then t.n_active <- t.n_active + 1
  done

(* The fault plan's scheduled fail-stop has arrived: kill the core,
   reknit the ring around its node, and decide whether the run can
   continue.  During the serial phase (or before an invocation makes any
   observable progress) reknitting preserves the wait/signal contract --
   survivors adopt the dead core's lanes and the threshold formulas
   account for multi-lane owners.  Once an invocation has started
   iterations or the dead core took accepted-but-unsent messages down
   with it, the contract is broken (consumed thresholds and lockstep
   barriers reference the old ownership map), so the invocation rolls
   back to its entry image and replays sequentially; without that option
   the run is stuck with the [Faulted] reason.  Core 0 is the serial
   core: its death is always fatal. *)
let process_fail_stop t ~node ~cycle =
  t.pending_death <- None;
  if node < t.n && t.alive.(node) then begin
    let lost_d, lost_s =
      match t.ring with
      | Some r -> Ring.kill_node r ~node ~cycle
      | None -> (0, 0)
    in
    t.alive.(node) <- false;
    adopt_lanes t ~dead:node;
    t.workers.(node) <- None;
    if node = 0 || t.n_active = 0 then
      raise
        (Stuck
           ( Faulted,
             stuck_report t
               ~reason:
                 (Printf.sprintf
                    "core 0 fail-stopped at cycle %d: no serial core \
                     survives"
                    cycle) ));
    match t.phase with
    | Serial -> () (* future invocations spawn workers over survivors *)
    | Parallel ps ->
        let pristine =
          ps.ps_started = 0 && lost_d = 0 && lost_s = 0
          && (match t.ring with Some r -> Ring.drained r | None -> true)
        in
        if pristine then spawn_workers t
        else if t.cfg.robust.fallback then begin
          do_fallback t ps ~reason:"fail_stop";
          t.last_progress <- cycle
        end
        else
          raise
            (Stuck
               ( Faulted,
                 stuck_report t
                   ~reason:
                     (Printf.sprintf
                        "core %d fail-stopped at cycle %d mid-invocation \
                         (started=%d lost_data=%d lost_sig=%d) and no \
                         fallback is available"
                        node cycle ps.ps_started lost_d lost_s) ))
  end

(* ---- main loop ---- *)

(* The scheduler's view of iteration-scheduling state: if any of this
   changed during a cycle (workers finishing iterations, conditional
   continue-prefix growth, phase transitions), another core's uop supply
   may unblock on the very next cycle, so the engine must not
   fast-forward across it.  [n_active] is part of the signature: a
   fail-stop reassigns lanes, which can unblock (or create) supply on
   every surviving core. *)
let sched_signature t =
  match t.phase with
  | Serial -> (false, 0, 0, 0, 0, false, t.n_active)
  | Parallel ps ->
      ( true,
        ps.ps_entry_cycle,
        ps.ps_started,
        ps.ps_finished,
        ps.ps_contig,
        ps.ps_stopped,
        t.n_active )

(* Everything the legacy loop body did besides ring/core ticks: the
   progress watchdog and the phase state machine.  Runs as the last
   engine component, in the exact position the legacy loop had it. *)
let sched_tick t ~cycle =
  (* scheduled fail-stop first: the death is an external event, so it
     must be visible to everything else this cycle does (watchdog,
     phase machinery) *)
  (match t.pending_death with
  | Some (node, at) when cycle >= at -> process_fail_stop t ~node ~cycle
  | _ -> ());
  (* progress watchdog over the monotonic retirement counter *)
  let retired = !(t.total_retired) in
  if retired <> t.last_retired || cycle < t.serial_stall_until then begin
    (* a stalled serial core (flush or fallback re-execution charge) is
       deliberate progress-free time, not a wedge *)
    t.last_retired <- retired;
    t.last_progress <- cycle
  end
  else if cycle - t.last_progress > t.cfg.watchdog_cycles then begin
    let reason =
      Printf.sprintf "no retirement progress since cycle %d (now %d)"
        t.last_progress cycle
    in
    Trace.stuck t.cfg.trace ~cycle
      ~phase:(match t.phase with Serial -> "serial" | Parallel _ -> "parallel");
    Trace.emit t.cfg.trace ~cycle ~kind:"stuck_snapshot"
      [ ("snapshot", stuck_snapshot t ~reason) ];
    match t.phase with
    | Parallel ps when t.cfg.robust.fallback ->
        (* a wedged parallel invocation degrades to sequential *)
        do_fallback t ps ~reason:"deadlock";
        t.last_progress <- cycle
    | _ -> raise (Stuck (Deadlock, stuck_report t ~reason))
  end;
  (* phase transitions *)
  (match t.phase with
  | Serial -> begin
      t.serial_cycles <- t.serial_cycles + 1;
      match Context.status t.serial_ctx with
      | Context.Suspended trig when Core.quiescent t.cores.(0) -> begin
          match
            find_loop t ~func:trig.Context.p_func ~header:trig.Context.p_header
          with
          | Some pl -> begin_parallel t pl
          | None ->
              (* spurious trigger: resume where we stopped *)
              Context.jump_to t.serial_ctx trig.Context.p_header
        end
      | Context.Finished rv when Core.quiescent t.cores.(0) ->
          t.ret <- rv;
          t.done_ <- true
      | _ -> ()
    end
  | Parallel ps ->
      t.parallel_cycles <- t.parallel_cycles + 1;
      if parallel_done t ps then end_parallel t ps);
  let s = sched_signature t in
  t.sched_changed <- s <> t.sched_sig;
  t.sched_sig <- s

(* Earliest future cycle at which the scheduler itself could act.  The
   returned cycle is always finite (the watchdog trigger bounds it), so
   runaway skips are impossible. *)
let sched_next_event t ~now =
  if t.done_ || t.sched_changed then Some now
  else begin
    let w = ref max_int in
    let add c = if c >= now && c < !w then w := c in
    (* serial-core stall release (flush / fallback re-execution charge).
       The release cycle itself must be ticked: the serial core's supply
       unblocks on it, and the core may already be idle-settled *)
    if t.serial_stall_until >= now then add t.serial_stall_until;
    (* parallel-phase setup-latency release: the release cycle itself
       must be ticked, like the serial stall above — an idle-settled
       core's [can_start] flips exactly there *)
    (match t.phase with
    | Parallel ps -> if ps.ps_start_cycle >= now then add ps.ps_start_cycle
    | Serial -> ());
    (* a scheduled fail-stop is a hard wake-up: the engines must not
       fast-forward across the death cycle *)
    (match t.pending_death with
    | Some (_, at) -> add (max now at)
    | None -> ());
    (* conventional-mode signal visibility boundaries *)
    let rec conv () =
      match Queue.peek_opt t.conv_vis with
      | Some v when v < now ->
          ignore (Queue.pop t.conv_vis);
          conv ()
      | Some v -> add v
      | None -> ()
    in
    conv ();
    (* watchdog trigger: within a serial stall window last_progress
       tracks the clock up to serial_stall_until - 1 *)
    let lp =
      if t.serial_stall_until > now then
        max t.last_progress (t.serial_stall_until - 1)
      else t.last_progress
    in
    add (max now (lp + t.cfg.watchdog_cycles + 1));
    Some !w
  end

(* Charge the skipped window [now .. now + cycles - 1] exactly as the
   per-cycle loop would have: phase counters every cycle, and watchdog
   progress credit while the serial core is deliberately stalled. *)
let sched_skip t ~now ~cycles =
  (match t.phase with
  | Serial -> t.serial_cycles <- t.serial_cycles + cycles
  | Parallel _ -> t.parallel_cycles <- t.parallel_cycles + cycles);
  if t.serial_stall_until > now then
    t.last_progress <- min (now + cycles - 1) (t.serial_stall_until - 1)

let components t =
  let noop_skip ~now:_ ~cycles:_ = () in
  let governor =
    {
      Engine.cp_name = "governor";
      cp_tick =
        (fun ~cycle ->
          if cycle > t.cfg.fuel then begin
            Trace.stuck t.cfg.trace ~cycle ~phase:"fuel";
            raise
              (Stuck
                 ( Fuel,
                   stuck_report t
                     ~reason:
                       (Printf.sprintf "cycle fuel exhausted (fuel=%d)"
                          t.cfg.fuel) ))
          end);
      (* the fuel check must run at cycle fuel+1: cap every skip there *)
      cp_next_event = (fun ~now -> Some (max now (t.cfg.fuel + 1)));
      cp_skip = noop_skip;
    }
  in
  let ring =
    match t.ring with
    | None -> []
    | Some r ->
        [
          {
            Engine.cp_name = "ring";
            cp_tick = (fun ~cycle -> Ring.tick r ~cycle);
            cp_next_event = (fun ~now -> Ring.next_event r ~now);
            cp_skip = noop_skip;
          };
        ]
  in
  (* read [t.cores.(i)] on every call: fallback rebuilds the array *)
  let core i =
    {
      Engine.cp_name = Printf.sprintf "core.%d" i;
      cp_tick = (fun ~cycle -> Core.tick t.cores.(i) cycle);
      cp_next_event = (fun ~now -> Core.next_event t.cores.(i) ~now);
      cp_skip = (fun ~now ~cycles -> Core.skip t.cores.(i) ~now ~cycles);
    }
  in
  let hier =
    {
      (Engine.passive "hier") with
      Engine.cp_next_event = (fun ~now -> Hierarchy.next_event t.hier ~now);
    }
  in
  let sched =
    {
      Engine.cp_name = "sched";
      cp_tick = (fun ~cycle -> sched_tick t ~cycle);
      cp_next_event = (fun ~now -> sched_next_event t ~now);
      cp_skip = (fun ~now ~cycles -> sched_skip t ~now ~cycles);
    }
  in
  (governor :: ring) @ List.init t.n core @ [ hier; sched ]

let run ?compiled (cfg : config) (prog : Ir.program) (mem : Memory.t) : result
    =
  let t = create ?compiled cfg prog mem in
  Context.start t.serial_ctx prog.Ir.p_main [];
  let eng = Engine.create ~kind:cfg.engine ~clock:t.now () in
  List.iter (Engine.register eng) (components t);
  (* a raise mid-invocation (strict violation, fail-stop, watchdog) must
     not leave the caller's memory journaling *)
  Fun.protect
    ~finally:(fun () -> Memory.close_journal mem)
    (fun () ->
      while not t.done_ do
        Engine.step eng
      done);
  (* cores discarded by fallbacks contribute their statistics too *)
  let all_stats =
    Array.to_list (Array.map Core.stats t.cores) @ t.extra_stats
  in
  let total_retired =
    List.fold_left (fun acc (s : Stats.t) -> acc + s.Stats.retired) 0 all_stats
  in
  let metrics =
    let m = Metrics.create () in
    let core_stats = Array.map Core.stats t.cores in
    Array.iteri
      (fun i s ->
        Stats.export_metrics ~prefix:(Printf.sprintf "core.%d" i) s m)
      core_stats;
    Stats.export_metrics ~prefix:"cores" (Stats.merge all_stats) m;
    (match t.ring with Some r -> Ring.export_metrics r m | None -> ());
    Hierarchy.export_metrics t.hier m;
    Metrics.set_int m "exec.cycles" !(t.now);
    Metrics.set_int m "exec.serial_cycles" t.serial_cycles;
    Metrics.set_int m "exec.parallel_cycles" t.parallel_cycles;
    Metrics.set_int m "exec.invocations" (List.length t.invocations);
    Metrics.set_int m "exec.max_outstanding_signals" t.max_outstanding;
    Metrics.set_int m "exec.fallbacks" t.fallbacks;
    Metrics.set_int m "exec.violations" t.violations;
    Metrics.set_int m "exec.dead_cores" (t.n - t.n_active);
    Metrics.set_int m "exec.retired" total_retired;
    (* engine-specific counters: excluded from cross-engine metric
       comparisons (everything else must be bit-identical) *)
    Metrics.set_int m "engine.kind"
      (match Engine.kind eng with Engine.Legacy -> 0 | Engine.Event -> 1);
    Metrics.set_int m "engine.steps" (Engine.steps eng);
    Metrics.set_int m "engine.fast_forwards" (Engine.fast_forwards eng);
    Metrics.set_int m "engine.skipped_cycles" (Engine.skipped_cycles eng);
    (* skip effectiveness: fraction of simulated cycles not paid for
       with a tick round *)
    Metrics.set_float m "engine.skip_ratio"
      (float_of_int (Engine.skipped_cycles eng)
      /. float_of_int (max 1 !(t.now)));
    m
  in
  {
    r_metrics = metrics;
    r_cycles = !(t.now);
    r_ret = t.ret;
    r_mem = t.mem;
    r_core_stats = Array.map Core.stats t.cores;
    r_retired = total_retired;
    r_invocations = List.rev t.invocations;
    r_serial_cycles = t.serial_cycles;
    r_parallel_cycles = t.parallel_cycles;
    r_ring_dist_hist =
      (match t.ring with Some r -> Ring.dist_histogram r | None -> Array.make 7 0);
    r_ring_consumers_hist =
      (match t.ring with
      | Some r -> Ring.consumers_histogram r
      | None -> Array.make 7 0);
    r_max_outstanding_signals = t.max_outstanding;
    r_ring_hit_rate =
      (match t.ring with Some r -> Ring.ring_hit_rate r | None -> 1.0);
    r_fallbacks = t.fallbacks;
    r_violations = t.violations;
  }
