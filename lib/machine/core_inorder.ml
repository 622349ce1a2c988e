(* Two-way in-order core timing model (Atom-like, as in XIOSim).

   Issue is strictly in program order: a uop issues when its sources are
   ready, the fetch front-end is not redirecting, and its functional unit
   is free.  The data cache is blocking: one outstanding memory access.
   Shared-world uops poll the executor's callback until they complete,
   which is where wait-stalls and communication stalls appear. *)

type t = {
  my_id : int;
  cfg : Mach_config.core_config;
  supply : Core_model.supply;
  stats : Stats.t;
  predictor : Branch_pred.t;
  reg_ready : (int, int) Hashtbl.t;
  mutable pending : Uop.t option;  (* fetched, not yet issued *)
  mutable fetch_avail : int;       (* front-end redirect until this cycle *)
  mutable mem_busy_until : int;    (* blocking data-cache port *)
  mutable last_stall : Stats.bucket;
  (* event-engine bookkeeping: enough state to prove, after a tick, that
     the core cannot act before some future cycle *)
  mutable ne_full : bool;          (* tick ended at the width limit *)
  mutable ne_attempt : int;        (* cycle of the last try_issue call *)
  mutable ne_retry : bool;         (* that attempt ended in Sh_retry *)
  mutable ne_idle_ticks : int;     (* consecutive ticks ending in a
                                      fruitless supply pull *)
}

let trace_core =
  Helix_obs.Env.get "HELIX_TRACE_CORE" ~accepted:"a core id (integer >= 0)"
    ~default:(-1) (Helix_obs.Env.int_at_least 0)

let trace_win =
  Helix_obs.Env.get "HELIX_TRACE_WIN"
    ~accepted:"a cycle window LO-HI (integers >= 0)" ~default:(0, -1)
    (fun v ->
      match
        List.map (Helix_obs.Env.int_at_least 0) (String.split_on_char '-' v)
      with
      | [ Some lo; Some hi ] -> Some (lo, hi)
      | _ -> None)

let core_counter = ref (-1)

let create ?retired_sink cfg supply =
  incr core_counter;
  {
    my_id = !core_counter mod 16;
    cfg;
    supply;
    stats = Stats.create ?retired_sink ();
    predictor = Branch_pred.create ();
    reg_ready = Hashtbl.create 64;
    pending = None;
    fetch_avail = 0;
    mem_busy_until = 0;
    last_stall = Stats.Idle;
    ne_full = false;
    ne_attempt = min_int;
    ne_retry = false;
    ne_idle_ticks = 0;
  }

let ready t r = try Hashtbl.find t.reg_ready r with Not_found -> 0

let srcs_ready t (u : Uop.t) cycle =
  List.for_all (fun r -> ready t r <= cycle) u.Uop.srcs

let set_dst t (u : Uop.t) c =
  match u.Uop.dst with
  | Some d -> Hashtbl.replace t.reg_ready d c
  | None -> ()

let src_ready_cycle t (u : Uop.t) =
  List.fold_left (fun acc r -> max acc (ready t r)) 0 u.Uop.srcs

(* memory-unit occupancy: loads and stores contend for the port;
   wait/signal issue from the store queue for ordering but ride their own
   wires, so an outstanding data access does not delay them *)
let is_mem (u : Uop.t) =
  match u.Uop.kind with
  | Uop.Load_priv _ | Uop.Store_priv _
  | Uop.Shared (Uop.S_load _ | Uop.S_store _) ->
      true
  | _ -> false

(* Attempt to issue [u] at [cycle].  Returns [`Issued], or [`Stall b]
   attributing the blockage. *)
let try_issue t (u : Uop.t) cycle =
  t.ne_attempt <- cycle;
  t.ne_retry <- false;
  if cycle < t.fetch_avail then `Stall Stats.Pipeline
  else if not (srcs_ready t u cycle) then
    (* blocked on an in-flight producer; attribute to memory if the
       producer is a load still outstanding through the cache port *)
    if src_ready_cycle t u > cycle && t.mem_busy_until > cycle then
      `Stall Stats.Mem_stall
    else `Stall Stats.Pipeline
  else if is_mem u && cycle < t.mem_busy_until then `Stall Stats.Mem_stall
  else begin
    match u.Uop.kind with
    | Uop.Alu lat ->
        set_dst t u (cycle + lat);
        Stats.retire t.stats;
        `Issued
    | Uop.Branch { taken; static_id } ->
        let mis = Branch_pred.predict_update t.predictor ~static_id ~taken in
        if mis then t.fetch_avail <- cycle + 1 + t.cfg.Mach_config.branch_penalty;
        Stats.retire t.stats;
        `Issued
    | Uop.Load_priv addr ->
        let lat = t.supply.Core_model.sup_mem ~cycle ~write:false ~addr in
        set_dst t u (cycle + lat);
        (* cache hits are pipelined; only misses block the port *)
        t.mem_busy_until <- (cycle + if lat <= 4 then 1 else lat);
        Stats.retire t.stats;
        `Issued
    | Uop.Store_priv addr ->
        (* retire through a write buffer: charge the cache state change,
           hide the latency, occupy the port for one cycle *)
        ignore (t.supply.Core_model.sup_mem ~cycle ~write:true ~addr);
        t.mem_busy_until <- cycle + 1;
        Stats.retire t.stats;
        `Issued
    | Uop.Shared op -> begin
        match t.supply.Core_model.sup_shared ~cycle ~tag:u.Uop.meta op with
        | Uop.Sh_done { latency; value } ->
            (match op with
            | Uop.S_load _ ->
                set_dst t u (cycle + latency);
                t.mem_busy_until <- cycle + latency;
                (match u.Uop.sink with Some k -> k value | None -> ());
                t.stats.Stats.shared_loads <- t.stats.Stats.shared_loads + 1
            | Uop.S_store _ ->
                (* shared stores hold the port for their full latency:
                   ring injection is ~1 cycle, conventional ownership
                   acquisition is a round trip *)
                t.mem_busy_until <- cycle + max 1 latency;
                t.stats.Stats.shared_stores <- t.stats.Stats.shared_stores + 1
            | Uop.S_wait _ | Uop.S_signal _ ->
                t.stats.Stats.retired_sync <- t.stats.Stats.retired_sync + 1
            | Uop.S_flush -> ());
            Stats.retire t.stats;
            `Issued
        | Uop.Sh_retry ->
            t.ne_retry <- true;
            let bucket =
              match op with
              | Uop.S_wait _ -> Stats.Dep_wait
              | Uop.S_load _ | Uop.S_store _ | Uop.S_signal _ | Uop.S_flush ->
                  Stats.Communication
            in
            `Stall bucket
      end
  end

let tick t cycle =
  let lo, hi = trace_win in
  let tracing = t.my_id = trace_core && cycle >= lo && cycle <= hi in
  if tracing then
    (match t.pending with
    | Some u ->
        Printf.eprintf "@%d core%d pending %s membusy=%d\n" cycle t.my_id
          (Format.asprintf "%a" Uop.pp u)
          t.mem_busy_until
    | None -> ());
  let issued = ref 0 in
  let only_sync = ref true in
  let stall = ref None in
  let continue_ = ref true in
  while !continue_ && !issued < t.cfg.Mach_config.width do
    let next =
      match t.pending with
      | Some u -> Some u
      | None ->
          let u = t.supply.Core_model.sup_next () in
          t.pending <- u;
          u
    in
    match next with
    | None ->
        if !issued = 0 then stall := Some Stats.Idle;
        continue_ := false
    | Some u -> begin
        match try_issue t u cycle with
        | `Issued ->
            t.pending <- None;
            incr issued;
            if not (Uop.is_sync u) then only_sync := false
        | `Stall b ->
            if !issued = 0 then stall := Some b;
            continue_ := false
      end
  done;
  let bucket =
    if !issued > 0 then if !only_sync then Stats.Sync_instr else Stats.Busy
    else match !stall with Some b -> b | None -> Stats.Pipeline
  in
  t.last_stall <- bucket;
  t.ne_full <- !issued >= t.cfg.Mach_config.width;
  (* A single fruitless pull proves nothing: [Context.next_uop] returns
     [None] on the very call that executes the iteration's [ret], and
     the *next* pull is the one that runs [finish_iteration] / starts
     the next iteration.  The supply can often certify settledness
     directly ([sup_settled]); otherwise only two consecutive
     idle-ending ticks prove it (further pulls are pure). *)
  (if t.pending = None && not t.ne_full then
     if t.supply.Core_model.sup_settled () then t.ne_idle_ticks <- 2
     else t.ne_idle_ticks <- (if !issued > 0 then 1 else t.ne_idle_ticks + 1)
   else t.ne_idle_ticks <- 0);
  Stats.charge t.stats bucket

(* ---- event-engine interface ------------------------------------------ *)

(* Pure re-derivation of the stall bucket [try_issue] would report for
   [u] at [cycle], mirroring its check order exactly.  Only called when
   the uop provably cannot issue at [cycle] (inside a skip window), so
   the fall-through arm for issuable non-shared uops is unreachable. *)
let stall_bucket t (u : Uop.t) cycle =
  if cycle < t.fetch_avail then Stats.Pipeline
  else if not (srcs_ready t u cycle) then
    if src_ready_cycle t u > cycle && t.mem_busy_until > cycle then
      Stats.Mem_stall
    else Stats.Pipeline
  else if is_mem u && cycle < t.mem_busy_until then Stats.Mem_stall
  else
    match u.Uop.kind with
    | Uop.Shared (Uop.S_wait _) -> Stats.Dep_wait
    | Uop.Shared _ -> Stats.Communication
    | _ -> Stats.Pipeline

(* Earliest future cycle at which this core could change state on its
   own; [Some now] = active (do not skip); [None] = purely reactive
   (blocked on the shared world: only executor/ring events unblock it,
   and those components publish their own wake-ups). *)
let next_event t ~now =
  if t.ne_full then
    (* the last tick ended at the issue-width limit, so the state of the
       uop supply beyond it is unknown: assume active *)
    Some now
  else
    match t.pending with
    | None ->
        (* idle is only provably stable after two consecutive
           fruitless-pull ticks (see the tick epilogue) *)
        if t.ne_idle_ticks >= 2 then None else Some now
    | Some u ->
        if t.ne_attempt <> now - 1 then
          (* the pending uop was fetched after this core's tick (the
             scheduler's quiescence probe pulls from the supply): it has
             never been attempted, so no stall proof exists yet *)
          Some now
        else begin
          let w = ref max_int in
          let add c = if c >= now && c < !w then w := c in
          add t.fetch_avail;
          add (src_ready_cycle t u);
          add t.mem_busy_until;
          if !w < max_int then Some !w
          else if t.ne_retry then None
          else Some now
        end

(* Account for [cycles] skipped cycles starting at [now]: the ticks the
   engine elided would each have charged the (constant) stall bucket of
   the current state. *)
let skip t ~now ~cycles =
  let b =
    match t.pending with
    | None -> Stats.Idle
    | Some u -> stall_bucket t u now
  in
  t.last_stall <- b;
  Stats.charge_n t.stats b cycles

let quiescent t =
  match t.pending with
  | Some _ -> false
  | None -> (
      match t.supply.Core_model.sup_next () with
      | None -> true
      | Some u ->
          t.pending <- Some u;
          false)

let stats t = t.stats

let describe t =
  match t.pending with
  | None -> "no pending"
  | Some u ->
      Format.asprintf "pending=%a membusy=%d fetch_avail=%d" Uop.pp u
        t.mem_busy_until t.fetch_avail
