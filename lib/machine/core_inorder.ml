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
  mutable reg_ready : int array;   (* token -> ready cycle; grows *)
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

let create ?retired_sink ~id cfg supply =
  {
    my_id = id;
    cfg;
    supply;
    stats = Stats.create ?retired_sink ();
    predictor = Branch_pred.create ();
    reg_ready = Array.make 64 0;
    pending = None;
    fetch_avail = 0;
    mem_busy_until = 0;
    last_stall = Stats.Idle;
    ne_full = false;
    ne_attempt = min_int;
    ne_retry = false;
    ne_idle_ticks = 0;
  }

let ready t r =
  if r < Array.length t.reg_ready then Array.unsafe_get t.reg_ready r else 0

let rec srcs_ready t srcs cycle =
  match srcs with
  | [] -> true
  | r :: rest -> ready t r <= cycle && srcs_ready t rest cycle

let set_dst t (u : Uop.t) c =
  match u.Uop.dst with
  | Some d ->
      if d >= Array.length t.reg_ready then begin
        let a = Array.make (Int.max (d + 1) (2 * Array.length t.reg_ready)) 0 in
        Array.blit t.reg_ready 0 a 0 (Array.length t.reg_ready);
        t.reg_ready <- a
      end;
      t.reg_ready.(d) <- c
  | None -> ()

let rec src_ready_cycle t acc srcs =
  match srcs with
  | [] -> acc
  | r :: rest -> src_ready_cycle t (Int.max acc (ready t r)) rest

(* memory-unit occupancy: loads and stores contend for the port;
   wait/signal issue from the store queue for ordering but ride their own
   wires, so an outstanding data access does not delay them *)
let is_mem (u : Uop.t) =
  match u.Uop.kind with
  | Uop.Load_priv _ | Uop.Store_priv _
  | Uop.Shared (Uop.S_load _ | Uop.S_store _) ->
      true
  | _ -> false

(* Attempt to issue [u] at [cycle].  Returns [Stats.Busy] when it issued,
   otherwise the bucket the blockage is attributed to. *)
let try_issue t (u : Uop.t) cycle =
  t.ne_attempt <- cycle;
  t.ne_retry <- false;
  if cycle < t.fetch_avail then Stats.Pipeline
  else if not (srcs_ready t u.Uop.srcs cycle) then
    (* blocked on an in-flight producer; attribute to memory if the
       producer is a load still outstanding through the cache port *)
    if src_ready_cycle t 0 u.Uop.srcs > cycle && t.mem_busy_until > cycle
    then Stats.Mem_stall
    else Stats.Pipeline
  else if is_mem u && cycle < t.mem_busy_until then Stats.Mem_stall
  else begin
    match u.Uop.kind with
    | Uop.Alu lat ->
        set_dst t u (cycle + lat);
        Stats.retire t.stats;
        Stats.Busy
    | Uop.Branch { taken; static_id } ->
        let mis = Branch_pred.predict_update t.predictor ~static_id ~taken in
        if mis then t.fetch_avail <- cycle + 1 + t.cfg.Mach_config.branch_penalty;
        Stats.retire t.stats;
        Stats.Busy
    | Uop.Load_priv addr ->
        let lat = t.supply.Core_model.sup_mem ~cycle ~write:false ~addr in
        set_dst t u (cycle + lat);
        (* cache hits are pipelined; only misses block the port *)
        t.mem_busy_until <- (cycle + if lat <= 4 then 1 else lat);
        Stats.retire t.stats;
        Stats.Busy
    | Uop.Store_priv addr ->
        (* retire through a write buffer: charge the cache state change,
           hide the latency, occupy the port for one cycle *)
        ignore (t.supply.Core_model.sup_mem ~cycle ~write:true ~addr);
        t.mem_busy_until <- cycle + 1;
        Stats.retire t.stats;
        Stats.Busy
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
                t.mem_busy_until <- cycle + Int.max 1 latency;
                t.stats.Stats.shared_stores <- t.stats.Stats.shared_stores + 1
            | Uop.S_wait _ | Uop.S_signal _ ->
                t.stats.Stats.retired_sync <- t.stats.Stats.retired_sync + 1
            | Uop.S_flush -> ());
            Stats.retire t.stats;
            Stats.Busy
        | Uop.Sh_retry ->
            t.ne_retry <- true;
            match op with
            | Uop.S_wait _ -> Stats.Dep_wait
            | Uop.S_load _ | Uop.S_store _ | Uop.S_signal _ | Uop.S_flush ->
                Stats.Communication
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
  (* the blockage of the first uop that could not issue; [Pipeline] when
     the loop never ran (zero width) *)
  let stall = ref Stats.Pipeline in
  let continue_ = ref true in
  while !continue_ && !issued < t.cfg.Mach_config.width do
    (match t.pending with
    | None -> t.pending <- t.supply.Core_model.sup_next ()
    | Some _ -> ());
    match t.pending with
    | None ->
        if !issued = 0 then stall := Stats.Idle;
        continue_ := false
    | Some u -> (
        match try_issue t u cycle with
        | Stats.Busy ->
            t.pending <- None;
            incr issued;
            if not (Uop.is_sync u) then only_sync := false
        | b ->
            if !issued = 0 then stall := b;
            continue_ := false)
  done;
  let bucket =
    if !issued > 0 then if !only_sync then Stats.Sync_instr else Stats.Busy
    else !stall
  in
  t.last_stall <- bucket;
  t.ne_full <- !issued >= t.cfg.Mach_config.width;
  (* A single fruitless pull proves nothing: [Context.next_uop] returns
     [None] on the very call that executes the iteration's [ret], and
     the *next* pull is the one that runs [finish_iteration] / starts
     the next iteration.  The supply can often certify settledness
     directly ([sup_settled]); otherwise only two consecutive
     idle-ending ticks prove it (further pulls are pure). *)
  (if Option.is_none t.pending && not t.ne_full then
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
  else if not (srcs_ready t u.Uop.srcs cycle) then
    if src_ready_cycle t 0 u.Uop.srcs > cycle && t.mem_busy_until > cycle
    then Stats.Mem_stall
    else Stats.Pipeline
  else if is_mem u && cycle < t.mem_busy_until then Stats.Mem_stall
  else
    match u.Uop.kind with
    | Uop.Shared (Uop.S_wait _) -> Stats.Dep_wait
    | Uop.Shared _ -> Stats.Communication
    | _ -> Stats.Pipeline

(* [c] if it is a candidate wake-up cycle earlier than [w], else [w]. *)
let[@inline] earliest ~now (c : int) w = if c >= now && c < w then c else w

(* Earliest future cycle at which this core could change state on its
   own; [now] = active (do not skip); [Engine.never] (= [max_int]) =
   purely reactive (blocked on the shared world: only executor/ring
   events unblock it, and those components publish their own
   wake-ups). *)
let next_event t ~now =
  if t.ne_full then
    (* the last tick ended at the issue-width limit, so the state of the
       uop supply beyond it is unknown: assume active *)
    now
  else
    match t.pending with
    | None ->
        (* idle is only provably stable after two consecutive
           fruitless-pull ticks (see the tick epilogue) *)
        if t.ne_idle_ticks >= 2 then max_int else now
    | Some u ->
        if t.ne_attempt <> now - 1 then
          (* the pending uop was fetched after this core's tick (the
             scheduler's quiescence probe pulls from the supply): it has
             never been attempted, so no stall proof exists yet *)
          now
        else begin
          let w = earliest ~now t.fetch_avail max_int in
          let w = earliest ~now (src_ready_cycle t 0 u.Uop.srcs) w in
          let w = earliest ~now t.mem_busy_until w in
          if w < max_int then w else if t.ne_retry then max_int else now
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
