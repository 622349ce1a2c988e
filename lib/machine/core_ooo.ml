(* Out-of-order core timing model (Nehalem-like, as in Zesto).

   A single unified window holds dispatched uops.  Uops issue out of order
   when their producers have completed, bounded by issue width; they
   commit in order.  Per the paper (Section 5.1), wait/signal and all
   sequential-segment memory operations issue non-speculatively from the
   head of the window -- a lightweight local fence -- so regular accesses
   are never reordered around them.  Mispredicted branches block dispatch
   until they resolve, plus a front-end redirect penalty. *)

type entry = {
  u : Uop.t;
  seq : int;
  mutable issued : bool;
  mutable completion : int;
  mutable committed : bool;
  deps : entry list;            (* in-window producers of our sources *)
  fallback_srcs : int list;     (* sources with no in-window producer *)
  order_dep : entry option;     (* previous store-like op, for mem order *)
  mispredicted : bool;          (* branches: known at dispatch *)
}

type t = {
  cfg : Mach_config.core_config;
  supply : Core_model.supply;
  stats : Stats.t;
  predictor : Branch_pred.t;
  (* both indexed by register token; grown together on demand *)
  mutable reg_ready : int array;           (* committed producers *)
  mutable reg_writer : entry array;        (* latest writer, or [no_entry] *)
  (* the window: a FIFO ring buffer, oldest first from [head] *)
  window : entry array;
  mutable head : int;
  mutable window_size : int;
  mutable next_seq : int;
  mutable fetch_avail : int;
  mutable blocking_branch : entry option;  (* dispatch stalled until resolve *)
  mutable last_mem_order : entry option;
  (* event-engine bookkeeping *)
  mutable ne_progress : bool;  (* last tick committed/issued/dispatched *)
  mutable ne_poked : bool;     (* quiescence probe dispatched after tick *)
  mutable ne_supply_none : bool;  (* last dispatch ended on an empty pull *)
  mutable ne_idle_ticks : int;    (* consecutive empty-pull ticks *)
}

(* Placeholder for "no in-window writer" and for empty window slots.  It
   counts as committed, which is exactly how a register whose writer has
   left the window behaves. *)
let no_entry =
  {
    u = Uop.mk (Uop.Alu 0);
    seq = -1;
    issued = true;
    completion = 0;
    committed = true;
    deps = [];
    fallback_srcs = [];
    order_dep = None;
    mispredicted = false;
  }

let create ?retired_sink cfg supply =
  {
    cfg;
    supply;
    stats = Stats.create ?retired_sink ();
    predictor = Branch_pred.create ();
    reg_ready = Array.make 64 0;
    reg_writer = Array.make 64 no_entry;
    window = Array.make (Int.max 1 cfg.Mach_config.window) no_entry;
    head = 0;
    window_size = 0;
    next_seq = 0;
    fetch_avail = 0;
    blocking_branch = None;
    last_mem_order = None;
    ne_progress = false;
    ne_poked = false;
    ne_supply_none = false;
    ne_idle_ticks = 0;
  }

(* The [i]-th oldest window entry. *)
let[@inline] nth t i =
  let j = t.head + i in
  let cap = Array.length t.window in
  Array.unsafe_get t.window (if j >= cap then j - cap else j)

let push t e =
  let cap = Array.length t.window in
  let j = t.head + t.window_size in
  t.window.(if j >= cap then j - cap else j) <- e;
  t.window_size <- t.window_size + 1

let pop t =
  t.window.(t.head) <- no_entry;
  t.head <- (if t.head + 1 = Array.length t.window then 0 else t.head + 1);
  t.window_size <- t.window_size - 1

let reg_ready_at t r =
  if r < Array.length t.reg_ready then Array.unsafe_get t.reg_ready r else 0

let writer t r =
  if r < Array.length t.reg_writer then Array.unsafe_get t.reg_writer r
  else no_entry

let set_writer t d e =
  let n = Array.length t.reg_writer in
  if d >= n then begin
    let n' = Int.max (d + 1) (2 * n) in
    let rr = Array.make n' 0 and rw = Array.make n' no_entry in
    Array.blit t.reg_ready 0 rr 0 n;
    Array.blit t.reg_writer 0 rw 0 n;
    t.reg_ready <- rr;
    t.reg_writer <- rw
  end;
  t.reg_writer.(d) <- e

let rec deps_done deps cycle =
  match deps with
  | [] -> true
  | d :: rest -> d.issued && d.completion <= cycle && deps_done rest cycle

let rec fallback_ready t srcs cycle =
  match srcs with
  | [] -> true
  | r :: rest -> reg_ready_at t r <= cycle && fallback_ready t rest cycle

let srcs_ready t (e : entry) cycle =
  deps_done e.deps cycle && fallback_ready t e.fallback_srcs cycle

let order_ok (e : entry) =
  match e.order_dep with None -> true | Some d -> d.issued

let is_store_like (u : Uop.t) =
  match u.Uop.kind with
  | Uop.Store_priv _ | Uop.Shared _ -> true
  | _ -> false

let is_head t (e : entry) = t.window_size > 0 && nth t 0 == e

(* Split a uop's sources into in-window producers and registers read
   from committed state, both in reverse source order. *)
let rec split_srcs t srcs ds fb =
  match srcs with
  | [] -> (ds, fb)
  | r :: rest ->
      let e = writer t r in
      if not e.committed then split_srcs t rest (e :: ds) fb
      else split_srcs t rest ds (r :: fb)

(* -- dispatch -------------------------------------------------------- *)

let dispatch t cycle =
  let n = ref 0 in
  let continue_ = ref true in
  t.ne_supply_none <- false;
  while
    !continue_ && !n < t.cfg.Mach_config.width
    && t.window_size < t.cfg.Mach_config.window
    && cycle >= t.fetch_avail
    && t.blocking_branch = None
  do
    match t.supply.Core_model.sup_next () with
    | None ->
        t.ne_supply_none <- true;
        continue_ := false
    | Some u ->
        let deps, fallback = split_srcs t u.Uop.srcs [] [] in
        let mispredicted =
          match u.Uop.kind with
          | Uop.Branch { taken; static_id } ->
              Branch_pred.predict_update t.predictor ~static_id ~taken
          | _ -> false
        in
        let order_dep =
          match u.Uop.kind with
          | Uop.Load_priv _ | Uop.Store_priv _ | Uop.Shared _ ->
              t.last_mem_order
          | _ -> None
        in
        let e =
          {
            u;
            seq = t.next_seq;
            issued = false;
            completion = max_int;
            committed = false;
            deps;
            fallback_srcs = fallback;
            order_dep;
            mispredicted;
          }
        in
        t.next_seq <- t.next_seq + 1;
        (match u.Uop.dst with Some d -> set_writer t d e | None -> ());
        if is_store_like u then t.last_mem_order <- Some e;
        if mispredicted then t.blocking_branch <- Some e;
        push t e;
        incr n
  done;
  !n

(* -- issue ----------------------------------------------------------- *)

(* Try to issue entry [e]; returns true on success. *)
let try_issue t e cycle =
  match e.u.Uop.kind with
  | Uop.Alu lat ->
      e.issued <- true;
      e.completion <- cycle + lat;
      true
  | Uop.Branch _ ->
      e.issued <- true;
      e.completion <- cycle + 1;
      true
  | Uop.Load_priv addr ->
      let lat = t.supply.Core_model.sup_mem ~cycle ~write:false ~addr in
      e.issued <- true;
      e.completion <- cycle + lat;
      true
  | Uop.Store_priv addr ->
      ignore (t.supply.Core_model.sup_mem ~cycle ~write:true ~addr);
      e.issued <- true;
      e.completion <- cycle + 1;
      true
  | Uop.Shared op -> begin
      (* non-speculative: only from the head of the window *)
      if not (is_head t e) then false
      else
        match t.supply.Core_model.sup_shared ~cycle ~tag:e.u.Uop.meta op with
        | Uop.Sh_done { latency; value } ->
            (match op with
            | Uop.S_load _ -> (
                match e.u.Uop.sink with Some k -> k value | None -> ())
            | _ -> ());
            (match op with
            | Uop.S_load _ ->
                t.stats.Stats.shared_loads <- t.stats.Stats.shared_loads + 1
            | Uop.S_store _ ->
                t.stats.Stats.shared_stores <- t.stats.Stats.shared_stores + 1
            | _ -> ());
            e.issued <- true;
            e.completion <- cycle + Int.max 1 latency;
            true
        | Uop.Sh_retry -> false
    end

let issue t cycle =
  let ports = ref t.cfg.Mach_config.width in
  for i = 0 to t.window_size - 1 do
    let e = nth t i in
    if
      !ports > 0 && (not e.issued)
      && srcs_ready t e cycle
      && order_ok e
    then
      if try_issue t e cycle then begin
        decr ports;
        (* resolve a blocking mispredicted branch *)
        if e.mispredicted then begin
          t.fetch_avail <- e.completion + t.cfg.Mach_config.branch_penalty;
          match t.blocking_branch with
          | Some b when b == e -> t.blocking_branch <- None
          | _ -> ()
        end
      end
  done;
  t.cfg.Mach_config.width - !ports

(* -- commit ---------------------------------------------------------- *)

let commit t cycle =
  let n = ref 0 in
  while
    !n < t.cfg.Mach_config.width
    && t.window_size > 0
    && (let e = nth t 0 in
        e.issued && e.completion <= cycle)
  do
    let e = nth t 0 in
    e.committed <- true;
    pop t;
    incr n;
    Stats.retire t.stats;
    if Uop.is_sync e.u then
      t.stats.Stats.retired_sync <- t.stats.Stats.retired_sync + 1;
    (match e.u.Uop.dst with
    | Some d ->
        (* every token with a writer has a [reg_ready] slot *)
        t.reg_ready.(d) <- e.completion;
        if t.reg_writer.(d) == e then t.reg_writer.(d) <- no_entry
    | None -> ());
    match t.last_mem_order with
    | Some m when m == e -> t.last_mem_order <- None
    | _ -> ()
  done;
  !n

(* -- one clock ------------------------------------------------------- *)

(* Stall attribution when nothing committed/issued/dispatched this
   cycle: read off the window head.  Shared with [skip], which charges
   the same (frozen) state for every elided cycle. *)
let stall_bucket t =
  if t.window_size = 0 then Stats.Idle
  else
    let e = nth t 0 in
    begin
      match (e.u.Uop.kind, e.issued) with
      | Uop.Shared (Uop.S_wait _), false -> Stats.Dep_wait
      | Uop.Shared _, false -> Stats.Communication
      | (Uop.Load_priv _ | Uop.Store_priv _), true -> Stats.Mem_stall
      | Uop.Shared (Uop.S_load _), true -> Stats.Communication
      | _ -> Stats.Pipeline
    end

let tick t cycle =
  t.ne_poked <- false;
  let committed = commit t cycle in
  let issued = issue t cycle in
  let dispatched = dispatch t cycle in
  t.ne_progress <- committed > 0 || issued > 0 || dispatched > 0;
  (* Supply settledness: a single fruitless pull proves nothing (the
     next pull may run [finish_iteration] or start an iteration — see
     core_inorder.ml); the supply can often certify it directly
     ([sup_settled]), otherwise two consecutive empty-pull ticks do.
     Ticks whose dispatch never reached a pull (gated on window space,
     the front end or a blocking branch) leave the supply state
     unchanged. *)
  if t.ne_supply_none then
    if t.supply.Core_model.sup_settled () then t.ne_idle_ticks <- 2
    else t.ne_idle_ticks <- (if dispatched > 0 then 1 else t.ne_idle_ticks + 1)
  else if dispatched > 0 then t.ne_idle_ticks <- 0;
  let bucket =
    if issued > 0 || committed > 0 then begin
      (* busy unless purely synchronization is flowing *)
      let only_sync = ref (t.window_size > 0) in
      for i = 0 to t.window_size - 1 do
        let e = nth t i in
        if e.issued && not (Uop.is_sync e.u) then only_sync := false
      done;
      let only_sync = !only_sync in
      if only_sync && issued > 0 then Stats.Sync_instr else Stats.Busy
    end
    else stall_bucket t
  in
  Stats.charge t.stats bucket

(* ---- event-engine interface ------------------------------------------ *)

(* Earliest future cycle at which this core could change state on its
   own.  Candidates: the front-end redirect clearing (gates dispatch),
   issued entries' completions (gate commit and dependents), and
   unissued entries' committed-register ready times.  Entries blocked
   only on the shared world contribute nothing: the executor and ring
   publish those wake-ups themselves. *)
let rec earliest_reg t ~now w = function
  | [] -> w
  | r :: rest ->
      let c = reg_ready_at t r in
      earliest_reg t ~now (if c >= now && c < w then c else w) rest

let next_event t ~now =
  if t.ne_progress || t.ne_poked then now
  else if
    (* dispatch is unblocked but the supply is not provably settled: the
       very next pull may yield uops (or advance iteration scheduling) *)
    t.ne_idle_ticks < 2
    && t.window_size < t.cfg.Mach_config.window
    && now >= t.fetch_avail
    && t.blocking_branch = None
  then now
  else begin
    let w = ref (if t.fetch_avail >= now then t.fetch_avail else max_int) in
    for i = 0 to t.window_size - 1 do
      let e = nth t i in
      if e.issued then begin
        let c = e.completion in
        if c < max_int && c >= now && c < !w then w := c
      end
      else w := earliest_reg t ~now !w e.fallback_srcs
    done;
    !w
  end

let skip t ~now:_ ~cycles = Stats.charge_n t.stats (stall_bucket t) cycles

let quiescent t =
  t.window_size = 0
  &&
  match t.supply.Core_model.sup_next () with
  | None -> true
  | Some u ->
      (* push it back by dispatching it into the (empty) window *)
      let e =
        {
          u;
          seq = t.next_seq;
          issued = false;
          completion = max_int;
          committed = false;
          deps = [];
          fallback_srcs = u.Uop.srcs;
          order_dep = None;
          mispredicted = false;
        }
      in
      t.next_seq <- t.next_seq + 1;
      (match u.Uop.dst with Some d -> set_writer t d e | None -> ());
      if is_store_like u then t.last_mem_order <- Some e;
      push t e;
      (* the probe ran after this core's tick: the new entry has never
         been attempted, so the engine must not fast-forward past it *)
      t.ne_poked <- true;
      false

let stats t = t.stats

(* Diagnostic snapshot of the window head, for deadlock reports. *)
let describe t =
  if t.window_size = 0 then "window empty"
  else
      String.concat " | "
        (List.init t.window_size (fun i ->
             let e = nth t i in
             Format.asprintf "%a%s" Uop.pp e.u
               (if e.issued then "!" else "?")))
      ^ Printf.sprintf " (fetch_avail=%d blocked=%b)" t.fetch_avail
        (t.blocking_branch <> None)
