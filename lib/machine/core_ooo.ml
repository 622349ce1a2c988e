(* Out-of-order core timing model (Nehalem-like, as in Zesto).

   A single unified window holds dispatched uops.  Uops issue out of order
   when their producers have completed, bounded by issue width; they
   commit in order.  Per the paper (Section 5.1), wait/signal and all
   sequential-segment memory operations issue non-speculatively from the
   head of the window -- a lightweight local fence -- so regular accesses
   are never reordered around them.  Mispredicted branches block dispatch
   until they resolve, plus a front-end redirect penalty.

   Window layout.  Every uop gets a sequence number at dispatch; the
   window holds the consecutive seqs [head_seq, next_seq) and each one
   lives in the slot [seq land mask] of a set of parallel arrays (a power
   of two at least the window size), so a window entry is a handful of
   array cells and dispatch, issue and commit allocate nothing.  Other
   entries are named by seq: a producer, the previous store-like op and
   a blocking branch.  A seq below [head_seq] has committed, and a
   committed producer is ready: it completed no later than it
   committed.  An entry's sources are split at dispatch into in-window
   producers (their seqs) and registers read from committed state (their
   ready cycles, fixed from then on: any later writer of such a register
   is younger and commits after the entry has issued). *)

type t = {
  cfg : Mach_config.core_config;
  supply : Core_model.supply;
  stats : Stats.t;
  predictor : Branch_pred.t;
  (* both indexed by register token; grown together on demand *)
  mutable reg_ready : int array;   (* committed producers *)
  mutable reg_writer : int array;
      (* seq of the latest writer, or -1; committed when below [head_seq] *)
  (* the window, one slot per in-flight seq *)
  mask : int;
  uops : Uop.t array;
  completion : int array;          (* [max_int] until issued *)
  src_ready : int array;
      (* cycle by which every source is ready, or [unresolved] while an
         in-window producer has not issued *)
  blocker : int array;             (* while unresolved: an unissued producer *)
  order_dep : int array;           (* previous store-like op's seq, or -1 *)
  mispredicted : bool array;       (* branches: known at dispatch *)
  n_deps : int array;
  n_srcs : int array;
  mutable stride : int;
  mutable srcs : int array;
      (* [stride] cells per slot: the [n_deps] producer seqs, then the
         fallback registers' ready cycles (read by [next_event]) *)
  mutable head_seq : int;          (* oldest in-window seq *)
  mutable window_size : int;
  mutable first_unissued : int;    (* every seq below it has issued *)
  mutable unissued : int;          (* in-window entries not yet issued *)
  mutable issued_busy : int;       (* issued in-window non-sync entries *)
  mutable fetch_avail : int;
  mutable blocking_branch : int;   (* seq; dispatch stalled until it issues *)
  mutable last_mem_order : int;    (* seq of the latest store-like op *)
  (* event-engine bookkeeping *)
  mutable ne_progress : bool;  (* last tick committed/issued/dispatched *)
  mutable ne_poked : bool;     (* quiescence probe dispatched after tick *)
  mutable ne_supply_none : bool;  (* last dispatch ended on an empty pull *)
  mutable ne_idle_ticks : int;    (* consecutive empty-pull ticks *)
}

let unresolved = -1
let placeholder = Uop.mk (Uop.Alu 0)

let create ?retired_sink cfg supply =
  let rec pow2 n =
    if n >= Int.max 1 cfg.Mach_config.window then n else pow2 (2 * n)
  in
  let cap = pow2 1 and stride = 4 in
  {
    cfg;
    supply;
    stats = Stats.create ?retired_sink ();
    predictor = Branch_pred.create ();
    reg_ready = Array.make 64 0;
    reg_writer = Array.make 64 (-1);
    mask = cap - 1;
    uops = Array.make cap placeholder;
    completion = Array.make cap max_int;
    src_ready = Array.make cap unresolved;
    blocker = Array.make cap (-1);
    order_dep = Array.make cap (-1);
    mispredicted = Array.make cap false;
    n_deps = Array.make cap 0;
    n_srcs = Array.make cap 0;
    stride;
    srcs = Array.make (cap * stride) 0;
    head_seq = 0;
    window_size = 0;
    first_unissued = 0;
    unissued = 0;
    issued_busy = 0;
    fetch_avail = 0;
    blocking_branch = -1;
    last_mem_order = -1;
    ne_progress = false;
    ne_poked = false;
    ne_supply_none = false;
    ne_idle_ticks = 0;
  }

let reg_ready_at t r =
  if r < Array.length t.reg_ready then Array.unsafe_get t.reg_ready r else 0

let writer t r =
  if r < Array.length t.reg_writer then Array.unsafe_get t.reg_writer r
  else -1

let set_writer t d seq =
  let n = Array.length t.reg_writer in
  if d >= n then begin
    let n' = Int.max (d + 1) (2 * n) in
    let rr = Array.make n' 0 and rw = Array.make n' (-1) in
    Array.blit t.reg_ready 0 rr 0 n;
    Array.blit t.reg_writer 0 rw 0 n;
    t.reg_ready <- rr;
    t.reg_writer <- rw
  end;
  t.reg_writer.(d) <- seq

(* Room for [n] sources per slot. *)
let grow_stride t n =
  let stride = Int.max n (2 * t.stride) in
  let srcs = Array.make (Array.length t.uops * stride) 0 in
  for s = 0 to t.mask do
    Array.blit t.srcs (s * t.stride) srcs (s * stride) t.n_srcs.(s)
  done;
  t.srcs <- srcs;
  t.stride <- stride

(* An in-flight entry has issued; a committed one (seq below the head,
   -1 included) has too. *)
let[@inline] issued_seq t seq =
  seq < t.head_seq
  || Array.unsafe_get t.completion (seq land t.mask) < max_int

(* Slot [s]'s producers: cache the cycle by which every source is ready
   once all of them have issued, or remember one that has not. *)
let resolve t s =
  let base = s * t.stride in
  let nd = Array.unsafe_get t.n_deps s in
  let ready = ref 0 in
  for k = base + nd to base + Array.unsafe_get t.n_srcs s - 1 do
    ready := Int.max !ready (Array.unsafe_get t.srcs k)
  done;
  let k = ref 0 in
  while !k < nd do
    let p = Array.unsafe_get t.srcs (base + !k) in
    if p < t.head_seq then incr k
    else begin
      let c = Array.unsafe_get t.completion (p land t.mask) in
      if c = max_int then begin
        Array.unsafe_set t.blocker s p;
        k := nd + 1
      end
      else begin
        if c > !ready then ready := c;
        incr k
      end
    end
  done;
  if !k = nd then Array.unsafe_set t.src_ready s !ready

(* Whether slot [s]'s sources are all ready at [cycle]. *)
let[@inline] srcs_ready t s cycle =
  let r = Array.unsafe_get t.src_ready s in
  if r <> unresolved then r <= cycle
  else if issued_seq t (Array.unsafe_get t.blocker s) then begin
    resolve t s;
    let r = Array.unsafe_get t.src_ready s in
    r <> unresolved && r <= cycle
  end
  else false

let is_store_like (u : Uop.t) =
  match u.Uop.kind with
  | Uop.Store_priv _ | Uop.Shared _ -> true
  | _ -> false

(* -- dispatch -------------------------------------------------------- *)

(* Put [u] into the window under the next seq.  [predict] consults the
   branch predictor; the quiescence probe does not. *)
let enter t (u : Uop.t) ~predict =
  let seq = t.head_seq + t.window_size in
  let s = seq land t.mask in
  let n = List.length u.Uop.srcs in
  if n > t.stride then grow_stride t n;
  let base = s * t.stride in
  let nd = ref 0 and hi = ref n and fb = ref 0 in
  let rest = ref u.Uop.srcs and more = ref true in
  while !more do
    match !rest with
    | [] -> more := false
    | r :: tl ->
        rest := tl;
        let w = writer t r in
        if w >= t.head_seq then begin
          Array.unsafe_set t.srcs (base + !nd) w;
          incr nd
        end
        else begin
          let c = reg_ready_at t r in
          decr hi;
          Array.unsafe_set t.srcs (base + !hi) c;
          if c > !fb then fb := c
        end
  done;
  Array.unsafe_set t.uops s u;
  t.completion.(s) <- max_int;
  t.src_ready.(s) <- (if !nd = 0 then !fb else unresolved);
  t.blocker.(s) <- -1;
  t.n_deps.(s) <- !nd;
  t.n_srcs.(s) <- n;
  let mispredicted =
    predict
    &&
    match u.Uop.kind with
    | Uop.Branch { taken; static_id } ->
        Branch_pred.predict_update t.predictor ~static_id ~taken
    | _ -> false
  in
  t.mispredicted.(s) <- mispredicted;
  t.order_dep.(s) <-
    (match u.Uop.kind with
    | Uop.Load_priv _ | Uop.Store_priv _ | Uop.Shared _ -> t.last_mem_order
    | _ -> -1);
  (match u.Uop.dst with Some d -> set_writer t d seq | None -> ());
  if is_store_like u then t.last_mem_order <- seq;
  if mispredicted then t.blocking_branch <- seq;
  t.window_size <- t.window_size + 1;
  t.unissued <- t.unissued + 1

let dispatch t cycle =
  let n = ref 0 in
  let continue_ = ref true in
  t.ne_supply_none <- false;
  while
    !continue_ && !n < t.cfg.Mach_config.width
    && t.window_size < t.cfg.Mach_config.window
    && cycle >= t.fetch_avail
    && t.blocking_branch < 0
  do
    match t.supply.Core_model.sup_next () with
    | None ->
        t.ne_supply_none <- true;
        continue_ := false
    | Some u ->
        enter t u ~predict:true;
        incr n
  done;
  !n

(* -- issue ----------------------------------------------------------- *)

(* Try to issue the entry [seq] in slot [s]; returns its completion
   cycle, or [max_int] when it cannot issue this cycle. *)
let try_issue t s seq cycle =
  let u = Array.unsafe_get t.uops s in
  match u.Uop.kind with
  | Uop.Alu lat -> cycle + lat
  | Uop.Branch _ -> cycle + 1
  | Uop.Load_priv addr ->
      cycle + t.supply.Core_model.sup_mem ~cycle ~write:false ~addr
  | Uop.Store_priv addr ->
      ignore (t.supply.Core_model.sup_mem ~cycle ~write:true ~addr);
      cycle + 1
  | Uop.Shared op -> begin
      (* non-speculative: only from the head of the window *)
      if seq <> t.head_seq then max_int
      else
        match t.supply.Core_model.sup_shared ~cycle ~tag:u.Uop.meta op with
        | Uop.Sh_done { latency; value } ->
            (match op with
            | Uop.S_load _ ->
                (match u.Uop.sink with Some k -> k value | None -> ());
                t.stats.Stats.shared_loads <- t.stats.Stats.shared_loads + 1
            | Uop.S_store _ ->
                t.stats.Stats.shared_stores <- t.stats.Stats.shared_stores + 1
            | _ -> ());
            cycle + Int.max 1 latency
        | Uop.Sh_retry -> max_int
    end

(* Oldest first from the oldest unissued entry, until the issue ports or
   the unissued entries run out. *)
let issue t cycle =
  let width = t.cfg.Mach_config.width in
  let ports = ref width and left = ref t.unissued in
  let seq = ref t.first_unissued in
  while !ports > 0 && !left > 0 do
    let s = !seq land t.mask in
    if Array.unsafe_get t.completion s = max_int then begin
      decr left;
      if srcs_ready t s cycle && issued_seq t (Array.unsafe_get t.order_dep s)
      then begin
        let c = try_issue t s !seq cycle in
        if c < max_int then begin
          Array.unsafe_set t.completion s c;
          decr ports;
          t.unissued <- t.unissued - 1;
          if not (Uop.is_sync (Array.unsafe_get t.uops s)) then
            t.issued_busy <- t.issued_busy + 1;
          (* resolve a blocking mispredicted branch *)
          if Array.unsafe_get t.mispredicted s then begin
            t.fetch_avail <- c + t.cfg.Mach_config.branch_penalty;
            if t.blocking_branch = !seq then t.blocking_branch <- -1
          end
        end
      end
    end;
    incr seq
  done;
  let f = ref t.first_unissued and next = t.head_seq + t.window_size in
  while !f < next && Array.unsafe_get t.completion (!f land t.mask) < max_int do
    incr f
  done;
  t.first_unissued <- !f;
  width - !ports

(* -- commit ---------------------------------------------------------- *)

let commit t cycle =
  let n = ref 0 in
  while
    !n < t.cfg.Mach_config.width
    && t.window_size > 0
    && Array.unsafe_get t.completion (t.head_seq land t.mask) <= cycle
  do
    let s = t.head_seq land t.mask in
    let u = Array.unsafe_get t.uops s in
    t.head_seq <- t.head_seq + 1;
    t.window_size <- t.window_size - 1;
    incr n;
    Stats.retire t.stats;
    if Uop.is_sync u then
      t.stats.Stats.retired_sync <- t.stats.Stats.retired_sync + 1
    else t.issued_busy <- t.issued_busy - 1;
    (* every token with a writer has a [reg_ready] slot *)
    match u.Uop.dst with
    | Some d -> t.reg_ready.(d) <- Array.unsafe_get t.completion s
    | None -> ()
  done;
  !n

(* -- one clock ------------------------------------------------------- *)

(* Stall attribution when nothing committed/issued/dispatched this
   cycle: read off the window head.  Shared with [skip], which charges
   the same (frozen) state for every elided cycle. *)
let stall_bucket t =
  if t.window_size = 0 then Stats.Idle
  else
    let s = t.head_seq land t.mask in
    let issued = Array.unsafe_get t.completion s < max_int in
    match ((Array.unsafe_get t.uops s).Uop.kind, issued) with
    | Uop.Shared (Uop.S_wait _), false -> Stats.Dep_wait
    | Uop.Shared _, false -> Stats.Communication
    | (Uop.Load_priv _ | Uop.Store_priv _), true -> Stats.Mem_stall
    | Uop.Shared (Uop.S_load _), true -> Stats.Communication
    | _ -> Stats.Pipeline

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
    if issued > 0 || committed > 0 then
      (* busy unless purely synchronization is flowing *)
      if issued > 0 && t.window_size > 0 && t.issued_busy = 0 then
        Stats.Sync_instr
      else Stats.Busy
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
let next_event t ~now =
  if t.ne_progress || t.ne_poked then now
  else if
    (* dispatch is unblocked but the supply is not provably settled: the
       very next pull may yield uops (or advance iteration scheduling) *)
    t.ne_idle_ticks < 2
    && t.window_size < t.cfg.Mach_config.window
    && now >= t.fetch_avail
    && t.blocking_branch < 0
  then now
  else begin
    let w = ref (if t.fetch_avail >= now then t.fetch_avail else max_int) in
    for i = 0 to t.window_size - 1 do
      let s = (t.head_seq + i) land t.mask in
      let c = Array.unsafe_get t.completion s in
      if c < max_int then begin
        if c >= now && c < !w then w := c
      end
      else begin
        let base = s * t.stride in
        for k = base + t.n_deps.(s) to base + t.n_srcs.(s) - 1 do
          let c = Array.unsafe_get t.srcs k in
          if c >= now && c < !w then w := c
        done
      end
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
      enter t u ~predict:false;
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
           let s = (t.head_seq + i) land t.mask in
           Format.asprintf "%a%s" Uop.pp t.uops.(s)
             (if t.completion.(s) < max_int then "!" else "?")))
    ^ Printf.sprintf " (fetch_avail=%d blocked=%b)" t.fetch_avail
        (t.blocking_branch >= 0)
