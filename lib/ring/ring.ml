(* The ring cache: a unidirectional ring of per-core nodes that proactively
   circulates shared data and synchronization signals (paper Section 5).

   Timing model and functional model are coupled: node arrays hold real
   (possibly not-yet-updated) values, so a protocol violation -- e.g. a
   load executed without its wait -- returns stale data and is caught by
   the end-to-end memory oracle.

   Flow control: links have bounded buffers (credit-based in hardware); a
   node forwards ring traffic with priority and injects local stores and
   signals only on cycles with no traffic to forward, which preserves the
   invariant that a message in flight always finds buffer space ahead and
   keeps the ring deadlock-free.

   The authoritative image of all shared stores performed during the
   current parallel loop lives in [current], updated in injection order --
   which, by the compiler's guarantees plus in-order links, is exactly the
   order in which segment instances execute.  Ring misses (capacity) are
   served from it after a full-lap round trip through the owner node's L1
   path.

   The wires themselves, their credits and the seeded fault plan (delay,
   and the lossy classes with their go-back-N recovery) are the link
   layer's ([Link]); this file keeps the nodes.  The one fault class that
   acts on a node, fail-stop, is handled here: the node degrades to a
   repeater. *)

type fault_plan = Link.fault_plan

let faulty = Link.faulty
let fault_plan_of_string = Link.fault_plan_of_string
let fault_plan_to_string = Link.fault_plan_to_string

type config = {
  n_nodes : int;
  link_latency : int;        (* cycles per hop *)
  data_bandwidth : int;      (* data messages per link per cycle *)
  signal_bandwidth : int;    (* signal messages per link per cycle *)
  injection_latency : int;   (* core to ring-node *)
  array_size_words : int;    (* per-node cache array; max_int = unbounded *)
  array_assoc : int;
  array_line_words : int;    (* 1 word: no false sharing *)
  link_capacity : int;       (* per-link buffering (credits) *)
  inject_capacity : int;     (* per-node injection queue *)
  (* ablation knobs (defaults reproduce the paper's design) *)
  greedy_sig_inject : bool;  (* signal wires inject with leftover bandwidth *)
  flush_invalidates : bool;  (* flush drops clean copies too *)
  faults : fault_plan option;  (* seeded delay / lossy / fail-stop plan *)
}

let default_config ~n_nodes =
  {
    n_nodes;
    link_latency = 1;
    data_bandwidth = 1;
    signal_bandwidth = 5;
    injection_latency = 2;
    array_size_words = 128; (* 1KB of 8-byte words *)
    array_assoc = 8;
    array_line_words = 1;
    link_capacity = 4;
    inject_capacity = 8;
    greedy_sig_inject = true;
    flush_invalidates = false;
    faults = None;
  }

(* Callbacks into the rest of the memory system. *)
type env = {
  backing_load : int -> int;          (* L1/L2/DRAM functional read *)
  backing_store : int -> int -> unit; (* flush write-back *)
  owner_l1_latency : core:int -> cycle:int -> write:bool -> addr:int -> int;
}

type store_meta = {
  sm_origin : int;
  mutable sm_consumers : int;         (* bitmask of consumer nodes *)
  mutable sm_first_dist : int option; (* producer -> first consumer *)
}

(* A node keeps, per traffic class (data or signals), an input buffer fed
   by its incoming wire and an injection queue from the attached core.
   The paper uses "separate dedicated wires for data and signals"
   (Section 6.3), so the two classes never block each other. *)
type node = {
  id : int;
  array : Node_array.t;
  sigbuf : Signal_buffer.t;
  in_data : Msg.t Queue.t;
  in_sig : Msg.t Queue.t;
  inject_data : (int * Msg.payload * int) Queue.t;
      (* (ready_cycle, payload, acceptance seq) *)
  inject_sig : (int * Msg.payload * int) Queue.t;
  mutable stall_until : int;              (* busy with L1 traffic *)
  mutable forwarded : int;
  mutable injected : int;
  mutable last_accepted_data : int;       (* newest data seq from my core *)
  applied_data : int array;               (* per-origin newest applied seq *)
  mutable dead : bool;
      (* fail-stopped core: the node degrades to a dumb repeater (the
         ring is "reknitted" -- traffic transits its position without
         being consumed), never applies or injects *)
}

type t = {
  cfg : config;
  env : env;
  trace : Helix_obs.Trace.t option;
  nodes : node array;
  link : Link.t;  (* wire i: node i -> node i+1, both classes *)
  mutable next_seq : int;
  current : (int, int) Hashtbl.t;      (* authoritative loop-shared image *)
  meta : (int, store_meta) Hashtbl.t;  (* live store metadata per address *)
  (* figure-4 histograms: index 0 unused; 1..5 exact; 6 = "6+" *)
  dist_hist : int array;
  consumers_hist : int array;
  mutable ring_hits : int;
  mutable ring_misses : int;
  mutable blocked_injections : int;
  mutable messages_retired : int;
  (* hierarchical quiescence: messages alive per class, counted from
     injection acceptance to retirement, wherever they currently sit
     (injection queue, input buffer or link).  Keeping the roll-up
     incremental makes [drained]/[data_drained] O(1) instead of a scan
     over every queue, which the executor performs every parallel
     cycle. *)
  mutable inflight_data : int;
  mutable inflight_sig : int;
  mutable reknits : int;            (* fail-stopped nodes routed around *)
  resident : (int, unit) Hashtbl.t;
      (* superset of addresses cached in some node array, so serial-phase
         stores can invalidate stale copies cheaply *)
}

let create ?trace (cfg : config) (env : env) : t =
  (match cfg.faults with
  | Some { Link.fl_fail_stop = Some (node, _); _ }
    when node < 0 || node >= cfg.n_nodes ->
      invalid_arg
        (Printf.sprintf "Ring.create: fail-stop of node %d on a %d-node ring"
           node cfg.n_nodes)
  | _ -> ());
  let nodes =
    Array.init cfg.n_nodes (fun id ->
        {
          id;
          array =
            Node_array.create ~line_words:cfg.array_line_words
              ~size_words:cfg.array_size_words ~assoc:cfg.array_assoc ();
          sigbuf = Signal_buffer.create ();
          in_data = Queue.create ();
          in_sig = Queue.create ();
          inject_data = Queue.create ();
          inject_sig = Queue.create ();
          stall_until = 0;
          forwarded = 0;
          injected = 0;
          last_accepted_data = -1;
          applied_data = Array.make cfg.n_nodes (-1);
          dead = false;
        })
  in
  {
    cfg;
    env;
    trace;
    nodes;
    link =
      Link.create ?trace ~latency:cfg.link_latency
        ~capacity:cfg.link_capacity
        ~inbox_data:(Array.map (fun n -> n.in_data) nodes)
        ~inbox_sig:(Array.map (fun n -> n.in_sig) nodes)
        cfg.faults;
    next_seq = 0;
    current = Hashtbl.create 1024;
    meta = Hashtbl.create 1024;
    dist_hist = Array.make 7 0;
    consumers_hist = Array.make 7 0;
    ring_hits = 0;
    ring_misses = 0;
    blocked_injections = 0;
    messages_retired = 0;
    inflight_data = 0;
    inflight_sig = 0;
    reknits = 0;
    resident = Hashtbl.create 1024;
  }

let succ t i = (i + 1) mod t.cfg.n_nodes

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

let bucket_of n = if n >= 6 then 6 else n

let finalize_meta t addr =
  match Hashtbl.find_opt t.meta addr with
  | None -> ()
  | Some m ->
      let nc = popcount m.sm_consumers in
      if nc > 0 then begin
        t.consumers_hist.(bucket_of nc) <- t.consumers_hist.(bucket_of nc) + 1;
        match m.sm_first_dist with
        | Some d when d >= 1 ->
            t.dist_hist.(bucket_of d) <- t.dist_hist.(bucket_of d) + 1
        | _ -> ()
      end;
      Hashtbl.remove t.meta addr

(* -- core-facing operations ----------------------------------------- *)

(* A store from the attached core.  Returns false when the injection queue
   is full (the core retries next cycle).  The authoritative image is
   updated immediately: acceptance order is the protocol's store order. *)
let try_store t ~node ~addr ~value ~cycle =
  let n = t.nodes.(node) in
  if Queue.length n.inject_data >= t.cfg.inject_capacity then begin
    t.blocked_injections <- t.blocked_injections + 1;
    Helix_obs.Trace.inject_blocked t.trace ~cycle ~node ~cls:"data";
    false
  end
  else begin
    finalize_meta t addr;
    Hashtbl.replace t.meta addr
      { sm_origin = node; sm_consumers = 0; sm_first_dist = None };
    Hashtbl.replace t.current addr value;
    (* locally visible right away; remote nodes see it when it arrives *)
    ignore (Node_array.insert n.array addr value);
    Hashtbl.replace t.resident addr ();
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    n.last_accepted_data <- seq;
    (* the store is applied locally at acceptance *)
    n.applied_data.(node) <- seq;
    let j = Link.inject_delay t.link ~data:true ~cycle ~node in
    Queue.add
      (cycle + t.cfg.injection_latency + j, Msg.Data { addr; value }, seq)
      n.inject_data;
    t.inflight_data <- t.inflight_data + 1;
    Helix_obs.Trace.store_inject t.trace ~cycle ~node ~addr ~value ~seq;
    true
  end

let try_signal t ~node ~seg ~cycle =
  let n = t.nodes.(node) in
  if Queue.length n.inject_sig >= t.cfg.inject_capacity then begin
    t.blocked_injections <- t.blocked_injections + 1;
    Helix_obs.Trace.inject_blocked t.trace ~cycle ~node ~cls:"sig";
    false
  end
  else begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let j = Link.inject_delay t.link ~data:false ~cycle ~node in
    Queue.add
      ( cycle + t.cfg.injection_latency + j,
        Msg.Sig { seg; barrier = n.last_accepted_data },
        seq )
      n.inject_sig;
    t.inflight_sig <- t.inflight_sig + 1;
    Helix_obs.Trace.signal_inject t.trace ~cycle ~node ~seg ~seq
      ~barrier:n.last_accepted_data;
    true
  end

(* A load from the attached core, executed at [cycle].  Returns the value
   and the total latency.  Hits read the node's local array (which may
   legitimately hold a value older than [current] -- that is the
   decoupling semantics the wait protocol must protect against).  Misses
   go around the ring to the owner's L1 path and return the authoritative
   value. *)
let load t ~node ~addr ~cycle =
  let n = t.nodes.(node) in
  match Node_array.lookup n.array addr with
  | Some v ->
      t.ring_hits <- t.ring_hits + 1;
      (* consumer tracking for Figures 4b/4c *)
      (match Hashtbl.find_opt t.meta addr with
      | Some m when m.sm_origin <> node ->
          m.sm_consumers <- m.sm_consumers lor (1 lsl node);
          if m.sm_first_dist = None then
            m.sm_first_dist <-
              Some
                (Owner.undirected_distance ~n_nodes:t.cfg.n_nodes
                   ~src:m.sm_origin ~dst:node)
      | _ -> ());
      (v, t.cfg.injection_latency + 1)
  | None ->
      t.ring_misses <- t.ring_misses + 1;
      let owner = Owner.node_of ~n_nodes:t.cfg.n_nodes addr in
      let value =
        match Hashtbl.find_opt t.current addr with
        | Some v -> v
        | None -> t.env.backing_load addr
      in
      (* round trip: to the owner and back around the ring, plus the
         owner's L1 access; the owner stalls while servicing *)
      let l1 =
        t.env.owner_l1_latency ~core:owner ~cycle ~write:false ~addr
      in
      let lat =
        t.cfg.injection_latency
        + (t.cfg.n_nodes * t.cfg.link_latency)
        + l1
      in
      let on = t.nodes.(owner) in
      on.stall_until <- max on.stall_until (cycle + l1);
      ignore (Node_array.insert n.array addr value);
      Hashtbl.replace t.resident addr ();
      (value, lat)

(* Has [node] received at least [threshold] signals for [seg] from
   [origin]?  (The executor derives thresholds from iteration indices.) *)
let signals_satisfied t ~node ~seg ~origin ~threshold =
  Signal_buffer.satisfied t.nodes.(node).sigbuf ~seg ~origin ~threshold

(* Pure query for diagnostics: unlike [signals_satisfied] it does not
   advance the consumed-threshold accounting, so report code can probe
   buffers without perturbing the outstanding-signal statistics. *)
let signals_received t ~node ~seg ~origin =
  Signal_buffer.received t.nodes.(node).sigbuf ~seg ~origin

let max_outstanding_signals t =
  Array.fold_left
    (fun acc n -> max acc (Signal_buffer.max_outstanding n.sigbuf))
    0 t.nodes

(* Serial-phase (non-segment) stores to an address cached in the ring
   must invalidate the stale copies: the compiler guarantees shared
   locations are ring-only *during* a parallel loop, but between loops
   ordinary code may write them. *)
let invalidate_addr t addr =
  if Hashtbl.mem t.resident addr then begin
    Array.iter (fun n -> Node_array.invalidate n.array addr) t.nodes;
    Hashtbl.remove t.resident addr
  end

(* Are the data channels empty?  The flush keeps node arrays valid across
   invocations, so all data must land before the loop retires.  The
   inflight counter covers every place a data message can live (links,
   input buffers, injection queues), so this is O(1). *)
let data_drained t = t.inflight_data = 0


let retire t ~data =
  t.messages_retired <- t.messages_retired + 1;
  if data then t.inflight_data <- t.inflight_data - 1
  else t.inflight_sig <- t.inflight_sig - 1

(* -- ring clock ------------------------------------------------------ *)

let cls_name ~data = if data then "data" else "sig"

(* Apply a message arriving at node [n]; returns true if it must keep
   travelling (successor is not its origin). *)
let apply_at t (n : node) (msg : Msg.t) =
  (match msg.Msg.payload with
  | Msg.Data { addr; value } ->
      ignore (Node_array.insert n.array addr value);
      if msg.Msg.seq > n.applied_data.(msg.Msg.origin) then
        n.applied_data.(msg.Msg.origin) <- msg.Msg.seq
  | Msg.Sig { seg; _ } ->
      Signal_buffer.record n.sigbuf ~seg ~origin:msg.Msg.origin);
  succ t n.id <> msg.Msg.origin

(* Lockstep: a signal is held at a node until the data injected before it
   by the same origin has been applied here. *)
let lockstep_ok (n : node) ~origin (payload : Msg.payload) =
  match payload with
  | Msg.Sig { barrier; _ } -> n.applied_data.(origin) >= barrier
  | Msg.Data _ -> true

(* One class at one node: forward ring traffic with priority over local
   injection; the two classes use dedicated wires.  A fail-stopped node
   is a dumb repeater: it forwards (or retires) buffered traffic within
   bandwidth and credits but never applies it -- no array insert, no
   sigbuf record, no applied_data advance, no lockstep check (each
   downstream live node enforces its own barriers) -- and never injects
   (its queues died with the core). *)
let run_class t (n : node) ~data ~cycle =
  let in_q = if data then n.in_data else n.in_sig in
  let budget =
    ref (if data then t.cfg.data_bandwidth else t.cfg.signal_bandwidth)
  in
  let forwarded_any = ref false in
  let continue_ = ref true in
  while !continue_ && !budget > 0 && not (Queue.is_empty in_q) do
    let msg = Queue.peek in_q in
    let origin = msg.Msg.origin in
    if (not n.dead) && not (lockstep_ok n ~origin msg.Msg.payload) then begin
      (match msg.Msg.payload with
      | Msg.Sig { barrier; _ } ->
          Helix_obs.Trace.lockstep_hold t.trace ~cycle ~node:n.id ~origin
            ~barrier ~applied:n.applied_data.(origin)
      | Msg.Data _ -> ());
      continue_ := false
    end
    else if succ t n.id <> origin && Link.free_space t.link ~data n.id <= 0
    then begin
      Helix_obs.Trace.backpressure t.trace ~cycle ~node:n.id
        ~cls:(cls_name ~data);
      continue_ := false (* back-pressure: wait for credits *)
    end
    else begin
      ignore (Queue.pop in_q);
      decr budget;
      if (if n.dead then succ t n.id <> origin else apply_at t n msg) then begin
        Link.send t.link msg n.id ~cycle;
        n.forwarded <- n.forwarded + 1;
        forwarded_any := true
      end
      else retire t ~data
    end
  done;
  (* injection: data follows the paper's strict priority rule (inject
     only when nothing was forwarded); the wider dedicated signal wires
     may inject with leftover bandwidth, or signal bursts would starve *)
  if
    (not n.dead)
    && (((not data) && t.cfg.greedy_sig_inject) || not !forwarded_any)
  then begin
    let inject_q = if data then n.inject_data else n.inject_sig in
    let continue_ = ref true in
    while !continue_ && !budget > 0 && not (Queue.is_empty inject_q) do
      let ready, payload, seq = Queue.peek inject_q in
      if
        ready > cycle
        || (not (lockstep_ok n ~origin:n.id payload))
        || Link.free_space t.link ~data n.id <= 0
      then continue_ := false
      else begin
        ignore (Queue.pop inject_q);
        decr budget;
        if t.cfg.n_nodes > 1 then
          Link.send t.link { Msg.payload; origin = n.id; seq } n.id ~cycle
        else begin
          (* degenerate single-node ring: the message retires at its
             own origin without travelling, but a signal must still
             land in the local sigbuf or it vanishes from the
             outstanding-signal accounting and from deadlock reports
             (data was already applied locally at acceptance) *)
          (match payload with
          | Msg.Sig { seg; _ } ->
              Signal_buffer.record n.sigbuf ~seg ~origin:n.id
          | Msg.Data _ -> ());
          retire t ~data
        end;
        n.injected <- n.injected + 1
      end
    done
  end

(* 1. the link layer delivers arrived copies into input buffers (and, on a
   lossy plan, runs its recovery upkeep); 2. every node moves its two
   classes.  A dead node is not gated by L1 stalls: there is no core left
   to stall it. *)
let tick t ~cycle =
  Link.tick t.link ~cycle;
  Array.iter
    (fun n ->
      if n.dead || cycle >= n.stall_until then begin
        run_class t n ~data:true ~cycle;
        run_class t n ~data:false ~cycle
      end)
    t.nodes

(* Fail-stop: the node's core dies at [cycle] and the ring reknits around
   it -- the node keeps its wires but degrades to a repeater, so traffic
   already in flight (including messages *it* originated) still transits
   and retires normally.  Messages sitting in its injection queues die
   with the core: they were accepted from the core but never reached the
   wire, so they vanish from the in-flight accounting and the caller (the
   executor) learns how many were lost.  Non-empty losses mean the
   wait/signal contract of the current invocation may be broken -- a
   downstream signal could reference barrier data that just evaporated --
   which is exactly the "reknitting is not enough, fall back" case.
   Returns [(lost_data, lost_sig)]; killing an already-dead node is a
   no-op.  Works with or without a fault plan (tests drive it
   directly). *)
let kill_node t ~node ~cycle =
  let n = t.nodes.(node) in
  if n.dead then (0, 0)
  else begin
    n.dead <- true;
    let lost_d = Queue.length n.inject_data in
    let lost_s = Queue.length n.inject_sig in
    Queue.clear n.inject_data;
    Queue.clear n.inject_sig;
    t.inflight_data <- t.inflight_data - lost_d;
    t.inflight_sig <- t.inflight_sig - lost_s;
    t.reknits <- t.reknits + 1;
    Helix_obs.Trace.fault t.trace ~cycle ~fclass:"fail_stop" ~link:node
      ~wire:"core" ~hop:(-1);
    Helix_obs.Trace.reknit t.trace ~cycle ~node ~lost_data:lost_d
      ~lost_sig:lost_s;
    (lost_d, lost_s)
  end

let node_dead t ~node = t.nodes.(node).dead
let dead_nodes t =
  Array.fold_left (fun acc n -> if n.dead then acc + 1 else acc) 0 t.nodes

(* Event-engine contract: earliest future cycle at which the network can
   make progress on its own; [Some now] = active, do not fast-forward;
   [None] = fully drained (purely reactive: only a new injection from a
   core can create work).  The inflight roll-up makes the drained case
   O(1); otherwise each node publishes a local "nothing before c" bound
   and the scan takes the minimum.  Buffered data (or a processable
   signal head) at an unstalled node is "active"; a lockstep-held signal
   head is *not* -- it can only unblock when the barrier data message is
   applied at this node, and that message is still in flight somewhere
   the scan already bounds (another node's buffers, an injection queue,
   or a link whose FIFO head arrival lower-bounds every delivery from
   it).  Waking a stalled node exactly at [stall_until], and link
   messages exactly at their arrival cycle, matches [tick]'s rules. *)
let next_event t ~now =
  let w = ref max_int in
  let add c = if (if c < now then now else c) < !w then w := max c now in
  (* Retransmission timers and pending acks are wake sources of their own:
     folding them in here is what lets retransmit deadlines participate in
     idle-cycle skipping instead of forcing per-cycle polling -- and they
     must be counted even when the in-flight roll-up is zero, because a
     late duplicate's ack (or a stale timer) can outlive the last logical
     message. *)
  add (Link.next_timer t.link);
  if t.inflight_data = 0 && t.inflight_sig = 0 then
    (if !w = max_int then None else Some !w)
  else begin
    (try
       Array.iter
         (fun n ->
           let stalled = (not n.dead) && now < n.stall_until in
           if n.dead then begin
             (* repeater: buffered traffic is immediately processable
                (no lockstep, no stall) *)
             if not (Queue.is_empty n.in_data && Queue.is_empty n.in_sig)
             then begin
               add now;
               raise Exit
             end
           end
           else
           if stalled then begin
             if
               not (Queue.is_empty n.in_data && Queue.is_empty n.in_sig)
             then add n.stall_until;
             (match Queue.peek_opt n.inject_data with
             | Some (ready, _, _) -> add (max ready n.stall_until)
             | None -> ());
             match Queue.peek_opt n.inject_sig with
             | Some (ready, _, _) -> add (max ready n.stall_until)
             | None -> ()
           end
           else begin
             let sig_head_ready =
               match Queue.peek_opt n.in_sig with
               | None -> false
               | Some msg ->
                   lockstep_ok n ~origin:msg.Msg.origin msg.Msg.payload
             in
             if (not (Queue.is_empty n.in_data)) || sig_head_ready then begin
               add now;
               raise Exit
             end;
             (match Queue.peek_opt n.inject_data with
             | Some (ready, _, _) -> add ready
             | None -> ());
             match Queue.peek_opt n.inject_sig with
             | Some (ready, _, _) -> add ready
             | None -> ()
           end;
           if !w <= now then raise Exit)
         t.nodes;
       add (Link.next_arrival t.link)
     with Exit -> ());
    if !w = max_int then None else Some !w
  end

(* Is any message still in flight (links, input buffers, injections)?
   O(1) via the inflight roll-up. *)
let drained t = t.inflight_data = 0 && t.inflight_sig = 0

(* -- end-of-loop flush ----------------------------------------------- *)

(* Drop every message and all synchronization state, for [flush] and
   [abort] alike.  Dead flags persist: a fail-stopped core stays dead
   across invocations. *)
let reset_traffic t =
  Array.iter
    (fun n ->
      Signal_buffer.reset n.sigbuf;
      Queue.clear n.in_data;
      Queue.clear n.in_sig;
      Queue.clear n.inject_data;
      Queue.clear n.inject_sig;
      (* a global synchronization point: every message accepted so far
         counts as applied, so stale lockstep barriers cannot wedge the
         next parallel loop *)
      Array.fill n.applied_data 0 (Array.length n.applied_data)
        (t.next_seq - 1))
    t.nodes;
  Link.reset t.link;
  t.inflight_data <- 0;
  t.inflight_sig <- 0

(* Flush dirty owned values to the memory hierarchy (the distributed fence
   executed when a parallel loop finishes, Section 5.2), reset arrays and
   signal buffers, and finalize sharing statistics.  Returns the latency
   charged to the loop epilogue. *)
let flush t ~cycle =
  let dirty = Hashtbl.length t.current in
  Hashtbl.iter (fun addr v -> t.env.backing_store addr v) t.current;
  let per_node = Array.make t.cfg.n_nodes 0 in
  Hashtbl.iter
    (fun addr _ ->
      let o = Owner.node_of ~n_nodes:t.cfg.n_nodes addr in
      per_node.(o) <- per_node.(o) + 1)
    t.current;
  Hashtbl.reset t.current;
  let addrs = Hashtbl.fold (fun a _ acc -> a :: acc) t.meta [] in
  List.iter (finalize_meta t) addrs;
  (* dirty values are written back above; clean copies stay valid so the
     next invocation hits (only synchronization state resets) -- unless
     the invalidate-all ablation is on *)
  if t.cfg.flush_invalidates then begin
    Hashtbl.reset t.resident;
    Array.iter (fun n -> Node_array.clear n.array) t.nodes
  end;
  reset_traffic t;
  ignore cycle;
  (* each owner writes its share back in parallel; charge the max *)
  let max_share = Array.fold_left max 0 per_node in
  if dirty = 0 then 1 else 2 * max_share |> max 1

(* Abandon the current invocation without write-back: the executor's
   fallback path rolls memory back to the loop-entry image and
   re-executes the invocation sequentially, so the ring's speculative
   state -- dirty values in [current], in-flight traffic, signal
   accounting, cached copies -- must simply vanish.  Clean copies are
   dropped too (unlike [flush]) because the rollback makes them stale.
   Sharing-histogram contributions from the aborted invocation are kept;
   they describe traffic that really occurred. *)
let abort t =
  Hashtbl.reset t.current;
  Hashtbl.reset t.meta;
  Hashtbl.reset t.resident;
  Array.iter
    (fun n ->
      Node_array.clear n.array;
      n.stall_until <- 0)
    t.nodes;
  reset_traffic t

(* Recovery-protocol counters, for tests and harness summaries: the link
   layer's, plus the fail-stops this file performs. *)
let retransmits t = Link.retransmits t.link
let drops_detected t = Link.drops_detected t.link
let dups_detected t = Link.dups_detected t.link
let corrupts_detected t = Link.corrupts_detected t.link
let faults_injected t = Link.faults_injected t.link + t.reknits
let reknits t = t.reknits

(* Diagnostic dump for deadlock reports: every node unconditionally (a
   16-core wedge is usually caused by one of the nodes an abbreviated
   dump would omit), with sigbuf contents, queue occupancy, lockstep
   state and per-link occupancy. *)
let describe t =
  let b = Buffer.create 1024 in
  (* the quiescence roll-up first: "who still owes the ring a message" is
     the question every wedge investigation starts with *)
  Buffer.add_string b
    (Printf.sprintf "    inflight: data=%d sig=%d\n" t.inflight_data
       t.inflight_sig);
  if Link.is_lossy t.link || t.reknits > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "    faults: injected=%d retransmits=%d drops=%d dups=%d \
          corrupts=%d reknits=%d\n"
         (faults_injected t) (retransmits t) (drops_detected t)
         (dups_detected t) (corrupts_detected t) t.reknits);
  Array.iter
    (fun n ->
      Buffer.add_string b
        (Printf.sprintf
           "    node %d%s: sigbuf:%s\n\
           \      in_data=%d in_sig=%d injd=%d injs=%d stall=%d \
            last_acc=%d applied=[%s]\n"
           n.id
           (if n.dead then " [DEAD]" else "")
           (let d = Signal_buffer.dump n.sigbuf in
            if d = "" then " (empty)" else d)
           (Queue.length n.in_data) (Queue.length n.in_sig)
           (Queue.length n.inject_data)
           (Queue.length n.inject_sig)
           n.stall_until n.last_accepted_data
           (String.concat ","
              (Array.to_list (Array.map string_of_int n.applied_data)))))
    t.nodes;
  let dump_links ~data =
    for i = 0 to t.cfg.n_nodes - 1 do
      match Link.head t.link ~data i with
      | None -> ()
      | Some (arrival, m) ->
          Buffer.add_string b
            (Format.asprintf "    link_%s %d->%d: %d msgs (head %a@%d)\n"
               (cls_name ~data) i (succ t i)
               (Link.occupancy t.link ~data i)
               Msg.pp m arrival)
    done
  in
  dump_links ~data:true;
  dump_links ~data:false;
  Buffer.contents b

(* Structured form of [describe] for machine-readable stuck reports. *)
let snapshot t : Helix_obs.Json.t =
  let open Helix_obs in
  let queue_msgs q =
    Json.List
      (Queue.fold
         (fun acc (m : Msg.t) ->
           Json.String (Format.asprintf "%a" Msg.pp m) :: acc)
         [] q
      |> List.rev)
  in
  let node_json (n : node) =
    Json.Obj
      [
        ("id", Json.Int n.id);
        ("dead", Json.Bool n.dead);
        ("stall_until", Json.Int n.stall_until);
        ("forwarded", Json.Int n.forwarded);
        ("injected", Json.Int n.injected);
        ("last_accepted_data", Json.Int n.last_accepted_data);
        ( "applied_data",
          Json.List
            (Array.to_list (Array.map (fun s -> Json.Int s) n.applied_data)) );
        ("in_data", queue_msgs n.in_data);
        ("in_sig", queue_msgs n.in_sig);
        ("inject_data_len", Json.Int (Queue.length n.inject_data));
        ("inject_sig_len", Json.Int (Queue.length n.inject_sig));
        ("rtx_data_len", Json.Int (Link.unacked t.link ~data:true n.id));
        ("rtx_sig_len", Json.Int (Link.unacked t.link ~data:false n.id));
        ( "sigbuf",
          Json.List
            (List.map
               (fun ((seg, origin), received, consumed) ->
                 Json.Obj
                   [
                     ("seg", Json.Int seg);
                     ("origin", Json.Int origin);
                     ("received", Json.Int received);
                     ("consumed", Json.Int consumed);
                   ])
               (Signal_buffer.entries n.sigbuf)) );
      ]
  in
  let link_json ~data =
    Json.List
      (List.init t.cfg.n_nodes (fun i ->
           Json.Obj
             [
               ("from", Json.Int i);
               ("to", Json.Int (succ t i));
               ("occupancy", Json.Int (Link.occupancy t.link ~data i));
               ( "head",
                 match Link.head t.link ~data i with
                 | None -> Json.Null
                 | Some (arrival, m) ->
                     Json.Obj
                       [
                         ("arrival", Json.Int arrival);
                         ("msg", Json.String (Format.asprintf "%a" Msg.pp m));
                       ] );
             ]))
  in
  Json.Obj
    [
      ("n_nodes", Json.Int t.cfg.n_nodes);
      ("next_seq", Json.Int t.next_seq);
      ("ring_hits", Json.Int t.ring_hits);
      ("ring_misses", Json.Int t.ring_misses);
      ("blocked_injections", Json.Int t.blocked_injections);
      ("messages_retired", Json.Int t.messages_retired);
      ("inflight_data", Json.Int t.inflight_data);
      ("inflight_sig", Json.Int t.inflight_sig);
      ("retransmits", Json.Int (retransmits t));
      ("drops_detected", Json.Int (drops_detected t));
      ("dups_detected", Json.Int (dups_detected t));
      ("corrupts_detected", Json.Int (corrupts_detected t));
      ("faults_injected", Json.Int (faults_injected t));
      ("reknits", Json.Int t.reknits);
      ("nodes", Json.List (Array.to_list (Array.map node_json t.nodes)));
      ("links_data", link_json ~data:true);
      ("links_sig", link_json ~data:false);
    ]


let dist_histogram t = Array.copy t.dist_hist
let consumers_histogram t = Array.copy t.consumers_hist
let inflight_counts t = (t.inflight_data, t.inflight_sig)
let ring_hit_rate t =
  let tot = t.ring_hits + t.ring_misses in
  if tot = 0 then 1.0 else float_of_int t.ring_hits /. float_of_int tot

(* Publish the ring's counters under "ring." in a metrics registry. *)
let export_metrics t (m : Helix_obs.Metrics.t) =
  let open Helix_obs in
  Metrics.set_int m "ring.hits" t.ring_hits;
  Metrics.set_int m "ring.misses" t.ring_misses;
  Metrics.set_float m "ring.hit_rate" (ring_hit_rate t);
  Metrics.set_int m "ring.blocked_injections" t.blocked_injections;
  Metrics.set_int m "ring.messages_retired" t.messages_retired;
  Metrics.set_int m "ring.next_seq" t.next_seq;
  Metrics.set_hist m "ring.dist_hist" t.dist_hist;
  Metrics.set_hist m "ring.consumers_hist" t.consumers_hist;
  Metrics.set_int m "ring.forwarded"
    (Array.fold_left (fun acc n -> acc + n.forwarded) 0 t.nodes);
  Metrics.set_int m "ring.injected"
    (Array.fold_left (fun acc n -> acc + n.injected) 0 t.nodes);
  Metrics.set_int m "ring.max_outstanding_signals" (max_outstanding_signals t);
  (* fault/recovery counters: always exported (all zero in a fault-free
     run, so cross-engine metric diffs stay trivially identical) *)
  Metrics.set_int m "ring.inflight_data" t.inflight_data;
  Metrics.set_int m "ring.inflight_sig" t.inflight_sig;
  Metrics.set_int m "ring.retransmits" (retransmits t);
  Metrics.set_int m "ring.drops_detected" (drops_detected t);
  Metrics.set_int m "ring.dups_detected" (dups_detected t);
  Metrics.set_int m "ring.corrupts_detected" (corrupts_detected t);
  Metrics.set_int m "ring.faults_injected" (faults_injected t);
  Metrics.set_int m "ring.reknits" t.reknits;
  Metrics.set_int m "ring.dead_nodes" (dead_nodes t)
