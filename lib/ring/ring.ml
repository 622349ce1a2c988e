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
   path. *)

(* Deterministic timing perturbation: bounded extra *delays* hashed from
   (seed, cycle, node, salt).  Delay jitter is the mildest of the six
   fault classes (delay / drop / duplicate / reorder / corrupt /
   fail-stop): it never loses or reorders traffic -- every queue in the
   ring is FIFO and delivery pops from the head -- so jitter perturbs
   *when* messages move, never the protocol's orderings, and
   architectural results must be invariant under it with no recovery
   machinery at all.  The five lossy classes live in [fault_plan]
   below and do need the retransmission protocol to recover. *)
type perturbation = {
  pj_seed : int;
  pj_link_max : int;    (* extra cycles per hop, uniform in [0, max] *)
  pj_inject_max : int;  (* extra core-to-node injection delay *)
  pj_signal_max : int;  (* additional delay applied to signal messages *)
}

let perturbed ?(link_max = 2) ?(inject_max = 3) ?(signal_max = 2) ~seed () =
  { pj_seed = seed; pj_link_max = link_max; pj_inject_max = inject_max;
    pj_signal_max = signal_max }

(* The lossy-ring fault model (beyond delay jitter): a deterministic
   seeded schedule decides, per link send, whether the wire copy is
   dropped, duplicated, reordered with its predecessor, or corrupted --
   rates are per-mille so a plan is a compact value -- plus an optional
   fail-stop event killing one node's core at a fixed cycle.  Faults
   attack wire *copies* only; the logical message survives in its
   sender's retransmission buffer until the cumulative ack comes back,
   so the protocol (not the test harness) is responsible for recovery. *)
type fault_plan = {
  fl_seed : int;
  fl_drop : int;     (* per-mille probability per link send *)
  fl_dup : int;
  fl_reorder : int;
  fl_corrupt : int;
  fl_fail_stop : (int * int) option;  (* (node, cycle): core dies *)
}

let faulty ?(drop = 0) ?(dup = 0) ?(reorder = 0) ?(corrupt = 0) ?fail_stop
    ~seed () =
  let clamp r = max 0 (min 1000 r) in
  { fl_seed = seed; fl_drop = clamp drop; fl_dup = clamp dup;
    fl_reorder = clamp reorder; fl_corrupt = clamp corrupt;
    fl_fail_stop = fail_stop }

exception Bad_fault_spec of string

(* "seed=42,drop=5,dup=3,reorder=2,corrupt=1,kill=3@50000" *)
let fault_plan_of_string s =
  let p = ref (faulty ~seed:0 ()) in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad_fault_spec m)) fmt in
  try
    List.iter
      (fun kv ->
        let kv = String.trim kv in
        if kv <> "" then
          match String.index_opt kv '=' with
          | None -> bad "expected key=value, got %S" kv
          | Some i ->
              let k = String.sub kv 0 i in
              let v = String.sub kv (i + 1) (String.length kv - i - 1) in
              let int_v () =
                match int_of_string_opt v with
                | Some n -> n
                | None -> bad "%s: not an integer: %S" k v
              in
              let rate () =
                let n = int_v () in
                if n < 0 || n > 1000 then
                  bad "%s: per-mille rate out of range 0..1000: %d" k n;
                n
              in
              (match k with
              | "seed" -> p := { !p with fl_seed = int_v () }
              | "drop" -> p := { !p with fl_drop = rate () }
              | "dup" -> p := { !p with fl_dup = rate () }
              | "reorder" -> p := { !p with fl_reorder = rate () }
              | "corrupt" -> p := { !p with fl_corrupt = rate () }
              | "kill" -> (
                  match String.index_opt v '@' with
                  | None -> bad "kill: expected NODE@CYCLE"
                  | Some j ->
                      let node = String.sub v 0 j in
                      let cyc =
                        String.sub v (j + 1) (String.length v - j - 1)
                      in
                      (match
                         (int_of_string_opt node, int_of_string_opt cyc)
                       with
                      | Some n, Some c when n >= 0 && c >= 0 ->
                          p := { !p with fl_fail_stop = Some (n, c) }
                      | _ -> bad "kill: expected NODE@CYCLE"))
              | _ -> bad "unknown fault key %S" k))
      (String.split_on_char ',' s);
    Ok !p
  with Bad_fault_spec m -> Error m

let fault_plan_to_string p =
  String.concat ","
    (List.filter
       (fun s -> s <> "")
       [
         Printf.sprintf "seed=%d" p.fl_seed;
         (if p.fl_drop > 0 then Printf.sprintf "drop=%d" p.fl_drop else "");
         (if p.fl_dup > 0 then Printf.sprintf "dup=%d" p.fl_dup else "");
         (if p.fl_reorder > 0 then Printf.sprintf "reorder=%d" p.fl_reorder
          else "");
         (if p.fl_corrupt > 0 then Printf.sprintf "corrupt=%d" p.fl_corrupt
          else "");
         (match p.fl_fail_stop with
         | Some (n, c) -> Printf.sprintf "kill=%d@%d" n c
         | None -> "");
       ])

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
  perturb : perturbation option; (* seeded delay jitter (lossless) *)
  faults : fault_plan option;    (* seeded lossy-ring fault schedule *)
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
    perturb = None;
    faults = None;
  }

(* splitmix-style finalizer keyed on (seed, cycle, node, salt): pure, so
   a given seed reproduces the exact same perturbed schedule. *)
let jitter cfg ~salt ~cycle ~node ~bound =
  match cfg.perturb with
  | None -> 0
  | Some p ->
      let bound = bound p in
      if bound <= 0 then 0
      else
        let x =
          p.pj_seed
          lxor (cycle * 0x9e3779b97f4a7c1)
          lxor ((node + 1) * 0xf51afd7ed558cc5)
          lxor ((salt + 1) * 0x4ceb9fe1a85ec53)
        in
        let x = x lxor (x lsr 33) in
        let x = x * 0xbf58476d1ce4e5b in
        let x = (x lxor (x lsr 29)) land max_int in
        x mod (bound + 1)

(* One per-mille roll per (cycle, link, wire, hop): pure, so a given plan
   reproduces the exact same fault schedule -- and because the cycle is
   an input, a retransmission of the same hop rolls independently, which
   is what guarantees eventual delivery for any rate < 1000. *)
let fault_roll p ~cycle ~link ~salt ~hop =
  let x =
    p.fl_seed
    lxor (cycle * 0x9e3779b97f4a7c1)
    lxor ((link + 1) * 0xf51afd7ed558cc5)
    lxor ((salt + 1) * 0x4ceb9fe1a85ec53)
    lxor ((hop + 1) * 0x2545f4914f6cdd1)
  in
  let x = x lxor (x lsr 33) in
  let x = x * 0xbf58476d1ce4e5b in
  let x = (x lxor (x lsr 29)) land max_int in
  x mod 1000

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

(* Per-node, per-wire hop-stream state for the lossy-ring recovery
   protocol (go-back-N with cumulative acks).  The *sender* half
   ([hs_send], [hs_acked], [hs_rtx], timer) covers the node's outgoing
   link; the *receiver* half ([hs_expect]) covers its incoming link --
   the two halves are independent, so one record per wire suffices.
   Acks are modeled, not simulated as messages: accepting hop [h] on
   link [i] enqueues [(cycle + ack_latency, h)] into node [i]'s
   [hs_acks], where the ack latency is the long way around the ring
   (acks travel forward on the unidirectional interconnect). *)
type hop_state = {
  mutable hs_send : int;    (* next hop seq to stamp on a send *)
  mutable hs_expect : int;  (* next hop seq acceptable on the incoming link *)
  mutable hs_acked : int;   (* highest cumulatively-acked hop (-1 = none) *)
  hs_rtx : Msg.t Queue.t;   (* clean unacked copies, FIFO by hop *)
  mutable hs_deadline : int;  (* retransmission timer, max_int = unarmed *)
  mutable hs_attempt : int;   (* consecutive timeouts (exponential backoff) *)
  hs_acks : (int * int) Queue.t;  (* (learn_cycle, hop), FIFO by learn *)
}

let fresh_hop_state () =
  { hs_send = 0; hs_expect = 0; hs_acked = -1; hs_rtx = Queue.create ();
    hs_deadline = max_int; hs_attempt = 0; hs_acks = Queue.create () }

let reset_hop hs =
  hs.hs_send <- 0;
  hs.hs_expect <- 0;
  hs.hs_acked <- -1;
  Queue.clear hs.hs_rtx;
  Queue.clear hs.hs_acks;
  hs.hs_deadline <- max_int;
  hs.hs_attempt <- 0

(* One traffic class (data or signals): its input buffer at each node, its
   injection queue from the attached core, and its link wires.  The paper
   uses "separate dedicated wires for data and signals" (Section 6.3), so
   the two classes never block each other. *)
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
  hop_data : hop_state;
  hop_sig : hop_state;
}

type t = {
  cfg : config;
  env : env;
  trace : Helix_obs.Trace.t option;
  nodes : node array;
  links_data : (int * Msg.t) Queue.t array; (* link i: node i -> node i+1 *)
  links_sig : (int * Msg.t) Queue.t array;
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
  faults_on : bool;  (* cached cfg.faults <> None: one branch on hot paths *)
  mutable retransmits : int;        (* messages resent on timer expiry *)
  mutable drops_detected : int;     (* hop gaps seen by receivers *)
  mutable dups_detected : int;      (* repeated hops discarded *)
  mutable corrupts_detected : int;  (* checksum failures discarded *)
  mutable faults_injected : int;    (* faults the schedule actually fired *)
  mutable reknits : int;            (* fail-stopped nodes routed around *)
  resident : (int, unit) Hashtbl.t;
      (* superset of addresses cached in some node array, so serial-phase
         stores can invalidate stale copies cheaply *)
}

let create ?trace (cfg : config) (env : env) : t =
  {
    cfg;
    env;
    trace;
    nodes =
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
            hop_data = fresh_hop_state ();
            hop_sig = fresh_hop_state ();
          });
    links_data = Array.init cfg.n_nodes (fun _ -> Queue.create ());
    links_sig = Array.init cfg.n_nodes (fun _ -> Queue.create ());
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
    faults_on = cfg.faults <> None;
    retransmits = 0;
    drops_detected = 0;
    dups_detected = 0;
    corrupts_detected = 0;
    faults_injected = 0;
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
    let j = jitter t.cfg ~salt:1 ~cycle ~node ~bound:(fun p -> p.pj_inject_max) in
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
    let j =
      jitter t.cfg ~salt:2 ~cycle ~node ~bound:(fun p ->
          p.pj_inject_max + p.pj_signal_max)
    in
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

let retire t ~cls =
  t.messages_retired <- t.messages_retired + 1;
  if cls = "data" then t.inflight_data <- t.inflight_data - 1
  else t.inflight_sig <- t.inflight_sig - 1

(* -- ring clock ------------------------------------------------------ *)

let class_of_msg t msg =
  if Msg.is_data msg then (t.links_data, fun n -> n.in_data)
  else (t.links_sig, fun n -> n.in_sig)

let link_free_space t links in_of i =
  t.cfg.link_capacity
  - Queue.length links.(i)
  - Queue.length (in_of t.nodes.(succ t i))

(* Recovery-protocol timing constants.  The retransmission timeout must
   comfortably exceed one hop plus the modeled cumulative-ack latency --
   acks travel the long way around the unidirectional ring -- or healthy
   links would retransmit spuriously; the slack term absorbs jitter and
   backpressure.  Exponential backoff (capped at 2^6) keeps a pathological
   schedule from flooding a link it keeps killing. *)
let ack_latency t = max 1 ((t.cfg.n_nodes - 1) * t.cfg.link_latency)
let rtx_base t = (4 * t.cfg.n_nodes * t.cfg.link_latency) + 16
let max_backoff_shift = 6

let wire_of_msg msg = if Msg.is_data msg then "data" else "sig"
let hop_of (n : node) msg = if Msg.is_data msg then n.hop_data else n.hop_sig

(* The fault-free wire put: exactly the pre-fault-model [send]. *)
let enqueue_link t (msg : Msg.t) i ~cycle =
  let links, _ = class_of_msg t msg in
  let j =
    jitter t.cfg ~salt:3 ~cycle ~node:i ~bound:(fun p ->
        if Msg.is_data msg then p.pj_link_max
        else p.pj_link_max + p.pj_signal_max)
  in
  Queue.add (cycle + t.cfg.link_latency + j, msg) links.(i)

let corrupt_msg (m : Msg.t) =
  let payload =
    match m.Msg.payload with
    | Msg.Data d -> Msg.Data { d with value = d.value lxor 0x2a }
    | Msg.Sig s -> Msg.Sig { s with barrier = s.barrier lxor 0x2a }
  in
  (* csum kept: it no longer matches the payload, which is the point *)
  { m with Msg.payload }

(* Swap the two newest link-queue entries (the reorder fault).  Delivery
   pops heads in queue order, so this really inverts arrival order; the
   receiver sees a hop inversion and go-back-N discards the early one. *)
let transpose_last_two (q : (int * Msg.t) Queue.t) =
  if Queue.length q >= 2 then begin
    let items = List.rev (Queue.fold (fun acc x -> x :: acc) [] q) in
    let rec swap_tail acc = function
      | [ a; b ] -> List.rev_append acc [ b; a ]
      | x :: rest -> swap_tail (x :: acc) rest
      | [] -> assert false
    in
    let items = swap_tail [] items in
    Queue.clear q;
    List.iter (fun x -> Queue.add x q) items
  end

(* Put a (hop-stamped) wire copy on link [i], applying the fault schedule.
   Faults touch only this copy; the clean original sits in the sender's
   retransmission buffer. *)
let faulty_put t (msg : Msg.t) i ~cycle =
  match t.cfg.faults with
  | None -> enqueue_link t msg i ~cycle
  | Some p ->
      let salt = if Msg.is_data msg then 11 else 12 in
      let hop = msg.Msg.hop in
      let roll = fault_roll p ~cycle ~link:i ~salt ~hop in
      let wire = wire_of_msg msg in
      let fired fclass =
        t.faults_injected <- t.faults_injected + 1;
        Helix_obs.Trace.fault t.trace ~cycle ~fclass ~link:i ~wire ~hop
      in
      if roll < p.fl_drop then fired "drop" (* nothing reaches the wire *)
      else if roll < p.fl_drop + p.fl_dup then begin
        fired "dup";
        enqueue_link t msg i ~cycle;
        enqueue_link t msg i ~cycle
      end
      else if roll < p.fl_drop + p.fl_dup + p.fl_reorder then begin
        fired "reorder";
        enqueue_link t msg i ~cycle;
        let links, _ = class_of_msg t msg in
        transpose_last_two links.(i)
      end
      else if roll < p.fl_drop + p.fl_dup + p.fl_reorder + p.fl_corrupt
      then begin
        fired "corrupt";
        enqueue_link t (corrupt_msg msg) i ~cycle
      end
      else enqueue_link t msg i ~cycle

(* Send on link [i].  With a fault plan active every copy is stamped with
   the link's next hop sequence number and retained (clean) in the
   sender's go-back-N buffer until cumulatively acked; the timer arms on
   the first outstanding hop.  Without a plan this is byte-identical to
   the lossless wire put. *)
let send t (msg : Msg.t) i ~cycle =
  if not t.faults_on then enqueue_link t msg i ~cycle
  else begin
    let hs = hop_of t.nodes.(i) msg in
    let msg = { msg with Msg.hop = hs.hs_send } in
    hs.hs_send <- hs.hs_send + 1;
    Queue.add msg hs.hs_rtx;
    if hs.hs_deadline = max_int then hs.hs_deadline <- cycle + rtx_base t;
    faulty_put t msg i ~cycle
  end

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
let lockstep_ok (n : node) (msg : Msg.t) =
  match msg.Msg.payload with
  | Msg.Sig { barrier; _ } -> n.applied_data.(msg.Msg.origin) >= barrier
  | Msg.Data _ -> true

(* Drain matured acks, advance the cumulative-ack horizon, trim the
   retransmission buffer and re-arm (or disarm) the timer. *)
let process_acks t (hs : hop_state) ~cycle =
  let progressed = ref false in
  let continue_ = ref true in
  while !continue_ && not (Queue.is_empty hs.hs_acks) do
    let learn, hop = Queue.peek hs.hs_acks in
    if learn <= cycle then begin
      ignore (Queue.pop hs.hs_acks);
      if hop > hs.hs_acked then begin
        hs.hs_acked <- hop;
        progressed := true
      end
    end
    else continue_ := false
  done;
  if !progressed then begin
    while
      (not (Queue.is_empty hs.hs_rtx))
      && (Queue.peek hs.hs_rtx).Msg.hop <= hs.hs_acked
    do
      ignore (Queue.pop hs.hs_rtx)
    done;
    hs.hs_attempt <- 0;
    hs.hs_deadline <-
      (if Queue.is_empty hs.hs_rtx then max_int else cycle + rtx_base t)
  end

(* Timer expiry: resend the oldest unacked window (go-back-N).  Resends
   re-roll the fault schedule at the current cycle, so any per-mille rate
   below 1000 eventually delivers a clean copy.  Retransmissions are
   credit-exempt -- they model emergency traffic on reserved wires -- and
   any resulting duplicates are discarded by the receiver's hop check. *)
let check_retransmit t (n : node) (hs : hop_state) ~wire ~cycle =
  if (not (Queue.is_empty hs.hs_rtx)) && cycle >= hs.hs_deadline then begin
    let count = min t.cfg.link_capacity (Queue.length hs.hs_rtx) in
    let sent = ref 0 in
    Queue.iter
      (fun msg ->
        if !sent < count then begin
          incr sent;
          faulty_put t msg n.id ~cycle
        end)
      hs.hs_rtx;
    t.retransmits <- t.retransmits + count;
    hs.hs_attempt <- hs.hs_attempt + 1;
    hs.hs_deadline <-
      cycle + (rtx_base t lsl min hs.hs_attempt max_backoff_shift);
    Helix_obs.Trace.retransmit t.trace ~cycle ~node:n.id ~wire ~count
      ~attempt:hs.hs_attempt
  end

let tick t ~cycle =
  (* 1. deliver arrived link messages into input buffers.  With a fault
     plan active the receiver validates each copy first: a checksum
     failure (corruption), a hop gap (loss -- go-back-N keeps expecting
     the gap until retransmitted) or a repeated hop (duplicate, including
     every retransmitted copy of an already-accepted hop) is counted and
     discarded; an in-order valid copy is accepted and its cumulative ack
     scheduled back to the sender.  In-order acceptance per hop stream
     means every node applies the identical message sequence as the
     fault-free run, which is why faults perturb timing but never
     architectural results. *)
  let deliver links in_of hs_of =
    Array.iteri
      (fun i link ->
        let dst = t.nodes.(succ t i) in
        let continue_ = ref true in
        while !continue_ && not (Queue.is_empty link) do
          let arrival, _ = Queue.peek link in
          if arrival <= cycle then begin
            let _, msg = Queue.pop link in
            if not t.faults_on then Queue.add msg (in_of dst)
            else begin
              let rhs = hs_of dst in
              if not (Msg.valid msg) then
                t.corrupts_detected <- t.corrupts_detected + 1
              else if msg.Msg.hop < rhs.hs_expect then
                t.dups_detected <- t.dups_detected + 1
              else if msg.Msg.hop > rhs.hs_expect then
                t.drops_detected <- t.drops_detected + 1
              else begin
                rhs.hs_expect <- rhs.hs_expect + 1;
                Queue.add
                  (cycle + ack_latency t, msg.Msg.hop)
                  (hs_of t.nodes.(i)).hs_acks;
                Queue.add msg (in_of dst)
              end
            end
          end
          else continue_ := false
        done)
      links
  in
  deliver t.links_data (fun n -> n.in_data) (fun n -> n.hop_data);
  deliver t.links_sig (fun n -> n.in_sig) (fun n -> n.hop_sig);
  (* 1b. sender-side protocol upkeep (NIC-level, so it runs even for a
     stalled or fail-stopped node): learn acks, then fire expired
     retransmission timers *)
  if t.faults_on then
    Array.iter
      (fun n ->
        process_acks t n.hop_data ~cycle;
        process_acks t n.hop_sig ~cycle;
        check_retransmit t n n.hop_data ~wire:"data" ~cycle;
        check_retransmit t n n.hop_sig ~wire:"sig" ~cycle)
      t.nodes;
  (* 2. per node and per class: forward ring traffic with priority over
     local injection; the two classes use dedicated wires *)
  let run_class (n : node) in_q inject_q links in_of budget0 ~greedy_inject
      ~cls =
    let budget = ref budget0 in
    let forwarded_any = ref false in
    let continue_ = ref true in
    while !continue_ && !budget > 0 && not (Queue.is_empty in_q) do
      let msg = Queue.peek in_q in
      let travels_on = succ t n.id <> msg.Msg.origin in
      if not (lockstep_ok n msg) then begin
        (match msg.Msg.payload with
        | Msg.Sig { barrier; _ } ->
            Helix_obs.Trace.lockstep_hold t.trace ~cycle ~node:n.id
              ~origin:msg.Msg.origin ~barrier
              ~applied:n.applied_data.(msg.Msg.origin)
        | Msg.Data _ -> ());
        continue_ := false
      end
      else if travels_on && link_free_space t links in_of n.id <= 0 then begin
        Helix_obs.Trace.backpressure t.trace ~cycle ~node:n.id ~cls;
        continue_ := false (* back-pressure: wait for credits *)
      end
      else begin
        let msg = Queue.pop in_q in
        let keep = apply_at t n msg in
        decr budget;
        if keep then begin
          send t msg n.id ~cycle;
          n.forwarded <- n.forwarded + 1;
          forwarded_any := true
        end
        else retire t ~cls
      end
    done;
    (* injection: data follows the paper's strict priority rule (inject
       only when nothing was forwarded); the wider dedicated signal wires
       may inject with leftover bandwidth, or signal bursts would starve *)
    if greedy_inject || not !forwarded_any then begin
      let continue_ = ref true in
      while !continue_ && !budget > 0 && not (Queue.is_empty inject_q) do
        let ready, payload, seq = Queue.peek inject_q in
        let msg = Msg.make ~payload ~origin:n.id ~seq in
        if ready > cycle then continue_ := false
        else if not (lockstep_ok n msg) then continue_ := false
        else if link_free_space t links in_of n.id <= 0 then continue_ := false
        else begin
          ignore (Queue.pop inject_q);
          decr budget;
          if t.cfg.n_nodes > 1 then send t msg n.id ~cycle
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
            retire t ~cls
          end;
          n.injected <- n.injected + 1
        end
      done
    end
  in
  (* A fail-stopped node is a dumb repeater: it forwards (or retires)
     buffered traffic within bandwidth and credits but never applies it
     -- no array insert, no sigbuf record, no applied_data advance, no
     lockstep check (each downstream live node enforces its own
     barriers), no injection (its queues died with the core), and no
     L1-stall gating (there is no core left to stall it). *)
  let repeater (n : node) in_q links in_of budget0 ~cls =
    let budget = ref budget0 in
    let continue_ = ref true in
    while !continue_ && !budget > 0 && not (Queue.is_empty in_q) do
      let msg = Queue.peek in_q in
      let travels_on = succ t n.id <> msg.Msg.origin in
      if travels_on && link_free_space t links in_of n.id <= 0 then begin
        Helix_obs.Trace.backpressure t.trace ~cycle ~node:n.id ~cls;
        continue_ := false
      end
      else begin
        let msg = Queue.pop in_q in
        decr budget;
        if travels_on then begin
          send t msg n.id ~cycle;
          n.forwarded <- n.forwarded + 1
        end
        else retire t ~cls
      end
    done
  in
  Array.iter
    (fun n ->
      if n.dead then begin
        repeater n n.in_data t.links_data
          (fun nd -> nd.in_data)
          t.cfg.data_bandwidth ~cls:"data";
        repeater n n.in_sig t.links_sig
          (fun nd -> nd.in_sig)
          t.cfg.signal_bandwidth ~cls:"sig"
      end
      else if cycle >= n.stall_until then begin
        run_class n n.in_data n.inject_data t.links_data
          (fun nd -> nd.in_data) t.cfg.data_bandwidth ~greedy_inject:false
          ~cls:"data";
        run_class n n.in_sig n.inject_sig t.links_sig
          (fun nd -> nd.in_sig) t.cfg.signal_bandwidth
          ~greedy_inject:t.cfg.greedy_sig_inject ~cls:"sig"
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
    t.faults_injected <- t.faults_injected + 1;
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
  if t.faults_on then
    Array.iter
      (fun n ->
        List.iter
          (fun hs ->
            if not (Queue.is_empty hs.hs_rtx) then add hs.hs_deadline;
            match Queue.peek_opt hs.hs_acks with
            | Some (learn, _) -> add learn
            | None -> ())
          [ n.hop_data; n.hop_sig ])
      t.nodes;
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
               | Some msg -> lockstep_ok n msg
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
       let links q =
         Array.iter
           (fun link ->
             match Queue.peek_opt link with
             | Some (arrival, _) -> add arrival
             | None -> ())
           q
       in
       links t.links_data;
       links t.links_sig
     with Exit -> ());
    if !w = max_int then None else Some !w
  end

(* Is any message still in flight (links, input buffers, injections)?
   O(1) via the inflight roll-up. *)
let drained t = t.inflight_data = 0 && t.inflight_sig = 0

(* -- end-of-loop flush ----------------------------------------------- *)

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
  if t.cfg.flush_invalidates then Hashtbl.reset t.resident;
  Array.iter
    (fun n ->
      (* dirty values are written back above; clean copies stay valid so
         the next invocation hits (only synchronization state resets) --
         unless the invalidate-all ablation is on *)
      if t.cfg.flush_invalidates then Node_array.clear n.array;
      Signal_buffer.reset n.sigbuf;
      Queue.clear n.in_data;
      Queue.clear n.in_sig;
      Queue.clear n.inject_data;
      Queue.clear n.inject_sig;
      (* the fence also quiesces the recovery protocol: unacked wire
         copies are moot once every node holds the data (dead flags
         persist -- a fail-stopped core stays dead across invocations) *)
      reset_hop n.hop_data;
      reset_hop n.hop_sig;
      (* the flush is a global synchronization point: every message
         accepted so far counts as applied, so stale lockstep barriers
         cannot wedge the next parallel loop *)
      Array.fill n.applied_data 0 (Array.length n.applied_data)
        (t.next_seq - 1))
    t.nodes;
  Array.iter Queue.clear t.links_data;
  Array.iter Queue.clear t.links_sig;
  t.inflight_data <- 0;
  t.inflight_sig <- 0;
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
      Signal_buffer.reset n.sigbuf;
      Queue.clear n.in_data;
      Queue.clear n.in_sig;
      Queue.clear n.inject_data;
      Queue.clear n.inject_sig;
      reset_hop n.hop_data;
      reset_hop n.hop_sig;
      n.stall_until <- 0;
      Array.fill n.applied_data 0 (Array.length n.applied_data)
        (t.next_seq - 1))
    t.nodes;
  Array.iter Queue.clear t.links_data;
  Array.iter Queue.clear t.links_sig;
  t.inflight_data <- 0;
  t.inflight_sig <- 0

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
  if t.faults_on || t.reknits > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "    faults: injected=%d retransmits=%d drops=%d dups=%d \
          corrupts=%d reknits=%d\n"
         t.faults_injected t.retransmits t.drops_detected t.dups_detected
         t.corrupts_detected t.reknits);
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
  let dump_links name links =
    Array.iteri
      (fun i l ->
        if not (Queue.is_empty l) then
          Buffer.add_string b
            (Printf.sprintf "    %s %d->%d: %d msgs (head %s)\n" name i
               (succ t i) (Queue.length l)
               (let arrival, m = Queue.peek l in
                Format.asprintf "%a@%d" Msg.pp m arrival)))
      links
  in
  dump_links "link_data" t.links_data;
  dump_links "link_sig" t.links_sig;
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
        ("rtx_data_len", Json.Int (Queue.length n.hop_data.hs_rtx));
        ("rtx_sig_len", Json.Int (Queue.length n.hop_sig.hs_rtx));
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
  let link_json links =
    Json.List
      (Array.to_list
         (Array.mapi
            (fun i (l : (int * Msg.t) Queue.t) ->
              Json.Obj
                [
                  ("from", Json.Int i);
                  ("to", Json.Int (succ t i));
                  ("occupancy", Json.Int (Queue.length l));
                  ( "head",
                    if Queue.is_empty l then Json.Null
                    else
                      let arrival, m = Queue.peek l in
                      Json.Obj
                        [
                          ("arrival", Json.Int arrival);
                          ("msg", Json.String (Format.asprintf "%a" Msg.pp m));
                        ] );
                ])
            links))
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
      ("retransmits", Json.Int t.retransmits);
      ("drops_detected", Json.Int t.drops_detected);
      ("dups_detected", Json.Int t.dups_detected);
      ("corrupts_detected", Json.Int t.corrupts_detected);
      ("faults_injected", Json.Int t.faults_injected);
      ("reknits", Json.Int t.reknits);
      ("nodes", Json.List (Array.to_list (Array.map node_json t.nodes)));
      ("links_data", link_json t.links_data);
      ("links_sig", link_json t.links_sig);
    ]

let dist_histogram t = Array.copy t.dist_hist
let consumers_histogram t = Array.copy t.consumers_hist

(* Recovery-protocol counters, for tests and harness summaries. *)
let retransmits t = t.retransmits
let drops_detected t = t.drops_detected
let dups_detected t = t.dups_detected
let corrupts_detected t = t.corrupts_detected
let faults_injected t = t.faults_injected
let reknits t = t.reknits
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
  Metrics.set_int m "ring.retransmits" t.retransmits;
  Metrics.set_int m "ring.drops_detected" t.drops_detected;
  Metrics.set_int m "ring.dups_detected" t.dups_detected;
  Metrics.set_int m "ring.corrupts_detected" t.corrupts_detected;
  Metrics.set_int m "ring.faults_injected" t.faults_injected;
  Metrics.set_int m "ring.reknits" t.reknits;
  Metrics.set_int m "ring.dead_nodes" (dead_nodes t)
