(* The ring's link layer: per-class wires between neighbouring nodes,
   their credits, and the seeded fault plan that perturbs them.

   A plan without lossy classes keeps the wires the paper's lossless,
   in-order links (possibly delayed: every queue stays FIFO and delivery
   pops heads, so a delay never loses, repeats or reorders anything).  A
   lossy plan attacks wire *copies* and wraps the wires in go-back-N:
   the logical message survives in its sender's retransmission buffer
   until the cumulative ack comes back, so the protocol (not the test
   harness) is responsible for recovery. *)

type fault_plan = {
  fl_seed : int;
  fl_delay : int;    (* D: hop delay in [0,D] (signals [0,2D]) *)
  fl_drop : int;     (* per-mille probability per link send *)
  fl_dup : int;
  fl_reorder : int;
  fl_corrupt : int;
  fl_fail_stop : (int * int) option;  (* (node, cycle): core dies *)
}

let faulty ?(delay = 0) ?(drop = 0) ?(dup = 0) ?(reorder = 0) ?(corrupt = 0)
    ?fail_stop ~seed () =
  let clamp r = max 0 (min 1000 r) in
  { fl_seed = seed; fl_delay = max 0 delay; fl_drop = clamp drop;
    fl_dup = clamp dup; fl_reorder = clamp reorder;
    fl_corrupt = clamp corrupt; fl_fail_stop = fail_stop }

let lossy p = p.fl_drop + p.fl_dup + p.fl_reorder + p.fl_corrupt > 0

exception Bad_fault_spec of string

(* "seed=42,delay=2,drop=5,dup=3,reorder=2,corrupt=1,kill=3@50000" *)
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
              | "delay" ->
                  let d = int_v () in
                  if d < 0 then bad "delay: must be >= 0 cycles: %d" d;
                  p := { !p with fl_delay = d }
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
    (* the four rates split one per-mille roll: past 1000 the later
       classes would silently never fire, and with drop + corrupt at 1000
       no copy would ever arrive intact *)
    let p = !p in
    let sum = p.fl_drop + p.fl_dup + p.fl_reorder + p.fl_corrupt in
    if sum > 1000 then
      bad "drop+dup+reorder+corrupt = %d per mille; they share one roll, \
           so at most 1000" sum;
    if p.fl_drop + p.fl_corrupt >= 1000 then
      bad "drop+corrupt = %d per mille: no copy would ever be delivered; \
           keep it below 1000" (p.fl_drop + p.fl_corrupt);
    Ok p
  with Bad_fault_spec m -> Error m

let fault_plan_to_string p =
  let opt key v = if v > 0 then Printf.sprintf "%s=%d" key v else "" in
  String.concat ","
    (List.filter
       (fun s -> s <> "")
       [
         Printf.sprintf "seed=%d" p.fl_seed;
         opt "delay" p.fl_delay;
         opt "drop" p.fl_drop;
         opt "dup" p.fl_dup;
         opt "reorder" p.fl_reorder;
         opt "corrupt" p.fl_corrupt;
         (match p.fl_fail_stop with
         | Some (n, c) -> Printf.sprintf "kill=%d@%d" n c
         | None -> "");
       ])

(* The plan's one hash: a splitmix-style finalizer keyed on (seed, cycle,
   node or link, salt, hop).  Pure, so a seed reproduces its schedule; a
   delay roll passes [hop = -1], which zeroes the hop term.  Because the
   cycle is an input, a retransmission of the same hop rolls
   independently, which guarantees eventual delivery while
   drop + corrupt < 1000. *)
let mix ~seed ~cycle ~node ~salt ~hop =
  let x =
    seed
    lxor (cycle * 0x9e3779b97f4a7c1)
    lxor ((node + 1) * 0xf51afd7ed558cc5)
    lxor ((salt + 1) * 0x4ceb9fe1a85ec53)
    lxor ((hop + 1) * 0x2545f4914f6cdd1)
  in
  let x = x lxor (x lsr 33) in
  let x = x * 0xbf58476d1ce4e5b in
  (x lxor (x lsr 29)) land max_int

(* Payload checksum over the protocol-relevant fields; any node can
   recompute and compare. *)
let checksum (m : Msg.t) =
  let a, b =
    match m.Msg.payload with
    | Msg.Data { addr; value } -> (addr, value)
    | Msg.Sig { seg; barrier } -> (seg lxor 0x5deece66d, barrier)
  in
  let x =
    (a * 0x9e3779b97f4a7c1)
    lxor (b * 0xf51afd7ed558cc5)
    lxor ((m.Msg.origin + 1) * 0x4ceb9fe1a85ec53)
    lxor ((m.Msg.seq + 1) * 0x2545f4914f6cdd1)
  in
  let x = x lxor (x lsr 33) in
  let x = x * 0xff51afd7ed558cc in
  (x lxor (x lsr 29)) land max_int

(* Go-back-N state of one wire.  The sender half ([send], [acked], [rtx],
   timer, [acks]) belongs to the wire's source node, the receiver half
   ([expect]) to its destination.  Acks are modeled, not simulated as
   messages: accepting hop [h] enqueues [(cycle + ack_latency, h)] into
   [acks], the ack latency being the long way around the unidirectional
   ring. *)
type hop_state = {
  mutable send : int;      (* next hop stamp *)
  mutable expect : int;    (* next hop the receiver accepts *)
  mutable acked : int;     (* highest cumulatively-acked hop (-1 = none) *)
  rtx : (int * Msg.t) Queue.t;  (* (hop, clean copy) unacked, FIFO by hop *)
  mutable deadline : int;  (* retransmission timer, max_int = unarmed *)
  mutable attempt : int;   (* consecutive timeouts (exponential backoff) *)
  acks : (int * int) Queue.t;  (* (learn_cycle, hop), FIFO by learn *)
}

(* One traffic class: wire [i] runs from node [i] to node [i+1] and feeds
   [inbox.(i+1)].  [stamps] and [hops] serve go-back-N only. *)
type channel = {
  data : bool;
  wires : (int * Msg.t) Queue.t array;  (* (arrival cycle, copy), FIFO *)
  inbox : Msg.t Queue.t array;
  stamps : (int * int) Queue.t array;
      (* (hop, checksum) of each copy on the wire, in wire order; the
         checksum is the clean message's, so a corrupted copy fails it *)
  hops : hop_state array;
}

type t = {
  n : int;
  latency : int;
  capacity : int;
  plan : fault_plan;  (* the all-zero plan when the ring has none *)
  lossy : bool;       (* go-back-N engaged *)
  ack_latency : int;
  rtx_base : int;
  trace : Helix_obs.Trace.t option;
  dch : channel;
  sch : channel;
  mutable retransmits : int;        (* copies resent on timer expiry *)
  mutable drops_detected : int;     (* hop gaps seen by receivers *)
  mutable dups_detected : int;      (* repeated hops discarded *)
  mutable corrupts_detected : int;  (* checksum failures discarded *)
  mutable faults_injected : int;    (* faults the schedule actually fired *)
}

(* Recovery-protocol timing.  The retransmission timeout [rtx_base] must
   comfortably exceed one hop plus the modeled cumulative-ack latency, or
   healthy links would retransmit spuriously; the slack term absorbs
   delay and backpressure.  Exponential backoff (capped at 2^6) keeps a
   pathological schedule from flooding a link it keeps killing. *)
let max_backoff_shift = 6

let create ?trace ~latency ~capacity ~inbox_data ~inbox_sig plan =
  let n = Array.length inbox_data in
  let channel data inbox =
    let queues () = Array.init n (fun _ -> Queue.create ()) in
    { data; wires = queues (); inbox; stamps = queues ();
      hops =
        Array.init n (fun _ ->
            { send = 0; expect = 0; acked = -1; rtx = Queue.create ();
              deadline = max_int; attempt = 0; acks = Queue.create () }) }
  in
  let plan = Option.value plan ~default:(faulty ~seed:0 ()) in
  { n; latency; capacity; plan; lossy = lossy plan;
    ack_latency = max 1 ((n - 1) * latency);
    rtx_base = (4 * n * latency) + 16; trace;
    dch = channel true inbox_data; sch = channel false inbox_sig;
    retransmits = 0; drops_detected = 0; dups_detected = 0;
    corrupts_detected = 0; faults_injected = 0 }

let is_lossy t = t.lossy
let succ t i = (i + 1) mod t.n
let chan t ~data = if data then t.dch else t.sch

(* A delay-class roll, uniform in [0, bound]. *)
let roll t ~salt ~cycle ~node ~bound =
  if t.plan.fl_delay = 0 || bound <= 0 then 0
  else mix ~seed:t.plan.fl_seed ~cycle ~node ~salt ~hop:(-1) mod (bound + 1)

let inject_delay t ~data ~cycle ~node =
  let d = t.plan.fl_delay in
  if data then roll t ~salt:1 ~cycle ~node ~bound:(d + 1)
  else roll t ~salt:2 ~cycle ~node ~bound:((2 * d) + 1)

let arrival t c i ~cycle =
  let d = t.plan.fl_delay in
  cycle + t.latency
  + roll t ~salt:3 ~cycle ~node:i ~bound:(if c.data then d else 2 * d)

let occupancy t ~data i = Queue.length (chan t ~data).wires.(i)

let free_space t ~data i =
  let c = chan t ~data in
  t.capacity - Queue.length c.wires.(i) - Queue.length c.inbox.(succ t i)

(* -- go-back-N ------------------------------------------------------- *)

let wire_name c = if c.data then "data" else "sig"

let corrupt_msg (m : Msg.t) =
  let payload =
    match m.Msg.payload with
    | Msg.Data d -> Msg.Data { d with value = d.value lxor 0x2a }
    | Msg.Sig s -> Msg.Sig { s with barrier = s.barrier lxor 0x2a }
  in
  { m with Msg.payload }

(* Swap the two newest entries (the reorder fault, applied to a wire and
   its stamps alike).  Delivery pops heads in queue order, so this really
   inverts arrival order; the receiver sees a hop inversion and go-back-N
   discards the early one. *)
let transpose_last_two (q : 'a Queue.t) =
  let a = Array.of_seq (Queue.to_seq q) in
  let n = Array.length a in
  if n >= 2 then begin
    let last = a.(n - 1) in
    a.(n - 1) <- a.(n - 2);
    a.(n - 2) <- last;
    Queue.clear q;
    Array.iter (fun x -> Queue.add x q) a
  end

(* Put a stamped copy of [msg] on wire [i], applying the fault schedule.
   Faults touch only this copy; the clean original sits in the sender's
   retransmission buffer. *)
let put t c ~hop msg i ~cycle =
  let p = t.plan in
  let roll =
    mix ~seed:p.fl_seed ~cycle ~node:i ~salt:(if c.data then 11 else 12) ~hop
    mod 1000
  in
  let csum = checksum msg in
  let enqueue m =
    Queue.add (arrival t c i ~cycle, m) c.wires.(i);
    Queue.add (hop, csum) c.stamps.(i)
  in
  let fired fclass =
    t.faults_injected <- t.faults_injected + 1;
    Helix_obs.Trace.fault t.trace ~cycle ~fclass ~link:i ~wire:(wire_name c)
      ~hop
  in
  if roll < p.fl_drop then fired "drop" (* nothing reaches the wire *)
  else if roll < p.fl_drop + p.fl_dup then begin
    fired "dup";
    enqueue msg;
    enqueue msg
  end
  else if roll < p.fl_drop + p.fl_dup + p.fl_reorder then begin
    fired "reorder";
    enqueue msg;
    transpose_last_two c.wires.(i);
    transpose_last_two c.stamps.(i)
  end
  else if roll < p.fl_drop + p.fl_dup + p.fl_reorder + p.fl_corrupt then begin
    fired "corrupt";
    enqueue (corrupt_msg msg)
  end
  else enqueue msg

let send t (msg : Msg.t) i ~cycle =
  let c = chan t ~data:(Msg.is_data msg) in
  if not t.lossy then Queue.add (arrival t c i ~cycle, msg) c.wires.(i)
  else begin
    (* stamp the link's next hop, keep a clean copy until it is
       cumulatively acked, and arm the timer on the first outstanding
       hop *)
    let hs = c.hops.(i) in
    let hop = hs.send in
    hs.send <- hop + 1;
    Queue.add (hop, msg) hs.rtx;
    if hs.deadline = max_int then hs.deadline <- cycle + t.rtx_base;
    put t c ~hop msg i ~cycle
  end

(* Receiver-side validation of the copy just popped from wire [i]: a
   checksum failure (corruption), a repeated hop (duplicate, including
   every resent copy of an accepted hop) or a hop gap (loss: go-back-N
   keeps expecting the gap until it is resent) is counted and discarded;
   the next expected hop is accepted and its ack scheduled back to the
   sender.  In-order acceptance per wire means every node receives the
   identical message sequence as the fault-free run. *)
let accept t c i msg ~cycle =
  let hop, csum = Queue.pop c.stamps.(i) in
  let hs = c.hops.(i) in
  if csum <> checksum msg then begin
    t.corrupts_detected <- t.corrupts_detected + 1;
    false
  end
  else if hop < hs.expect then begin
    t.dups_detected <- t.dups_detected + 1;
    false
  end
  else if hop > hs.expect then begin
    t.drops_detected <- t.drops_detected + 1;
    false
  end
  else begin
    hs.expect <- hs.expect + 1;
    Queue.add (cycle + t.ack_latency, hop) hs.acks;
    true
  end

let deliver t c ~cycle =
  for i = 0 to t.n - 1 do
    let wire = c.wires.(i) in
    let continue_ = ref true in
    while !continue_ && not (Queue.is_empty wire) do
      let arrival, msg = Queue.peek wire in
      if arrival <= cycle then begin
        ignore (Queue.pop wire);
        if (not t.lossy) || accept t c i msg ~cycle then
          Queue.add msg c.inbox.(succ t i)
      end
      else continue_ := false
    done
  done

(* Drain matured acks, advance the cumulative-ack horizon, trim the
   retransmission buffer and re-arm (or disarm) the timer. *)
let process_acks t hs ~cycle =
  let progressed = ref false in
  let continue_ = ref true in
  while !continue_ && not (Queue.is_empty hs.acks) do
    let learn, hop = Queue.peek hs.acks in
    if learn <= cycle then begin
      ignore (Queue.pop hs.acks);
      if hop > hs.acked then begin
        hs.acked <- hop;
        progressed := true
      end
    end
    else continue_ := false
  done;
  if !progressed then begin
    while
      (not (Queue.is_empty hs.rtx)) && fst (Queue.peek hs.rtx) <= hs.acked
    do
      ignore (Queue.pop hs.rtx)
    done;
    hs.attempt <- 0;
    hs.deadline <-
      (if Queue.is_empty hs.rtx then max_int else cycle + t.rtx_base)
  end

(* Timer expiry: resend the oldest unacked window (go-back-N).  Resends
   re-roll the fault schedule at the current cycle.  Retransmissions are
   credit-exempt -- they model emergency traffic on reserved wires -- and
   any resulting duplicates are discarded by the receiver's hop check. *)
let check_retransmit t c i ~cycle =
  let hs = c.hops.(i) in
  if (not (Queue.is_empty hs.rtx)) && cycle >= hs.deadline then begin
    let count = min t.capacity (Queue.length hs.rtx) in
    let sent = ref 0 in
    Queue.iter
      (fun (hop, msg) ->
        if !sent < count then begin
          incr sent;
          put t c ~hop msg i ~cycle
        end)
      hs.rtx;
    t.retransmits <- t.retransmits + count;
    hs.attempt <- hs.attempt + 1;
    hs.deadline <- cycle + (t.rtx_base lsl min hs.attempt max_backoff_shift);
    Helix_obs.Trace.retransmit t.trace ~cycle ~node:i ~wire:(wire_name c)
      ~count ~attempt:hs.attempt
  end

let tick t ~cycle =
  deliver t t.dch ~cycle;
  deliver t t.sch ~cycle;
  if t.lossy then
    for i = 0 to t.n - 1 do
      process_acks t t.dch.hops.(i) ~cycle;
      process_acks t t.sch.hops.(i) ~cycle;
      check_retransmit t t.dch i ~cycle;
      check_retransmit t t.sch i ~cycle
    done

(* Event-engine wake sources, folded without allocating: the ring asks
   for them on every engine step. *)
let earlier (a : int) b = if a < b then a else b

let hop_wake w hs =
  let w = if Queue.is_empty hs.rtx then w else earlier w hs.deadline in
  if Queue.is_empty hs.acks then w else earlier w (fst (Queue.peek hs.acks))

let head_wake w q =
  if Queue.is_empty q then w else earlier w (fst (Queue.peek q))

let next_timer t =
  if not t.lossy then max_int
  else
    Array.fold_left hop_wake
      (Array.fold_left hop_wake max_int t.dch.hops)
      t.sch.hops

let next_arrival t =
  Array.fold_left head_wake
    (Array.fold_left head_wake max_int t.dch.wires)
    t.sch.wires

let reset t =
  List.iter
    (fun c ->
      Array.iter Queue.clear c.wires;
      Array.iter Queue.clear c.stamps;
      Array.iter
        (fun hs ->
          hs.send <- 0;
          hs.expect <- 0;
          hs.acked <- -1;
          Queue.clear hs.rtx;
          Queue.clear hs.acks;
          hs.deadline <- max_int;
          hs.attempt <- 0)
        c.hops)
    [ t.dch; t.sch ]

let head t ~data i = Queue.peek_opt (chan t ~data).wires.(i)
let unacked t ~data i = Queue.length (chan t ~data).hops.(i).rtx
let retransmits t = t.retransmits
let drops_detected t = t.drops_detected
let dups_detected t = t.dups_detected
let corrupts_detected t = t.corrupts_detected
let faults_injected t = t.faults_injected
