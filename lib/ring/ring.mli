(** The ring cache (paper Section 5): one node per core on a
    unidirectional ring, proactively circulating shared data and
    synchronization signals on dedicated credit-bounded wires.

    The model is functional *and* timed: node arrays hold real, possibly
    not-yet-updated values, so a protocol violation (a load without its
    wait) observably returns stale data.  Signals carry a lockstep
    barrier — the acceptance sequence number of their origin's last store
    — and no node applies or forwards a signal before applying that
    store, implementing "signals move in lockstep with forwarded
    data". *)

(** Seeded delay / lossy / fail-stop plan; see {!Link.fault_plan}.  Delay
    and the four lossy classes act on the wires ({!Link}); fail-stop acts
    on a node, which degrades to a repeater. *)
type fault_plan = Link.fault_plan

val faulty :
  ?delay:int -> ?drop:int -> ?dup:int -> ?reorder:int -> ?corrupt:int ->
  ?fail_stop:int * int -> seed:int -> unit -> fault_plan
(** {!Link.faulty}. *)

val fault_plan_of_string : string -> (fault_plan, string) result
(** {!Link.fault_plan_of_string}. *)

val fault_plan_to_string : fault_plan -> string
(** {!Link.fault_plan_to_string}. *)

type config = {
  n_nodes : int;
  link_latency : int;        (** cycles per hop *)
  data_bandwidth : int;      (** data messages per link per cycle *)
  signal_bandwidth : int;    (** signal messages per link per cycle *)
  injection_latency : int;   (** core to ring-node *)
  array_size_words : int;    (** per-node array; [max_int] = unbounded *)
  array_assoc : int;
  array_line_words : int;    (** 1 word: no false sharing *)
  link_capacity : int;       (** per-link buffering (credits) *)
  inject_capacity : int;
  greedy_sig_inject : bool;  (** ablation: signal wires inject with
                                 leftover bandwidth *)
  flush_invalidates : bool;  (** ablation: flush drops clean copies *)
  faults : fault_plan option;  (** seeded delay / lossy / fail-stop plan *)
}

val default_config : n_nodes:int -> config
(** The paper's default: 1-cycle links, 1-word data / 5-signal bandwidth,
    2-cycle injection, 1KB 8-way single-word-line arrays, no fault
    plan. *)

(** Callbacks into the rest of the memory system. *)
type env = {
  backing_load : int -> int;
  backing_store : int -> int -> unit;
  owner_l1_latency : core:int -> cycle:int -> write:bool -> addr:int -> int;
}

type t

val create : ?trace:Helix_obs.Trace.t -> config -> env -> t
(** [?trace] enables structured event tracing (injections, blocked
    injections, lockstep holds, back-pressure stalls) into the given
    ring buffer; omitted, the hot paths pay one branch per event
    site.  Raises [Invalid_argument] if the plan fail-stops a node the
    ring does not have. *)

(** {1 Core-facing operations} *)

val try_store : t -> node:int -> addr:int -> value:int -> cycle:int -> bool
(** Inject a store.  [false] = injection queue full, retry next cycle.
    The value is locally visible immediately; remote nodes see it when
    the message arrives. *)

val try_signal : t -> node:int -> seg:int -> cycle:int -> bool

val load : t -> node:int -> addr:int -> cycle:int -> int * int
(** [(value, latency)].  Hits read the local array (possibly stale — the
    wait protocol's job); misses take a full-lap round trip through the
    owner node's L1 path and return the authoritative value. *)

val signals_satisfied :
  t -> node:int -> seg:int -> origin:int -> threshold:int -> bool

val signals_received : t -> node:int -> seg:int -> origin:int -> int
(** Pure diagnostic query: how many signals has [node] received for
    [(seg, origin)]?  Unlike {!signals_satisfied} it never touches the
    consumed-threshold accounting, so report code can probe freely. *)

val max_outstanding_signals : t -> int
(** For asserting the compiler's ≤2 in-flight-signals bound. *)

(** {1 Clocking and maintenance} *)

val tick : t -> cycle:int -> unit
(** Advance the network one cycle: the link layer delivers arrived
    messages (see {!Link.tick}), then every node forwards with priority
    over injection (strictly on the data wires) and injects.
    Fail-stopped nodes act as repeaters: they forward and retire but
    never apply. *)

val kill_node : t -> node:int -> cycle:int -> int * int
(** Fail-stop [node]'s core and reknit the ring around it (the node
    degrades to a repeater; in-flight traffic still transits and
    retires).  Returns [(lost_data, lost_sig)] — injection-queue messages
    that died with the core and left the in-flight accounting.  Nonzero
    losses mean the current invocation's wait/signal contract may be
    broken and the caller must fall back.  Idempotent. *)

val node_dead : t -> node:int -> bool
val dead_nodes : t -> int

val next_event : t -> now:int -> int option
(** Event-engine contract: [Some c] (c >= now) promises that ticking the
    network strictly before cycle [c] is a no-op; [Some now] means the
    network is (or may be) active this cycle; [None] means it is fully
    drained and only a new injection can create work.  The bound is
    hierarchical: each node publishes a local "empty until c" (stall
    release, injection readiness, lockstep-held heads deferred to the
    data events that release them) and the ring-wide promise is the
    roll-up minimum, together with link-head arrival cycles.  Under a
    lossy plan, retransmission deadlines and pending-ack learn cycles
    are wake sources too (even when nothing is logically in flight), so
    recovery timers participate in idle-cycle skipping instead of
    requiring per-cycle polling. *)

val drained : t -> bool
(** No message in flight anywhere.  O(1): maintained incrementally from
    injection acceptance to retirement. *)

val data_drained : t -> bool
(** The data class is empty (links, buffers, injection queues).  O(1). *)

val invalidate_addr : t -> int -> unit
(** Serial-phase stores to ring-resident addresses must drop every stale
    copy. *)

val flush : t -> cycle:int -> int
(** End-of-loop distributed fence: write dirty values back, reset
    synchronization state, keep clean copies (unless
    [flush_invalidates]).  Returns the latency to charge. *)

val abort : t -> unit
(** Abandon the current invocation {e without} write-back: discard the
    authoritative loop image, all in-flight traffic, signal accounting
    and cached copies.  Used by the executor's rollback path before it
    re-executes the invocation sequentially from the loop-entry memory
    checkpoint. *)

(** {1 Statistics (Figures 4b/4c and sensitivity)} *)

val dist_histogram : t -> int array
val consumers_histogram : t -> int array
val ring_hit_rate : t -> float

(** {1 Recovery-protocol counters} *)

val retransmits : t -> int
val drops_detected : t -> int
val dups_detected : t -> int
val corrupts_detected : t -> int
val faults_injected : t -> int
val reknits : t -> int

val inflight_counts : t -> int * int
(** [(inflight_data, inflight_sig)]: the O(1) per-class quiescence
    roll-up, exposed for diagnostics. *)

val describe : t -> string
(** Complete diagnostic dump: the per-class in-flight roll-up and fault
    counters first, then {e every} node's sigbuf, queue occupancy and
    lockstep state (dead nodes marked), plus every occupied link. *)

val snapshot : t -> Helix_obs.Json.t
(** Structured form of {!describe} for machine-readable stuck reports. *)

val export_metrics : t -> Helix_obs.Metrics.t -> unit
(** Publish the ring's counters and histograms under ["ring."]. *)
