(** The ring's link layer: the per-class wires between neighbouring
    nodes, the credits a sender checks before it puts a message on one,
    and the seeded fault plan that perturbs them.

    A plan without lossy classes leaves the wires the paper's lossless,
    in-order links, at most delayed.  A plan with any drop, duplicate,
    reorder or corrupt rate wraps them in a go-back-N protocol: every
    wire copy carries a per-link hop stamp and a payload checksum, the
    receiver accepts only the next expected hop with a valid checksum,
    and the sender keeps clean copies until a modeled cumulative ack
    returns, resending its window on timer expiry.  Either way every
    node receives the identical message sequence, so a plan perturbs
    timing but never architectural results. *)

(** {1 Fault plans} *)

(** One perturbation family: a delay class (lossless: every queue stays
    FIFO, so traffic is only ever late), four lossy per-mille classes per
    link send, and an optional fail-stop of one core at a fixed cycle.
    Every roll is a pure hash of [fl_seed] and the event, so a plan
    reproduces the same schedule on every run. *)
type fault_plan = {
  fl_seed : int;
  fl_delay : int;
      (** [D]: extra cycles per hop, uniform in [0,D] on data wires and
          [0,2D] on signal wires; per injection [0,D+1] for data and
          [0,2D+1] for signals *)
  fl_drop : int;     (** per-mille probability per link send *)
  fl_dup : int;
  fl_reorder : int;
  fl_corrupt : int;
  fl_fail_stop : (int * int) option;  (** [(node, cycle)]: core dies *)
}

val faulty :
  ?delay:int -> ?drop:int -> ?dup:int -> ?reorder:int -> ?corrupt:int ->
  ?fail_stop:int * int -> seed:int -> unit -> fault_plan
(** Rates clamp to [0..1000] per mille and the delay to [>= 0]; all
    default to 0. *)

val fault_plan_of_string : string -> (fault_plan, string) result
(** Parse a spec like
    ["seed=42,delay=2,drop=5,dup=3,reorder=2,corrupt=1,kill=3@50000"]
    (comma-separated [key=value]; rates per mille; [kill=NODE@CYCLE]).
    The four rates split one roll, so they must sum to at most 1000, and
    [drop + corrupt] must stay below 1000 or no copy is ever delivered. *)

val fault_plan_to_string : fault_plan -> string
(** Round-trips through {!fault_plan_of_string}; zero classes omitted. *)

(** {1 Wires} *)

type t

val create :
  ?trace:Helix_obs.Trace.t -> latency:int -> capacity:int ->
  inbox_data:Msg.t Queue.t array -> inbox_sig:Msg.t Queue.t array ->
  fault_plan option -> t
(** Wire [i] runs from node [i] to node [i+1] (mod the node count, the
    length of the inbox arrays).  [inbox_*.(i)] is node [i]'s input
    buffer: delivery appends to it, and it counts against the credits of
    the wire that feeds it. *)

val is_lossy : t -> bool
(** Does the plan attack wire copies (any drop, dup, reorder or corrupt
    rate above 0)?  Only then does go-back-N engage. *)

val free_space : t -> data:bool -> int -> int
(** Credits left on wire [i]: capacity minus the copies on the wire and
    the messages waiting in the receiver's input buffer. *)

val send : t -> Msg.t -> int -> cycle:int -> unit
(** Put a message on wire [i] (its class follows the payload). *)

val inject_delay : t -> data:bool -> cycle:int -> node:int -> int
(** The delay class's extra core-to-node injection latency. *)

val tick : t -> cycle:int -> unit
(** Deliver every copy that has arrived into the receivers' input
    buffers, in wire order.  Under go-back-N, discard corrupt, repeated
    and out-of-order copies, schedule acks for accepted ones, then learn
    matured acks and fire expired retransmission timers (NIC-level, so
    this runs for stalled and fail-stopped nodes alike). *)

val next_timer : t -> int
(** Earliest retransmission deadline or ack arrival ([max_int] if none):
    a wake source even when no message is logically in flight. *)

val next_arrival : t -> int
(** Earliest arrival among wire heads ([max_int] if all wires are
    empty). *)

val reset : t -> unit
(** Empty every wire and forget the protocol state (the distributed
    fence and the abort path). *)

(** {1 Diagnostics} *)

val occupancy : t -> data:bool -> int -> int
val head : t -> data:bool -> int -> (int * Msg.t) option
(** [(arrival, message)] at the head of wire [i]. *)

val unacked : t -> data:bool -> int -> int
(** Clean copies node [i] holds for retransmission. *)

val retransmits : t -> int
val drops_detected : t -> int
val dups_detected : t -> int
val corrupts_detected : t -> int
val faults_injected : t -> int
(** Wire faults the schedule fired (fail-stops are counted by the
    ring). *)
