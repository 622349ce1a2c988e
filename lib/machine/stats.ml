(* Per-core cycle accounting.

   Every simulated cycle of every core is attributed to exactly one
   bucket.  The buckets follow the overhead taxonomy of Figure 12 (via
   Burger et al.'s methodology): a cycle is useful computation, or it is
   lost to synchronization instructions, dependence waiting, communication
   of shared data, the private memory hierarchy, or idling (no iteration
   assigned -- low trip count / iteration imbalance). *)

type bucket =
  | Busy              (* at least one uop issued *)
  | Sync_instr        (* issuing/executing wait-signal instructions *)
  | Dep_wait          (* blocked in wait for a predecessor's signal *)
  | Communication     (* stalled on shared-data transfer (ring or c2c) *)
  | Mem_stall         (* stalled on private cache miss *)
  | Pipeline          (* RAW / structural / branch-penalty stalls *)
  | Idle              (* no work available *)

let all_buckets =
  [ Busy; Sync_instr; Dep_wait; Communication; Mem_stall; Pipeline; Idle ]

let bucket_name = function
  | Busy -> "busy"
  | Sync_instr -> "wait/signal"
  | Dep_wait -> "dependence-waiting"
  | Communication -> "communication"
  | Mem_stall -> "memory"
  | Pipeline -> "pipeline"
  | Idle -> "idle"

(* Explicit dense index of each bucket, the slot it occupies in
   [by_bucket]. *)
let bucket_index = function
  | Busy -> 0
  | Sync_instr -> 1
  | Dep_wait -> 2
  | Communication -> 3
  | Mem_stall -> 4
  | Pipeline -> 5
  | Idle -> 6

let n_buckets = 7

type t = {
  mutable cycles : int;
  mutable retired : int;
  mutable retired_sync : int;    (* wait+signal instructions retired *)
  mutable shared_loads : int;
  mutable shared_stores : int;
  by_bucket : int array;         (* cycles per [bucket_index] *)
  retired_sink : int ref;
      (* shared monotonic retirement counter, bumped on every [retire];
         lets the executor's watchdog observe aggregate progress without
         folding over all cores each cycle *)
}

let create ?(retired_sink = ref 0) () =
  {
    cycles = 0;
    retired = 0;
    retired_sync = 0;
    shared_loads = 0;
    shared_stores = 0;
    by_bucket = Array.make n_buckets 0;
    retired_sink;
  }

let charge t bucket =
  t.cycles <- t.cycles + 1;
  let i = bucket_index bucket in
  t.by_bucket.(i) <- t.by_bucket.(i) + 1

(* Charge [n] cycles to [bucket] at once: what a run of identical
   per-cycle [charge] calls would record.  Used by the event engine when
   it fast-forwards over a stall window. *)
let charge_n t bucket n =
  if n > 0 then begin
    t.cycles <- t.cycles + n;
    let i = bucket_index bucket in
    t.by_bucket.(i) <- t.by_bucket.(i) + n
  end

let retire t =
  t.retired <- t.retired + 1;
  incr t.retired_sink

let get t bucket = t.by_bucket.(bucket_index bucket)

let merge (ts : t list) =
  let m = create () in
  List.iter
    (fun t ->
      m.cycles <- m.cycles + t.cycles;
      m.retired <- m.retired + t.retired;
      m.retired_sync <- m.retired_sync + t.retired_sync;
      m.shared_loads <- m.shared_loads + t.shared_loads;
      m.shared_stores <- m.shared_stores + t.shared_stores;
      Array.iteri (fun i v -> m.by_bucket.(i) <- m.by_bucket.(i) + v)
        t.by_bucket)
    ts;
  m

let fraction t bucket =
  if t.cycles = 0 then 0.0
  else float_of_int (get t bucket) /. float_of_int t.cycles

(* Publish this accounting under [prefix] ("core.3", "cores", ...).  The
   bucket fractions exported here are exactly what [pp] prints, so a
   metrics dump and the legacy text path can be cross-checked. *)
let export_metrics ~prefix t (m : Helix_obs.Metrics.t) =
  let open Helix_obs in
  let key k = prefix ^ "." ^ k in
  Metrics.set_int m (key "cycles") t.cycles;
  Metrics.set_int m (key "retired") t.retired;
  Metrics.set_int m (key "retired_sync") t.retired_sync;
  Metrics.set_int m (key "shared_loads") t.shared_loads;
  Metrics.set_int m (key "shared_stores") t.shared_stores;
  Metrics.set_float m (key "ipc")
    (if t.cycles = 0 then 0.0
     else float_of_int t.retired /. float_of_int t.cycles);
  List.iter
    (fun b ->
      Metrics.set_int m (key ("bucket." ^ bucket_name b)) (get t b);
      Metrics.set_float m (key ("frac." ^ bucket_name b)) (fraction t b))
    all_buckets

let pp ppf t =
  Format.fprintf ppf "cycles=%d retired=%d ipc=%.2f" t.cycles t.retired
    (if t.cycles = 0 then 0.0
     else float_of_int t.retired /. float_of_int t.cycles);
  List.iter
    (fun b ->
      let v = get t b in
      if v > 0 then
        Format.fprintf ppf " %s=%.1f%%" (bucket_name b)
          (100.0 *. float_of_int v /. float_of_int t.cycles))
    all_buckets
