(* Dynamic dependence sanitizer (ISSUE 2).

   HELIX's correctness argument is that every loop-carried dependence is
   wrapped in a wait/signal sequential segment: two accesses to the same
   shared address from different iterations are ordered because they
   execute inside the *same* segment, whose instances run in iteration
   order by construction.  The sanitizer checks exactly that invariant
   dynamically: it records every worker memory access as
   (core, iteration, segment, addr, read/write) and flags any cross-core
   conflicting pair (at least one write) that is NOT covered by a common
   segment.

   Happens-before model.  Within one invocation, iterations are
   round-robin over cores, and each core executes its own iterations in
   program order -- so same-core pairs are always ordered and only
   cross-core pairs can race.  A cross-core pair is ordered if and only
   if both accesses run under the same sequential segment (same seg id):
   segment instances of one segment are serialized across cores by the
   wait/signal protocol.  Accesses under *different* segments, or outside
   any segment, share no ordering edge.

   The implementation keeps, per address and per segment key (segment id,
   or "unguarded"), bitmasks of writer cores and accessor cores.  A new
   access conflicts if some key other than its own covering segment has a
   writer (for reads) or any accessor (for writes) on a different core.
   This is O(distinct keys per address) per access, and addresses touched
   by only one core or never written are filtered by the masks for
   free. *)

module Ih = Hashtbl.Make (Int)

type violation = {
  v_addr : int;
  v_seg1 : int option;          (* segment of the earlier (stored) access *)
  v_core1 : int;
  v_iter1 : int;
  v_write1 : bool;
  v_seg2 : int option;          (* segment of the access that tripped it *)
  v_core2 : int;
  v_iter2 : int;
  v_write2 : bool;
}

(* Per-(addr, seg-key) access summary.  [sample] is one representative
   access for reporting, preferring writes (the interesting side of a
   conflict pair). *)
type entry = {
  e_key : int;                  (* segment id, or -1 = unguarded *)
  mutable writers : int;        (* core bitmask *)
  mutable accessors : int;      (* core bitmask, includes writers *)
  mutable sample : int * int * bool; (* core, iter, write *)
}

type t = {
  table : entry list ref Ih.t; (* addr -> per-key entries *)
  mutable violations : int;
  mutable samples : violation list;        (* newest first, capped *)
}

let max_samples = 8
let no_seg = -1

let create () = { table = Ih.create 1024; violations = 0; samples = [] }

let reset t =
  Ih.reset t.table;
  t.violations <- 0;
  t.samples <- []

let key_of = function Some s -> s | None -> no_seg
let seg_of k = if k = no_seg then None else Some k

let record t ~core ~iter ~seg ~addr ~write =
  let key = key_of seg in
  (* clamp the shift for 63-bit ints; cores >= 62 share the top bit,
     which can only under-report cross-core conflicts on machines far
     larger than anything simulated here *)
  let bit = 1 lsl (Int.min core 62) in
  let entries =
    match Ih.find_opt t.table addr with
    | Some r -> r
    | None ->
        let r = ref [] in
        Ih.add t.table addr r;
        r
  in
  (* conflict with any entry not covered by a common segment *)
  let conflicting e =
    let same_segment = e.e_key = key && key <> no_seg in
    (not same_segment)
    && (if write then e.accessors land lnot bit <> 0
        else e.writers land lnot bit <> 0)
  in
  (match List.find_opt conflicting !entries with
  | Some e ->
      t.violations <- t.violations + 1;
      if List.length t.samples < max_samples then begin
        let c1, i1, w1 = e.sample in
        t.samples <-
          {
            v_addr = addr;
            v_seg1 = seg_of e.e_key;
            v_core1 = c1;
            v_iter1 = i1;
            v_write1 = w1;
            v_seg2 = seg;
            v_core2 = core;
            v_iter2 = iter;
            v_write2 = write;
          }
          :: t.samples
      end
  | None -> ());
  match List.find_opt (fun e -> e.e_key = key) !entries with
  | Some e ->
      if write then e.writers <- e.writers lor bit;
      e.accessors <- e.accessors lor bit;
      let _, _, w0 = e.sample in
      if write && not w0 then e.sample <- (core, iter, write)
  | None ->
      entries :=
        {
          e_key = key;
          writers = (if write then bit else 0);
          accessors = bit;
          sample = (core, iter, write);
        }
        :: !entries

let violations t = t.violations
let sample_violations t = List.rev t.samples

let pp_seg = function
  | Some s -> "seg " ^ string_of_int s
  | None -> "unguarded"

let describe_violation v =
  Printf.sprintf
    "addr 0x%x: core %d iter %d %s (%s) vs core %d iter %d %s (%s)" v.v_addr
    v.v_core1 v.v_iter1
    (if v.v_write1 then "write" else "read")
    (pp_seg v.v_seg1) v.v_core2 v.v_iter2
    (if v.v_write2 then "write" else "read")
    (pp_seg v.v_seg2)

let summary t =
  match sample_violations t with
  | [] -> "no unguarded loop-carried dependences"
  | v :: _ ->
      Printf.sprintf "%d unguarded access pair(s); first: %s" t.violations
        (describe_violation v)
