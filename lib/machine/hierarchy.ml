(* The conventional memory hierarchy: per-core L1s, a shared banked L2, a
   DRAM backend, and a directory that charges cache-to-cache transfer
   latency when a core touches a line last written by another core.

   This is a timing model: data lives in the functional memory owned by
   the runtime.  The directory implements the "optimistic 10-cycle
   cache-to-cache latency" coherence abstraction the paper uses for the
   conventional machine (Section 6.1), including the guarantee that a
   particular L1 preserves the order of stores to a location. *)

module Ih = Hashtbl.Make (Int)

type line_state = {
  mutable owner : int;    (* last writer core, -1 if clean/shared *)
  mutable sharers : int;  (* bitmask of cores with a copy *)
}

type t = {
  cfg : Mach_config.mem_config;
  l1s : Cache.t array;
  l2 : Cache.t;
  dram : Dram.t;
  directory : line_state Ih.t;             (* line addr -> state *)
  l2_banks : int array;                    (* busy-until per bank *)
  mutable c2c_transfers : int;
  mutable l2_accesses : int;
}

let create (mcfg : Mach_config.t) =
  {
    cfg = mcfg.Mach_config.mem;
    l1s = Array.init mcfg.Mach_config.n_cores (fun _ ->
        Cache.create mcfg.Mach_config.mem.Mach_config.l1);
    l2 = Cache.create mcfg.Mach_config.mem.Mach_config.l2;
    dram =
      Dram.create ~latency:mcfg.Mach_config.mem.Mach_config.dram_latency
        ~banks:mcfg.Mach_config.mem.Mach_config.dram_banks;
    directory = Ih.create 4096;
    l2_banks = Array.make (Int.max 1 mcfg.Mach_config.mem.Mach_config.l2_banks) 0;
    c2c_transfers = 0;
    l2_accesses = 0;
  }

let line_words t = t.cfg.Mach_config.l1.Mach_config.line_words

let dir_state t laddr =
  match Ih.find_opt t.directory laddr with
  | Some s -> s
  | None ->
      let s = { owner = -1; sharers = 0 } in
      Ih.replace t.directory laddr s;
      s

(* Charge an L2 access at [cycle], including bank contention; returns
   latency. *)
let l2_access t ~cycle ~write addr =
  t.l2_accesses <- t.l2_accesses + 1;
  let laddr = addr / line_words t in
  let bank_i = laddr mod Array.length t.l2_banks in
  let start = Int.max cycle t.l2_banks.(bank_i) in
  let queue = start - cycle in
  t.l2_banks.(bank_i) <- start + 2; (* bank occupied 2 cycles per access *)
  match Cache.access t.l2 ~write addr with
  | Cache.Hit -> queue + t.cfg.Mach_config.l2_latency
  | Cache.Miss | Cache.Miss_dirty ->
      queue + t.cfg.Mach_config.l2_latency + Dram.access t.dram ~cycle addr

(* A core access through its private L1.  [coherent] charges directory
   cost for lines dirty in a remote L1 (used for shared data on the
   conventional machine; ring-cache accesses bypass this path). *)
let access t ~core ~cycle ~(write : bool) ~(coherent : bool) addr : int =
  let laddr = addr / line_words t in
  let c2c =
    if not coherent then 0
    else begin
      let st = dir_state t laddr in
      let cost =
        if st.owner >= 0 && st.owner <> core then begin
          (* dirty in a remote L1: cache-to-cache transfer *)
          t.c2c_transfers <- t.c2c_transfers + 1;
          (* remote copy is downgraded/invalidated *)
          Cache.invalidate t.l1s.(st.owner) addr;
          t.cfg.Mach_config.c2c_latency
        end
        else 0
      in
      if write then begin
        st.owner <- core;
        st.sharers <- 1 lsl core
      end
      else st.sharers <- st.sharers lor (1 lsl core);
      cost
    end
  in
  let l1 = t.l1s.(core) in
  match Cache.access l1 ~write addr with
  | Cache.Hit ->
      if c2c > 0 then
        (* treat the transfer cost as dominating the local hit *)
        c2c
      else t.cfg.Mach_config.l1.Mach_config.hit_latency
  | (Cache.Miss | Cache.Miss_dirty) as miss ->
      (* the write-back occupies the L2 bank but is off the critical
         path *)
      if miss = Cache.Miss_dirty then
        ignore
          (l2_access t ~cycle ~write:true
             (Cache.evicted_line l1 * line_words t));
      let lower = l2_access t ~cycle ~write:false addr in
      t.cfg.Mach_config.l1.Mach_config.hit_latency + lower + c2c

(* Latency for the ring cache's owner node to reach the L1 level on a ring
   miss or eviction (Section 5.2 "remote L1 request/reply"). *)
let owner_l1_access t ~core ~cycle ~write addr =
  access t ~core ~cycle ~write ~coherent:true addr

let l1_hit_rate t core = Cache.hit_rate t.l1s.(core)
let c2c_transfers t = t.c2c_transfers

let export_metrics t (m : Helix_obs.Metrics.t) =
  let open Helix_obs in
  Metrics.set_int m "hier.c2c_transfers" t.c2c_transfers;
  Metrics.set_int m "hier.l2_accesses" t.l2_accesses;
  Array.iteri
    (fun core l1 ->
      Metrics.set_float m
        (Printf.sprintf "hier.l1.%d.hit_rate" core)
        (Cache.hit_rate l1))
    t.l1s
