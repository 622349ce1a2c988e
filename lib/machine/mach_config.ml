(* Machine configuration records for the simulated multicore.

   Defaults follow the paper's experimental setup (Section 6.1): Atom-like
   2-way in-order cores, per-core 32KB 8-way L1, shared 8MB 16-bank L2,
   DRAM behind it, and an optimistic 10-cycle cache-to-cache transfer
   latency for the conventional machine.  Word = 8 bytes. *)

type core_kind = In_order | Out_of_order

type core_config = {
  kind : core_kind;
  width : int;            (* issue width *)
  window : int;           (* OoO instruction window; ignored in-order *)
  branch_penalty : int;   (* mispredict front-end redirect *)
}

type cache_config = {
  size_words : int;
  assoc : int;
  line_words : int;
  hit_latency : int;
}

type mem_config = {
  l1 : cache_config;
  l2 : cache_config;
  l2_banks : int;
  l2_latency : int;        (* access latency once at L2 *)
  dram_latency : int;
  dram_banks : int;
  c2c_latency : int;       (* cache-to-cache transfer (coherence) latency *)
}

type t = {
  n_cores : int;
  core : core_config;
  mem : mem_config;
}

let atom_core =
  {
    kind = In_order;
    width = 2;
    window = 1;
    branch_penalty = 7;
  }

let ooo2_core =
  {
    kind = Out_of_order;
    width = 2;
    window = 32;
    branch_penalty = 12;
  }

let ooo4_core = { ooo2_core with width = 4; window = 64 }

(* 32KB / 8B words = 4096 words, 8-way; 64B lines = 8 words. *)
let default_l1 = { size_words = 4096; assoc = 8; line_words = 8; hit_latency = 3 }

(* 8MB / 8B = 1M words, 16-way. *)
let default_l2 =
  { size_words = 1_048_576; assoc = 16; line_words = 8; hit_latency = 12 }

let default_mem =
  {
    l1 = default_l1;
    l2 = default_l2;
    l2_banks = 16;
    l2_latency = 12;
    dram_latency = 120;
    dram_banks = 8;
    c2c_latency = 10; (* paper's optimistic conventional-coherence latency *)
  }

let default = { n_cores = 16; core = atom_core; mem = default_mem }

(* Measured round-trip core-to-core latencies from the paper's testbed
   (Section 6.1), used by Figure 4a. *)
let measured_c2c_latencies =
  [ ("Ivy Bridge", 75); ("Sandy Bridge", 95); ("Nehalem", 110) ]

let with_cores t n = { t with n_cores = n }
let with_core_kind t core = { t with core }
let with_c2c t lat = { t with mem = { t.mem with c2c_latency = lat } }
