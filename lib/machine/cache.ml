(* Set-associative cache timing model with LRU replacement.

   The model tracks tags only: data always lives in the functional memory;
   the cache answers "hit or miss" and evictions.  Addresses are in words;
   the line size groups adjacent words.

   Ways are stored struct-of-arrays, way [w] of set [s] at index
   [s * assoc + w]: line address in [tags], last-use clock in [lru], and
   a state byte (bit 0 valid, bit 1 dirty).  An access allocates
   nothing, and a 1M-word L2 is three flat arrays instead of 131k line
   records. *)

type t = {
  cfg : Mach_config.cache_config;
  n_sets : int;
  assoc : int;
  tags : int array;   (* line address (addr / line_words) *)
  lru : int array;    (* larger = more recently used *)
  state : Bytes.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable evicted_line : int;  (* victim of the last [Miss_dirty] *)
}

let valid = 1
let dirty = 2

let create (cfg : Mach_config.cache_config) =
  let n_sets = Int.max 1 (cfg.size_words / (cfg.assoc * cfg.line_words)) in
  let ways = n_sets * cfg.assoc in
  {
    cfg;
    n_sets;
    assoc = cfg.assoc;
    tags = Array.make ways (-1);
    lru = Array.make ways 0;
    state = Bytes.make ways '\000';
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    evicted_line = -1;
  }

let line_of t addr = addr / t.cfg.line_words
let base_of t laddr = (laddr mod t.n_sets) * t.assoc
let is_valid t i = Bytes.get_uint8 t.state i land valid <> 0

type outcome = Hit | Miss | Miss_dirty

(* Index of the valid way holding [laddr] in the set at [base], or -1. *)
let rec find t base laddr w =
  if w = t.assoc then -1
  else
    let i = base + w in
    if is_valid t i && t.tags.(i) = laddr then i else find t base laddr (w + 1)

(* The replacement victim: the last invalid way if there is one, else
   the least recently used valid way (the first on a tie). *)
let rec victim t base w v =
  if w = t.assoc then v
  else
    let i = base + w in
    let v =
      if not (is_valid t i) then i
      else if is_valid t v && t.lru.(i) < t.lru.(v) then i
      else v
    in
    victim t base (w + 1) v

(* Access a word; allocate on miss. *)
let access t ~(write : bool) (addr : int) : outcome =
  t.clock <- t.clock + 1;
  let laddr = line_of t addr in
  let base = base_of t laddr in
  let i = find t base laddr 0 in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    t.lru.(i) <- t.clock;
    if write then Bytes.set_uint8 t.state i (valid lor dirty);
    Hit
  end
  else begin
    t.misses <- t.misses + 1;
    let v = victim t base 0 base in
    let st = Bytes.get_uint8 t.state v in
    let outcome =
      if st land valid = 0 then Miss
      else begin
        t.evictions <- t.evictions + 1;
        if st land dirty = 0 then Miss
        else begin
          t.evicted_line <- t.tags.(v);
          Miss_dirty
        end
      end
    in
    t.tags.(v) <- laddr;
    Bytes.set_uint8 t.state v (if write then valid lor dirty else valid);
    t.lru.(v) <- t.clock;
    outcome
  end

let evicted_line t = t.evicted_line

(* Probe without side effects. *)
let contains t addr =
  let laddr = line_of t addr in
  find t (base_of t laddr) laddr 0 >= 0

let invalidate t addr =
  let laddr = line_of t addr in
  let i = find t (base_of t laddr) laddr 0 in
  if i >= 0 then Bytes.set_uint8 t.state i 0

let flush_all t = Bytes.fill t.state 0 (Bytes.length t.state) '\000'

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 1.0 else float_of_int t.hits /. float_of_int total

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
