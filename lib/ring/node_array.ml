(* Per-node cache array.

   Set-associative with LRU replacement and a one-word line (Section 5.1:
   "the line size of this cache array is kept at one machine word",
   guaranteeing no false sharing).  A configurable multi-word line is also
   supported for the false-sharing ablation bench.  An unbounded variant
   backs the "unlimited resources" configurations of Figure 11d.

   The bounded variant stores its ways struct-of-arrays, way [w] of set
   [s] at index [s * assoc + w]: line address in [tags], last-use clock
   in [lru], a valid byte in [valid] (a separate bit, because addresses,
   and so tags, may be negative), and the line's words at
   [index * line_words] in [values].  Lookup and insert allocate nothing.
   Line and set indices use floor division, so a negative address has a
   line and a set like any other. *)

module Ih = Hashtbl.Make (Int)

type bounded = {
  n_sets : int;
  assoc : int;
  line_words : int;
  tags : int array;
  lru : int array;   (* larger = more recently used *)
  valid : Bytes.t;
  values : int array;
  mutable clock : int;
  mutable b_hits : int;
  mutable b_misses : int;
  mutable evictions : int;
  mutable b_last : int;  (* value read by the last hitting lookup *)
}

type unbounded = {
  tbl : int Ih.t;
  mutable u_hits : int;
  mutable u_misses : int;
  mutable u_last : int;
}

type t = Bounded of bounded | Unbounded of unbounded

let create ?(line_words = 1) ~size_words ~assoc () =
  if size_words = max_int then
    Unbounded { tbl = Ih.create 1024; u_hits = 0; u_misses = 0; u_last = 0 }
  else
    let n_sets = Int.max 1 (size_words / (assoc * line_words)) in
    let ways = n_sets * assoc in
    Bounded
      {
        n_sets;
        assoc;
        line_words;
        tags = Array.make ways 0;
        lru = Array.make ways 0;
        valid = Bytes.make ways '\000';
        values = Array.make (ways * line_words) 0;
        clock = 0;
        b_hits = 0;
        b_misses = 0;
        evictions = 0;
        b_last = 0;
      }

let floor_div a b = if a >= 0 then a / b else ((a + 1) / b) - 1
let line_of b addr = if b.line_words = 1 then addr else floor_div addr b.line_words
let base_of b tag =
  let s = tag mod b.n_sets in
  (if s < 0 then s + b.n_sets else s) * b.assoc

let word_of b addr tag = addr - (tag * b.line_words)
let is_valid b i = Bytes.unsafe_get b.valid i <> '\000'

(* Index of the valid way holding [tag] in the set at [base], or -1. *)
let rec find b base tag w =
  if w = b.assoc then -1
  else
    let i = base + w in
    if is_valid b i && b.tags.(i) = tag then i else find b base tag (w + 1)

(* The replacement victim: the last invalid way if there is one, else
   the least recently used valid way (the first on a tie). *)
let rec victim b base w v =
  if w = b.assoc then v
  else
    let i = base + w in
    let v =
      if not (is_valid b i) then i
      else if is_valid b v && b.lru.(i) < b.lru.(v) then i
      else v
    in
    victim b base (w + 1) v

(* [lookup t addr]: is [addr] cached?  Counts a hit or a miss; after a
   hit, [last_hit t] is the cached value. *)
let lookup t addr =
  match t with
  | Unbounded u -> (
      match Ih.find u.tbl addr with
      | v ->
          u.u_hits <- u.u_hits + 1;
          u.u_last <- v;
          true
      | exception Not_found ->
          u.u_misses <- u.u_misses + 1;
          false)
  | Bounded b ->
      let tag = line_of b addr in
      let i = find b (base_of b tag) tag 0 in
      if i >= 0 then begin
        b.b_hits <- b.b_hits + 1;
        b.clock <- b.clock + 1;
        b.lru.(i) <- b.clock;
        b.b_last <- b.values.((i * b.line_words) + word_of b addr tag);
        true
      end
      else begin
        b.b_misses <- b.b_misses + 1;
        false
      end

let last_hit = function Unbounded u -> u.u_last | Bounded b -> b.b_last

(* [insert t addr value] writes a word, allocating its line (and zeroing
   the line's other words) on a miss. *)
let insert t addr value =
  match t with
  | Unbounded u -> Ih.replace u.tbl addr value
  | Bounded b ->
      let tag = line_of b addr in
      let base = base_of b tag in
      let i = find b base tag 0 in
      b.clock <- b.clock + 1;
      let i =
        if i >= 0 then i
        else begin
          let v = victim b base 0 base in
          if is_valid b v then b.evictions <- b.evictions + 1;
          b.tags.(v) <- tag;
          Array.fill b.values (v * b.line_words) b.line_words 0;
          Bytes.unsafe_set b.valid v '\001';
          v
        end
      in
      b.values.((i * b.line_words) + word_of b addr tag) <- value;
      b.lru.(i) <- b.clock

let invalidate t addr =
  match t with
  | Unbounded u -> Ih.remove u.tbl addr
  | Bounded b ->
      let tag = line_of b addr in
      let i = find b (base_of b tag) tag 0 in
      if i >= 0 then Bytes.unsafe_set b.valid i '\000'

let clear t =
  match t with
  | Unbounded u -> Ih.reset u.tbl
  | Bounded b -> Bytes.fill b.valid 0 (Bytes.length b.valid) '\000'

let hits = function Unbounded u -> u.u_hits | Bounded b -> b.b_hits
let misses = function Unbounded u -> u.u_misses | Bounded b -> b.b_misses
let evictions = function Unbounded _ -> 0 | Bounded b -> b.evictions

let hit_rate t =
  let h = hits t and m = misses t in
  if h + m = 0 then 1.0 else float_of_int h /. float_of_int (h + m)
