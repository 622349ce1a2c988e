(* Per-node signal buffer.

   Stores, for every (sequential segment, origin core) pair, the number of
   signals received.  Counters are monotone; the consumer-side wait logic
   compares them against the iteration-derived threshold.  The paper's
   "past/future" two-slot design corresponds to the compiler-guaranteed
   invariant that at most two signals per segment from a given core are
   ever un-consumed; [max_outstanding] lets the runtime assert it.

   Segment ids are small per-loop indices and origins are core ids, so
   the state is a dense table: row [seg] holds origin [o]'s received
   count at [2o] and its highest consumed threshold at [2o + 1].  Every
   wait poll reads it, so a lookup is two bounds checks, with no hashing
   and no boxed key. *)

type t = { mutable rows : int array array; mutable max_outstanding : int }

let create () = { rows = [||]; max_outstanding = 0 }

let get t ~seg i =
  if seg < Array.length t.rows then
    let row = t.rows.(seg) in
    if i < Array.length row then row.(i) else 0
  else 0

(* The row holding [origin]'s pair for [seg], grown to fit. *)
let row t ~seg ~origin =
  let n = Array.length t.rows in
  if seg >= n then begin
    let rows = Array.make (Int.max (seg + 1) (2 * n)) [||] in
    Array.blit t.rows 0 rows 0 n;
    t.rows <- rows
  end;
  let row = t.rows.(seg) in
  let m = Array.length row in
  if (2 * origin) + 1 < m then row
  else begin
    let row' = Array.make (Int.max ((2 * origin) + 2) (2 * m)) 0 in
    Array.blit row 0 row' 0 m;
    t.rows.(seg) <- row';
    row'
  end

let received t ~seg ~origin = get t ~seg (2 * origin)

let record t ~seg ~origin =
  let row = row t ~seg ~origin in
  let i = 2 * origin in
  row.(i) <- row.(i) + 1;
  t.max_outstanding <- Int.max t.max_outstanding (row.(i) - row.(i + 1))

(* [satisfied t ~seg ~origin ~threshold] checks whether at least
   [threshold] signals have arrived, marking them consumed for the
   outstanding-signal accounting. *)
let satisfied t ~seg ~origin ~threshold =
  let ok = received t ~seg ~origin >= threshold in
  if ok && threshold > get t ~seg ((2 * origin) + 1) then
    (row t ~seg ~origin).((2 * origin) + 1) <- threshold;
  ok

let reset t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.rows;
  t.max_outstanding <- 0

let max_outstanding t = t.max_outstanding

let entries t =
  let acc = ref [] in
  for seg = Array.length t.rows - 1 downto 0 do
    let row = t.rows.(seg) in
    for origin = (Array.length row / 2) - 1 downto 0 do
      let c = row.(2 * origin) in
      if c > 0 then acc := ((seg, origin), c, row.((2 * origin) + 1)) :: !acc
    done
  done;
  !acc

let dump t =
  List.fold_left
    (fun acc ((seg, origin), c, _) ->
      acc ^ Printf.sprintf " (seg%d,from%d)=%d" seg origin c)
    "" (entries t)
