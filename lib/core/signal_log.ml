(* Conventional-mode signal log: for every (segment, origin) pair the
   store cycles of its signals, oldest first, in a growable int array
   with a count.  Pairs live in one flat array indexed by
   [seg * origins + origin].  [vis] holds every recorded signal's
   visibility cycle in record order, for the event engine's wake-ups. *)

type pair = { mutable times : int array; mutable count : int }

type t = {
  origins : int;
  latency : int;
  mutable pairs : pair array;
  vis : int Queue.t;
}

let create ~origins ~latency =
  { origins; latency; pairs = [||]; vis = Queue.create () }

let index t ~seg ~origin =
  if origin < 0 || origin >= t.origins then
    invalid_arg "Signal_log: origin out of range";
  (seg * t.origins) + origin

let count t ~seg ~origin =
  let i = index t ~seg ~origin in
  if i < Array.length t.pairs then t.pairs.(i).count else 0

let nth t ~seg ~origin k =
  let i = index t ~seg ~origin in
  if k < 1 || k > count t ~seg ~origin then invalid_arg "Signal_log.nth";
  t.pairs.(i).times.(k - 1)

let visible t ~seg ~origin ~cycle k =
  k <= 0
  ||
  let i = index t ~seg ~origin in
  i < Array.length t.pairs
  &&
  let p = t.pairs.(i) in
  p.count >= k && p.times.(k - 1) + t.latency <= cycle

let record t ~seg ~origin ~cycle =
  let i = index t ~seg ~origin in
  let n = Array.length t.pairs in
  if i >= n then
    t.pairs <-
      Array.init (Int.max (i + 1) (2 * n)) (fun j ->
          if j < n then t.pairs.(j) else { times = [||]; count = 0 });
  let p = t.pairs.(i) in
  if p.count = Array.length p.times then begin
    let times = Array.make (Int.max 16 (2 * p.count)) 0 in
    Array.blit p.times 0 times 0 p.count;
    p.times <- times
  end;
  p.times.(p.count) <- cycle;
  p.count <- p.count + 1;
  Queue.add (cycle + t.latency) t.vis

let rec next_visible t ~now =
  match Queue.peek_opt t.vis with
  | Some v when v < now ->
      ignore (Queue.pop t.vis);
      next_visible t ~now
  | Some v -> v
  | None -> max_int

let reset t =
  Array.iter (fun p -> p.count <- 0) t.pairs;
  Queue.clear t.vis
