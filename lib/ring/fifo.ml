(* Array-backed circular FIFO with an int key beside every entry.

   Entry [j] (0 = head) sits at slot [(head + j) land (capacity - 1)] of
   the two parallel arrays; the capacity starts at 8 and doubles when a
   push finds the queue full, so it stays a power of two.  Push, pop and
   the key/value reads allocate nothing, unlike [Stdlib.Queue]'s cell per
   element and the tuple a keyed entry would need there.  Popped slots
   keep their old value until overwritten: a queue holds at most its
   high-water mark of stale references, never an unbounded number. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable head : int;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy =
  { keys = Array.make 8 0; vals = Array.make 8 dummy; head = 0; len = 0; dummy }

let length q = q.len
let is_empty q = q.len = 0
let[@inline] slot q j = (q.head + j) land (Array.length q.keys - 1)

let grow q =
  let cap = Array.length q.keys in
  let keys = Array.make (2 * cap) 0 and vals = Array.make (2 * cap) q.dummy in
  for j = 0 to q.len - 1 do
    let s = slot q j in
    keys.(j) <- q.keys.(s);
    vals.(j) <- q.vals.(s)
  done;
  q.keys <- keys;
  q.vals <- vals;
  q.head <- 0

let push q key v =
  if q.len = Array.length q.keys then grow q;
  let s = slot q q.len in
  q.keys.(s) <- key;
  q.vals.(s) <- v;
  q.len <- q.len + 1

let nth_key q j = q.keys.(slot q j)
let nth q j = q.vals.(slot q j)
let key q = q.keys.(q.head)
let peek q = q.vals.(q.head)

(* Callers test [is_empty] first; popping an empty queue is a bug. *)
let pop q =
  assert (q.len > 0);
  let v = q.vals.(q.head) in
  q.head <- slot q 1;
  q.len <- q.len - 1;
  v

let clear q =
  Array.fill q.vals 0 (Array.length q.vals) q.dummy;
  q.head <- 0;
  q.len <- 0

let swap_last_two q =
  if q.len >= 2 then begin
    let a = slot q (q.len - 2) and b = slot q (q.len - 1) in
    let k = q.keys.(a) and v = q.vals.(a) in
    q.keys.(a) <- q.keys.(b);
    q.vals.(a) <- q.vals.(b);
    q.keys.(b) <- k;
    q.vals.(b) <- v
  end
