(* Two-bit saturating-counter branch predictor, indexed by static branch
   id.  Enough fidelity to charge realistic front-end redirect penalties
   on hard-to-predict branches in irregular code. *)

type t = {
  table : int array; (* 0..3 saturating counters, init weakly taken *)
  mutable lookups : int;
  mutable mispredicts : int;
}

let create ?(bits = 10) () =
  { table = Array.make (1 lsl bits) 2; lookups = 0; mispredicts = 0 }

(* [predict_update t ~static_id ~taken] returns whether the branch was
   mispredicted, updating the counter. *)
let predict_update t ~static_id ~taken =
  let i = static_id land (Array.length t.table - 1) in
  let c = t.table.(i) in
  let predicted_taken = c >= 2 in
  t.lookups <- t.lookups + 1;
  let mis = predicted_taken <> taken in
  if mis then t.mispredicts <- t.mispredicts + 1;
  t.table.(i) <- (if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1));
  mis

let mispredict_rate t =
  if t.lookups = 0 then 0.0
  else float_of_int t.mispredicts /. float_of_int t.lookups
