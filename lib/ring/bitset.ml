(* Fixed-size set of small non-negative ints, 32 members per word: the
   ring's busy sets of nodes, wires and links.  Member [i] is bit
   [i land 31] of word [i lsr 5], so every operation is shifts and
   masks. *)

type t = int array

let create n = Array.make ((Int.max n 1 + 31) lsr 5) 0
let add s i = s.(i lsr 5) <- s.(i lsr 5) lor (1 lsl (i land 31))
let remove s i = s.(i lsr 5) <- s.(i lsr 5) land lnot (1 lsl (i land 31))
let clear s = Array.fill s 0 (Array.length s) 0

(* Index of the lowest set bit of a non-zero 32-bit word. *)
let ctz x =
  let n = ref 0 and x = ref x in
  if !x land 0xffff = 0 then (n := !n + 16; x := !x lsr 16);
  if !x land 0xff = 0 then (n := !n + 8; x := !x lsr 8);
  if !x land 0xf = 0 then (n := !n + 4; x := !x lsr 4);
  if !x land 0x3 = 0 then (n := !n + 2; x := !x lsr 2);
  if !x land 0x1 = 0 then !n + 1 else !n

let rec next_word s w =
  if w >= Array.length s then -1
  else
    let x = s.(w) in
    if x = 0 then next_word s (w + 1) else (w lsl 5) + ctz x

let next s i =
  let w = i lsr 5 in
  if w >= Array.length s then -1
  else
    let x = s.(w) land (-1 lsl (i land 31)) in
    if x = 0 then next_word s (w + 1) else (w lsl 5) + ctz x
