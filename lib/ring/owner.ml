(* Owner-node hashing.

   Every memory address is permanently mapped to a unique ring node (its
   serialization point for L1 interactions, Section 5.2).  As in the
   paper, a simple bit mask over the line address is used, and all words
   of a conventional cache line share an owner so the ring never splits a
   line across the coherence protocol. *)

let line_words = 8 (* 64-byte lines of 8-byte words *)

let node_of ~n_nodes addr =
  if n_nodes <= 1 then 0
  else begin
    let line = addr / line_words in
    if n_nodes land (n_nodes - 1) = 0 then line land (n_nodes - 1)
    else line mod n_nodes
  end

(* Distance in hops travelling forward (unidirectional ring). *)
let forward_distance ~n_nodes ~src ~dst = (dst - src + n_nodes) mod n_nodes

(* Undirected distance, as used by the Figure 4b histogram. *)
let undirected_distance ~n_nodes ~src ~dst =
  let d = forward_distance ~n_nodes ~src ~dst in
  Int.min d (n_nodes - d)
