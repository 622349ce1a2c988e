(* Flat, word-addressed memory shared by the reference interpreter and the
   cycle-stepped simulator.  Uninitialized words read as zero.

   Workloads allocate named regions statically through [Layout]; the
   region table doubles as the ground truth for allocation sites and for
   the ring cache's owner-node address hashing. *)

(* Words in [0, 2^22) live in 1024-word pages, allocated on the first
   non-zero store and indexed through a directory that grows on demand
   to at most 4096 entries, so no single store can make [copy] or [hash]
   walk a huge directory (every workload's image lies below 2^16).
   Anything else (negative or huge addresses) goes to an int-keyed
   overflow table.  A load is two array reads, with no hashing. *)

module Ih = Hashtbl.Make (Int)

let page_bits = 10
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let paged_limit = 1 lsl 22
let no_page : int array = [||]

type t = {
  mutable dir : int array array;  (* page index -> page, or [no_page] *)
  overflow : int Ih.t;            (* words outside [0, paged_limit) *)
  mutable journal : int Ih.t option;
      (* undo journal: every address stored since it opened, mapped to
         its value at that moment *)
}

let create () = { dir = [||]; overflow = Ih.create 16; journal = None }

let[@inline] paged a = a >= 0 && a < paged_limit

let load m a =
  if paged a then
    let p = a lsr page_bits in
    if p < Array.length m.dir then
      let pg = Array.unsafe_get m.dir p in
      if Array.length pg = 0 then 0 else Array.unsafe_get pg (a land page_mask)
    else 0
  else match Ih.find_opt m.overflow a with Some v -> v | None -> 0

let grow_dir m p =
  let n = ref (Int.max 16 (Array.length m.dir)) in
  while !n <= p do
    n := 2 * !n
  done;
  let dir = Array.make !n no_page in
  Array.blit m.dir 0 dir 0 (Array.length m.dir);
  m.dir <- dir

let set m a v =
  if paged a then begin
    let p = a lsr page_bits in
    if p >= Array.length m.dir then (if v <> 0 then grow_dir m p);
    if p < Array.length m.dir then begin
      let pg = m.dir.(p) in
      if Array.length pg > 0 then pg.(a land page_mask) <- v
      else if v <> 0 then begin
        let pg = Array.make page_size 0 in
        pg.(a land page_mask) <- v;
        m.dir.(p) <- pg
      end
    end
  end
  else if v = 0 then Ih.remove m.overflow a
  else Ih.replace m.overflow a v

let store m a v =
  (match m.journal with
  | None -> ()
  | Some j -> if not (Ih.mem j a) then Ih.add j a (load m a));
  set m a v

let copy m =
  {
    dir = Array.map Array.copy m.dir;  (* [no_page] copies to itself *)
    overflow = Ih.copy m.overflow;
    journal = None;
  }

(* The executor's checked paths open a journal at parallel-loop entry
   instead of copying the image, so rolling an invocation back or
   comparing it against its shadow costs O(words it wrote). *)
let open_journal m = m.journal <- Some (Ih.create 64)
let close_journal m = m.journal <- None

let rollback m =
  match m.journal with
  | None -> invalid_arg "Memory.rollback: no open journal"
  | Some j ->
      Ih.iter (set m) j;
      Ih.reset j

let iter_journal m f =
  match m.journal with None -> () | Some j -> Ih.iter f j

(* Every non-zero word, in no particular order. *)
let iter_nonzero m f =
  Array.iteri
    (fun p pg ->
      let base = p lsl page_bits in
      for i = 0 to Array.length pg - 1 do
        let v = Array.unsafe_get pg i in
        if v <> 0 then f (base + i) v
      done)
    m.dir;
  Ih.iter f m.overflow

(* Content hash, independent of insertion order; used as the oracle that a
   parallel execution produced exactly the sequential memory image. *)
let hash m =
  let acc = ref 0 in
  iter_nonzero m (fun a v ->
      acc := !acc lxor (Hashtbl.hash (a, v) * 0x9e3779b1));
  !acc

let equal m1 m2 =
  let sub a b =
    try
      iter_nonzero a (fun k v -> if load b k <> v then raise Exit);
      true
    with Exit -> false
  in
  sub m1 m2 && sub m2 m1

(* ------------------------------------------------------------------ *)
(* Static layout of named regions                                      *)
(* ------------------------------------------------------------------ *)

module Layout = struct
  type region = { name : string; site : int; base : int; size : int }

  type t = {
    mutable regions : region list; (* newest first *)
    mutable next_base : int;
    mutable next_site : int;
  }

  let create () = { regions = []; next_base = 0x1000; next_site = 0 }

  (* Allocate [size] words for region [name]; returns the region.  Regions
     are padded to a multiple of 64 words so that distinct sites never
     share a cache line in any simulated cache. *)
  let alloc t name size =
    let site = t.next_site in
    t.next_site <- site + 1;
    let base = t.next_base in
    let padded = ((Int.max 1 size + 63) / 64) * 64 in
    t.next_base <- base + padded;
    let r = { name; site; base; size } in
    t.regions <- r :: t.regions;
    r

  let find t name =
    match List.find_opt (fun r -> r.name = name) t.regions with
    | Some r -> r
    | None -> invalid_arg ("Memory.Layout.find: unknown region " ^ name)

  let region_of_addr t a =
    List.find_opt (fun r -> a >= r.base && a < r.base + r.size) t.regions

  let site_of_addr t a =
    match region_of_addr t a with Some r -> r.site | None -> -1

  let regions t = List.rev t.regions
end
