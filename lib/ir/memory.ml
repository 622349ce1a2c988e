(* Flat, word-addressed memory shared by the reference interpreter and the
   cycle-stepped simulator.  Uninitialized words read as zero.

   Workloads allocate named regions statically through [Layout]; the
   region table doubles as the ground truth for allocation sites and for
   the ring cache's owner-node address hashing. *)

type t = {
  words : (int, int) Hashtbl.t;
  mutable journal : (int, int) Hashtbl.t option;
      (* undo journal: every address stored since it opened, mapped to
         its value at that moment *)
}

let create () = { words = Hashtbl.create 4096; journal = None }

let load m a = match Hashtbl.find_opt m.words a with Some v -> v | None -> 0

let[@inline] set m a v =
  if v = 0 then Hashtbl.remove m.words a else Hashtbl.replace m.words a v

let store m a v =
  (match m.journal with
  | None -> ()
  | Some j -> if not (Hashtbl.mem j a) then Hashtbl.add j a (load m a));
  set m a v

let copy m = { words = Hashtbl.copy m.words; journal = None }

(* The executor's checked paths open a journal at parallel-loop entry
   instead of copying the image, so rolling an invocation back or
   comparing it against its shadow costs O(words it wrote). *)
let open_journal m = m.journal <- Some (Hashtbl.create 64)
let close_journal m = m.journal <- None

let rollback m =
  match m.journal with
  | None -> invalid_arg "Memory.rollback: no open journal"
  | Some j ->
      Hashtbl.iter (set m) j;
      Hashtbl.reset j

let iter_journal m f =
  match m.journal with None -> () | Some j -> Hashtbl.iter f j

(* Content hash, independent of insertion order; used as the oracle that a
   parallel execution produced exactly the sequential memory image. *)
let hash m =
  let acc = ref 0 in
  Hashtbl.iter
    (fun a v -> if v <> 0 then acc := !acc lxor (Hashtbl.hash (a, v) * 0x9e3779b1))
    m.words;
  !acc

let equal m1 m2 =
  let sub a b =
    try
      Hashtbl.iter
        (fun k v -> if v <> 0 && load b k <> v then raise Exit)
        a.words;
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
    let padded = ((max 1 size + 63) / 64) * 64 in
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
