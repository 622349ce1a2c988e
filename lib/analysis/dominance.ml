open Helix_ir

(* Dominator analysis using the Cooper-Harvey-Kennedy iterative algorithm
   over the reverse postorder of the CFG.  Produces the immediate-dominator
   map, dominance queries, and dominance frontiers. *)

type t = {
  cfg : Cfg.t;
  idom : (Ir.label, Ir.label) Hashtbl.t; (* entry maps to itself *)
}

let compute (cfg : Cfg.t) : t =
  let rpo = Cfg.reverse_postorder cfg in
  let index l =
    match Cfg.rpo_index cfg l with
    | Some i -> i
    | None -> invalid_arg "Dominance: unreachable block"
  in
  let n = Array.length rpo in
  let idom = Array.make n (-1) in
  let entry_i = 0 in
  idom.(entry_i) <- entry_i;
  let rec intersect i j =
    if i = j then i
    else if i > j then intersect idom.(i) j
    else intersect i idom.(j)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let l = rpo.(i) in
      let preds =
        Cfg.predecessors cfg l
        |> List.filter (Cfg.is_reachable cfg)
        |> List.map index
        |> List.filter (fun p -> idom.(p) >= 0)
      in
      match preds with
      | [] -> ()
      | p :: ps ->
          let new_idom = List.fold_left intersect p ps in
          if idom.(i) <> new_idom then begin
            idom.(i) <- new_idom;
            changed := true
          end
    done
  done;
  let tbl = Hashtbl.create n in
  Array.iteri (fun i l -> if idom.(i) >= 0 then Hashtbl.replace tbl l rpo.(idom.(i))) rpo;
  { cfg; idom = tbl }

let idom t l = Hashtbl.find_opt t.idom l

(* [dominates t a b]: does [a] dominate [b]?  Every block dominates
   itself; the entry dominates every reachable block. *)
let dominates t a b =
  let rec up l =
    if l = a then true
    else
      match idom t l with
      | Some p when p <> l -> up p
      | _ -> false
  in
  Cfg.is_reachable t.cfg a && Cfg.is_reachable t.cfg b && up b

let strictly_dominates t a b = a <> b && dominates t a b

(* Dominance frontier (per Cooper et al.); unused by the parallelizer
   itself but exercised by tests and available for SSA-style transforms. *)
let frontiers t =
  let df = Hashtbl.create 17 in
  let addf l b =
    let cur = try Hashtbl.find df l with Not_found -> [] in
    if not (List.mem b cur) then Hashtbl.replace df l (b :: cur)
  in
  Array.iter
    (fun b ->
      let preds =
        Cfg.predecessors t.cfg b |> List.filter (Cfg.is_reachable t.cfg)
      in
      if List.length preds >= 2 then
        List.iter
          (fun p ->
            let rec runner l =
              match idom t b with
              | Some ib when l <> ib && l <> b ->
                  addf l b;
                  (match idom t l with
                  | Some pl when pl <> l -> runner pl
                  | _ -> ())
              | _ -> ()
            in
            runner p)
          preds)
    (Cfg.reverse_postorder t.cfg);
  fun l -> try Hashtbl.find df l with Not_found -> []
