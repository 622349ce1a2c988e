(* Control-flow graph view over an [Ir.func]: successor/predecessor maps,
   reverse postorder, and reachability.  All analyses are built on top of
   this module. *)

type t = {
  func : Ir.func;
  succ : (Ir.label, Ir.label list) Hashtbl.t;
  pred : (Ir.label, Ir.label list) Hashtbl.t;
  rpo : Ir.label array;              (* reverse postorder of reachable blocks *)
  rpo_index : (Ir.label, int) Hashtbl.t;
}

let successors t l = try Hashtbl.find t.succ l with Not_found -> []
let predecessors t l = try Hashtbl.find t.pred l with Not_found -> []
let entry t = t.func.Ir.f_entry
let reverse_postorder t = t.rpo
let rpo_index t l = Hashtbl.find_opt t.rpo_index l
let is_reachable t l = Hashtbl.mem t.rpo_index l

let of_func (f : Ir.func) : t =
  let succ = Hashtbl.create 17 and pred = Hashtbl.create 17 in
  List.iter
    (fun l ->
      let b = Ir.block_of_func f l in
      let ss = Ir.successors b.Ir.b_term in
      Hashtbl.replace succ l ss;
      List.iter
        (fun s ->
          let ps = try Hashtbl.find pred s with Not_found -> [] in
          if not (List.mem l ps) then Hashtbl.replace pred s (l :: ps))
        ss)
    f.Ir.f_order;
  (* Depth-first postorder from the entry block. *)
  let visited = Hashtbl.create 17 in
  let post = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.replace visited l ();
      List.iter dfs (try Hashtbl.find succ l with Not_found -> []);
      post := l :: !post
    end
  in
  dfs f.Ir.f_entry;
  let rpo = Array.of_list !post in
  let rpo_index = Hashtbl.create 17 in
  Array.iteri (fun i l -> Hashtbl.replace rpo_index l i) rpo;
  { func = f; succ; pred; rpo; rpo_index }

(* Blocks in layout order that are reachable from the entry. *)
let reachable_blocks t =
  List.filter (is_reachable t) t.func.Ir.f_order
