open Helix_ir
open Helix_analysis
open Helix_hcc
open Helix_workloads

(* Figure 2: accuracy of the data-dependence analysis for the small hot
   loops, per precision tier.  Accuracy = |identified dependences that are
   actual at runtime| / |identified dependences|, measured over the loops
   HELIX-RC selects in the CINT models.  The paper reports 48% for base
   VLLPA rising to 81% with all four extensions. *)

type tier_point = { tier_name : string; accuracy : float }

(* The loop forest of a function of [prog], computed once per function. *)
let loop_forest prog =
  let cache = Hashtbl.create 7 in
  fun fname ->
    match Hashtbl.find_opt cache fname with
    | Some l -> l
    | None ->
        let l = Loops.compute (Cfg.of_func (Ir.find_func prog fname)) in
        Hashtbl.replace cache fname l;
        l

(* Ground truth: run the reference interpreter, attributing accesses to
   the innermost selected loop and its ancestors, with iteration counting
   driven by header visits. *)
let ground_truth (c : Hcc.compiled) (mem : Memory.t)
    (selected : Parallel_loop.t list) :
    (string * Ir.label, Depend.Edge_set.t) Hashtbl.t =
  let prog = c.Hcc.cp_prog in
  (* per function: the selected loops and their collectors *)
  let by_func : (string, (Loops.loop * Depend.Dynamic.t) list) Hashtbl.t =
    Hashtbl.create 7
  in
  let loops_of = loop_forest prog in
  List.iter
    (fun (pl : Parallel_loop.t) ->
      let lt = loops_of pl.Parallel_loop.pl_func in
      match Loops.loop_of_header lt pl.Parallel_loop.pl_header with
      | Some id ->
          let lp = Loops.loop lt id in
          let cur =
            try Hashtbl.find by_func pl.Parallel_loop.pl_func
            with Not_found -> []
          in
          Hashtbl.replace by_func pl.Parallel_loop.pl_func
            ((lp, Depend.Dynamic.create ()) :: cur)
      | None -> ())
    selected;
  let last_block : (string, Ir.label) Hashtbl.t = Hashtbl.create 7 in
  let on_block ~fname l =
    (match Hashtbl.find_opt by_func fname with
    | None -> ()
    | Some ls ->
        List.iter
          (fun ((lp : Loops.loop), dyn) ->
            if lp.Loops.l_header = l then begin
              let from_outside =
                match Hashtbl.find_opt last_block fname with
                | Some prev -> not (Loops.contains lp prev)
                | None -> true
              in
              if from_outside then Depend.Dynamic.new_invocation dyn
              else Depend.Dynamic.begin_iteration dyn
            end
            else if not (Loops.contains lp l) then Depend.Dynamic.finish dyn)
          ls);
    Hashtbl.replace last_block fname l
  in
  let on_mem ~fname ~pos kind addr _v =
    match Hashtbl.find_opt by_func fname with
    | None -> ()
    | Some ls ->
        List.iter
          (fun ((lp : Loops.loop), dyn) ->
            if Loops.contains lp pos.Ir.ip_block then
              Depend.Dynamic.access dyn kind ~pos addr)
          ls
  in
  let hooks =
    { Interp.on_mem = Some on_mem; on_block = Some on_block; on_instr = None }
  in
  ignore (Interp.run ~hooks prog mem);
  let out = Hashtbl.create 7 in
  Hashtbl.iter
    (fun fname ls ->
      List.iter
        (fun ((lp : Loops.loop), dyn) ->
          Hashtbl.replace out
            (fname, lp.Loops.l_header)
            (Depend.Dynamic.actual_edges dyn))
        ls)
    by_func;
  out

(* Per workload, on the pool: (identified and actual, identified)
   dependence counts for each tier of the ladder, summed over the
   selected loops. *)
let tier_counts wl =
  let counts = Array.make (List.length Alias.ladder) (0, 0) in
  let c = Exp_common.compiled wl Exp_common.V3 in
  let selected = Hcc.selected_loops c in
  let truth = ground_truth c (Exp_common.ref_mem wl) selected in
  let loops_of = loop_forest c.Hcc.cp_prog in
  List.iter
    (fun (pl : Parallel_loop.t) ->
      let fname = pl.Parallel_loop.pl_func in
      let f = Ir.find_func c.Hcc.cp_prog fname in
      let lt = loops_of fname in
      match Loops.loop_of_header lt pl.Parallel_loop.pl_header with
      | None -> ()
      | Some id ->
          let lp = Loops.loop lt id in
          let actual =
            try Hashtbl.find truth (fname, pl.Parallel_loop.pl_header)
            with Not_found -> Depend.Edge_set.empty
          in
          List.iteri
            (fun i tier ->
              let static =
                (Depend.compute tier c.Hcc.cp_prog f lp).Depend.ld_edges
              in
              let hits, n = counts.(i) in
              counts.(i) <-
                ( hits
                  + Depend.Edge_set.cardinal
                      (Depend.Edge_set.inter static actual),
                  n + Depend.Edge_set.cardinal static ))
            Alias.ladder)
    selected;
  counts

let run ?(workloads = Registry.integer) () : tier_point list =
  let per_wl = Exp_common.Pool.map tier_counts workloads in
  List.mapi
    (fun i tier ->
      let hits, n =
        List.fold_left
          (fun (h, n) counts -> (h + fst counts.(i), n + snd counts.(i)))
          (0, 0) per_wl
      in
      {
        tier_name = tier.Alias.name;
        accuracy = (if n = 0 then 1.0 else float_of_int hits /. float_of_int n);
      })
    Alias.ladder

let report (points : tier_point list) : Report.t =
  Report.make
    ~title:"Figure 2: dependence-analysis accuracy for small hot loops"
    ~header:[ "analysis"; "accuracy" ]
    (List.map (fun p -> [ p.tier_name; Report.pct p.accuracy ]) points)
    ~notes:[ "paper: 48% (VLLPA) rising monotonically to 81% (+lib calls)" ]
