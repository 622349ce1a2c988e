open Helix_ir
open Helix_analysis
open Helix_hcc
open Helix_machine
open Helix_core
open Helix_workloads

(* Figure 4: why small hot loops need fast proactive communication.
   (a) cumulative distribution of per-iteration execution time of the
       selected loops on one in-order core, against measured coherence
       round-trip latencies of commodity parts;
   (b) distribution of producer-to-first-consumer hop distances on the
       16-node ring;
   (c) number of consumer cores per shared value. *)

type result = {
  iter_cdf : (int * float) list;     (* (cycles, fraction <= cycles) *)
  dist_hist : float array;           (* index 1..6 = hops, 6 = "6+" *)
  consumers_hist : float array;
  measured : (string * int) list;
}

(* Per-iteration instruction counts of the selected loops, converted to
   cycles with the measured sequential CPI. *)
let iteration_lengths (wl : Workload.t) : float list =
  let c = Exp_common.compiled wl Exp_common.V3 in
  let prog = c.Hcc.cp_prog in
  let seq = Exp_common.sequential wl in
  let cpi =
    float_of_int seq.Executor.r_cycles
    /. float_of_int (max 1 seq.Executor.r_retired)
  in
  (* interpret with per-loop iteration instruction counting *)
  let selected = Hcc.selected_loops c in
  let by_func = Hashtbl.create 7 in
  List.iter
    (fun (pl : Parallel_loop.t) ->
      let f = Ir.find_func prog pl.Parallel_loop.pl_func in
      let lt = Loops.compute (Cfg.of_func f) in
      match Loops.loop_of_header lt pl.Parallel_loop.pl_header with
      | Some id ->
          let lp = Loops.loop lt id in
          let cur =
            try Hashtbl.find by_func pl.Parallel_loop.pl_func
            with Not_found -> []
          in
          Hashtbl.replace by_func pl.Parallel_loop.pl_func
            ((lp, ref 0 (* current iter count *), ref []) :: cur)
      | None -> ())
    selected;
  let on_block ~fname l =
    match Hashtbl.find_opt by_func fname with
    | None -> ()
    | Some ls ->
        List.iter
          (fun ((lp : Loops.loop), cur, lens) ->
            if lp.Loops.l_header = l then begin
              if !cur > 0 then lens := !cur :: !lens;
              cur := 0
            end
            else if not (Loops.contains lp l) then begin
              if !cur > 0 then lens := !cur :: !lens;
              cur := 0
            end)
          ls
  in
  let on_instr ~fname pos _ =
    match Hashtbl.find_opt by_func fname with
    | None -> ()
    | Some ls ->
        List.iter
          (fun ((lp : Loops.loop), cur, _) ->
            if Loops.contains lp pos.Ir.ip_block then incr cur)
          ls
  in
  let hooks =
    { Interp.on_mem = None; on_block = Some on_block; on_instr = Some on_instr }
  in
  ignore (Interp.run ~hooks prog (Exp_common.ref_mem wl));
  Hashtbl.fold
    (fun _ ls acc ->
      List.fold_left
        (fun acc (_, _, lens) ->
          List.rev_map (fun n -> float_of_int n *. cpi) !lens @ acc)
        acc ls)
    by_func []

let run ?(workloads = Registry.integer) () : result =
  let lengths =
    List.concat (Exp_common.Pool.map iteration_lengths workloads)
  in
  let sorted = List.sort compare lengths in
  let n = List.length sorted in
  let cdf_at x =
    let below = List.length (List.filter (fun l -> l <= float_of_int x) sorted) in
    if n = 0 then 0.0 else float_of_int below /. float_of_int n
  in
  let points = [ 10; 25; 50; 75; 110; 160; 260 ] in
  (* sharing distributions from a full HELIX-RC run *)
  let dist = Array.make 7 0 and cons = Array.make 7 0 in
  List.iter
    (fun (r : Executor.result) ->
      Array.iteri (fun i v -> dist.(i) <- dist.(i) + v)
        r.Executor.r_ring_dist_hist;
      Array.iteri (fun i v -> cons.(i) <- cons.(i) + v)
        r.Executor.r_ring_consumers_hist)
    (Exp_common.Pool.map
       (fun wl -> Exp_common.run_helix wl Exp_common.V3)
       workloads);
  let normalize a =
    let total = Array.fold_left ( + ) 0 a in
    Array.map
      (fun v -> if total = 0 then 0.0 else float_of_int v /. float_of_int total)
      a
  in
  {
    iter_cdf = List.map (fun x -> (x, cdf_at x)) points;
    dist_hist = normalize dist;
    consumers_hist = normalize cons;
    measured = Mach_config.measured_c2c_latencies;
  }

let report (r : result) : Report.t =
  let rows =
    List.map
      (fun (x, f) ->
        [ Printf.sprintf "<= %d cycles" x; Report.pct f; "" ])
      r.iter_cdf
    @ List.map
        (fun (name, lat) ->
          [ Printf.sprintf "%s coherence" name; ""; string_of_int lat ])
        r.measured
    @ List.concat
        (List.map
           (fun i ->
             [
               [ Printf.sprintf "hop distance %d%s" i
                   (if i = 6 then "+" else "");
                 Report.pct r.dist_hist.(i); "" ];
               [ Printf.sprintf "consumers %d%s" i
                   (if i = 6 then "+" else "");
                 Report.pct r.consumers_hist.(i); "" ];
             ])
           [ 1; 2; 3; 4; 5; 6 ])
  in
  Report.make
    ~title:
      "Figure 4: iteration-length CDF (a), sharing distance (b) and \
       consumers per value (c)"
    ~header:[ "quantity"; "fraction"; "cycles" ]
    rows
    ~notes:
      [
        "paper: >50% of iterations finish within 25 cycles; only 15% of \
         transfers are adjacent-core; 86% of values have multiple consumers";
      ]
