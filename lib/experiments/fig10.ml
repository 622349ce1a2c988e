open Helix_machine
open Helix_workloads

(* Figure 10: sensitivity to core type.  HELIX-RC speedups on 2-way
   in-order, 2-way out-of-order and 4-way out-of-order cores; plus
   sequential execution time of each core type normalized to the 4-way
   OoO core (lower graph). *)

type row = {
  name : string;
  io2 : float;                 (* speedup on 2-way in-order *)
  ooo2 : float;
  ooo4 : float;
  seq_ratio_io2 : float;       (* sequential time / 4-way OoO seq time *)
  seq_ratio_ooo2 : float;
}

let machines =
  [
    ("io2", Mach_config.atom_core);
    ("ooo2", Mach_config.ooo2_core);
    ("ooo4", Mach_config.ooo4_core);
  ]

let run ?(workloads = Registry.integer) () : row list =
  Exp_common.Pool.map
    (fun wl ->
      let results =
        List.map
          (fun (tag, core) ->
            let mach = Mach_config.with_core_kind Mach_config.default core in
            let seq = Exp_common.sequential ~mach wl in
            let par =
              Exp_common.parallel wl Exp_common.V3
                (Exp_common.helix_cfg ~mach ())
            in
            (tag, seq, Helix_core.Helix.speedup ~seq ~par))
          machines
      in
      let get tag = List.find (fun (t, _, _) -> t = tag) results in
      let _, seq_io2, su_io2 = get "io2" in
      let _, seq_ooo2, su_ooo2 = get "ooo2" in
      let _, seq_ooo4, su_ooo4 = get "ooo4" in
      let norm (s : Helix_core.Executor.result) =
        float_of_int s.Helix_core.Executor.r_cycles
        /. float_of_int (max 1 seq_ooo4.Helix_core.Executor.r_cycles)
      in
      {
        name = wl.Workload.name;
        io2 = su_io2;
        ooo2 = su_ooo2;
        ooo4 = su_ooo4;
        seq_ratio_io2 = norm seq_io2;
        seq_ratio_ooo2 = norm seq_ooo2;
      })
    workloads

let report (rows : row list) : Report.t =
  let geo sel = Exp_common.geomean (List.map sel rows) in
  Report.make ~title:"Figure 10: speedup vs core complexity (CINT)"
    ~header:
      [ "benchmark"; "2w IO"; "2w OoO"; "4w OoO"; "seq IO/OoO4"; "seq OoO2/OoO4" ]
    (List.map
       (fun r ->
         [
           r.name;
           Report.xf r.io2;
           Report.xf r.ooo2;
           Report.xf r.ooo4;
           Report.f2 r.seq_ratio_io2;
           Report.f2 r.seq_ratio_ooo2;
         ])
       rows
    @ [
        [ "INT Geomean"; Report.xf (geo (fun r -> r.io2));
          Report.xf (geo (fun r -> r.ooo2));
          Report.xf (geo (fun r -> r.ooo4)); ""; "" ];
      ])
    ~notes:
      [
        "paper: OoO cores extract ILP (4-way ~1.9x faster sequentially) \
         yet HELIX-RC still speeds up most benchmarks (geomean ~3.8x on \
         16 OoO cores)";
      ]
