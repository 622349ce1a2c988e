open Helix_workloads

(* Figure 1: improving the compiler alone (HCCv1 -> HCCv2) helps the
   numerical programs but not SPEC CINT, on a 16-core conventional
   machine with the optimistic 10-cycle core-to-core latency. *)

type row = {
  name : string;
  kind : Workload.kind;
  v1 : float;
  v2 : float;
}

let run ?(workloads = Registry.all) () : row list =
  Exp_common.Pool.map
    (fun wl ->
      let v1 =
        Exp_common.speedup_of wl (Exp_common.run_conventional wl Exp_common.V1)
      in
      let v2 =
        Exp_common.speedup_of wl (Exp_common.run_conventional wl Exp_common.V2)
      in
      { name = wl.Workload.name; kind = wl.Workload.kind; v1; v2 })
    workloads

let report (rows : row list) : Report.t =
  let ints = List.filter (fun r -> r.kind = Workload.Int) rows in
  let fps = List.filter (fun r -> r.kind = Workload.Fp) rows in
  let geo rs sel = Exp_common.geomean_cell (List.map sel rs) in
  Report.make ~title:"Figure 1: HCCv1 vs HCCv2 program speedup (16 cores)"
    ~header:[ "benchmark"; "HCCv1"; "HCCv2" ]
    (List.map
       (fun r -> [ r.name; Report.xf r.v1; Report.xf r.v2 ])
       rows
    @ [
        [ "INT Geomean"; geo ints (fun r -> r.v1); geo ints (fun r -> r.v2) ];
        [ "FP Geomean"; geo fps (fun r -> r.v1); geo fps (fun r -> r.v2) ];
        [ "Geomean"; geo rows (fun r -> r.v1); geo rows (fun r -> r.v2) ];
      ])
    ~notes:
      [ "paper: FP geomean rises 2.4x -> 11x; CINT stays near 2x" ]
