open Helix_workloads

(* Figure 7: HELIX-RC triples the speedup of HCCv2.  Speedups relative to
   sequential execution on the same core type; HCCv2 runs on the
   conventional machine, HELIX-RC on the ring-cache machine. *)

type row = {
  name : string;
  kind : Workload.kind;
  v2 : float;
  helix : float;
  helix_verified : bool;
}

let run ?(workloads = Registry.all) () : row list =
  Exp_common.Pool.map
    (fun wl ->
      let v2 =
        Exp_common.speedup_of wl (Exp_common.run_conventional wl Exp_common.V2)
      in
      let hr = Exp_common.run_helix wl Exp_common.V3 in
      {
        name = wl.Workload.name;
        kind = wl.Workload.kind;
        v2;
        helix = Exp_common.speedup_of wl hr;
        helix_verified = Exp_common.verified wl hr;
      })
    workloads

let report (rows : row list) : Report.t =
  let ints = List.filter (fun r -> r.kind = Workload.Int) rows in
  let fps = List.filter (fun r -> r.kind = Workload.Fp) rows in
  let geo rs sel = Exp_common.geomean_cell (List.map sel rs) in
  Report.make
    ~title:"Figure 7: HCCv2 vs HELIX-RC program speedup (16 cores)"
    ~header:[ "benchmark"; "HCCv2"; "HELIX-RC"; "oracle" ]
    (List.map
       (fun r ->
         [
           r.name;
           Report.xf r.v2;
           Report.xf r.helix;
           (if r.helix_verified then "OK" else "FAIL");
         ])
       rows
    @ [
        [ "INT Geomean"; geo ints (fun r -> r.v2); geo ints (fun r -> r.helix);
          "" ];
        [ "FP Geomean"; geo fps (fun r -> r.v2); geo fps (fun r -> r.helix);
          "" ];
        [ "Geomean"; geo rows (fun r -> r.v2); geo rows (fun r -> r.helix);
          "" ];
      ])
    ~notes:
      [ "paper: CINT geomean 2.2x -> 6.85x; CFP 11.4x -> ~12x" ]
