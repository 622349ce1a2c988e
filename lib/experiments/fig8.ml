open Helix_core
open Helix_workloads

(* Figure 8: breakdown of the benefits of decoupling communication from
   computation, on CINT.  From the HCCv2 conventional baseline we
   progressively decouple register communication, synchronization, and
   memory communication, up to full HELIX-RC. *)

type mode = { label : string; short : string; comm : Executor.comm_mode }

let modes =
  [
    { label = "decoupled reg. communication"; short = "reg";
      comm = { Executor.reg_via_ring = true; mem_via_ring = false;
               sync_via_ring = false } };
    { label = "decoupled reg. comm. and synch."; short = "reg+sync";
      comm = { Executor.reg_via_ring = true; mem_via_ring = false;
               sync_via_ring = true } };
    { label = "decoupled reg. and memory comm."; short = "reg+mem";
      comm = { Executor.reg_via_ring = true; mem_via_ring = true;
               sync_via_ring = false } };
    { label = "HELIX-RC (decoupled all communication)"; short = "all";
      comm = Executor.fully_decoupled };
  ]

type row = { name : string; v2 : float; by_mode : float list }

let run ?(workloads = Registry.integer) () : row list =
  Exp_common.Pool.map
    (fun wl ->
      let v2 =
        Exp_common.speedup_of wl (Exp_common.run_conventional wl Exp_common.V2)
      in
      let by_mode =
        List.map
          (fun m ->
            let cfg =
              Executor.default_config ~comm:m.comm
                Helix_machine.Mach_config.default
            in
            Exp_common.speedup_of wl
              (Exp_common.parallel wl Exp_common.V3 cfg))
          modes
      in
      { name = wl.Workload.name; v2; by_mode })
    workloads

let report (rows : row list) : Report.t =
  let geo sel = Exp_common.geomean (List.map sel rows) in
  Report.make
    ~title:"Figure 8: benefits of decoupling (CINT, 16 cores)"
    ~header:("benchmark" :: "HCCv2" :: List.map (fun m -> m.short) modes)
    (List.map
       (fun r ->
         r.name :: Report.xf r.v2 :: List.map Report.xf r.by_mode)
       rows
    @ [
        ("INT Geomean" :: Report.xf (geo (fun r -> r.v2))
        :: List.mapi
             (fun i _ -> Report.xf (geo (fun r -> List.nth r.by_mode i)))
             modes);
      ])
    ~notes:
      [
        "paper: register decoupling alone adds little; most of the gain \
         needs decoupled synchronization plus memory communication";
      ]
