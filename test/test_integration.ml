open Helix_experiments

(* Smoke tests over the experiment harness: each figure runs on a reduced
   workload set and exhibits the paper's qualitative shape. *)

let tc name f = Alcotest.test_case name `Slow f
let quick = [ Helix_workloads.Registry.find "164.gzip";
              Helix_workloads.Registry.find "175.vpr" ]

let tests =
  [
    tc "fig1: v2 does not regress v1" (fun () ->
        let rows = Fig1.run ~workloads:quick () in
        List.iter
          (fun r ->
            Alcotest.(check bool)
              (r.Fig1.name ^ " v2 >= v1 - eps") true
              (r.Fig1.v2 >= r.Fig1.v1 -. 0.3))
          rows);
    tc "fig2: accuracy ladder is monotone and ends high" (fun () ->
        let pts = Fig2.run ~workloads:Helix_workloads.Registry.integer () in
        let accs = List.map (fun p -> p.Fig2.accuracy) pts in
        let rec mono = function
          | a :: (b :: _ as rest) -> a <= b +. 0.02 && mono rest
          | _ -> true
        in
        Alcotest.(check bool) "monotone" true (mono accs);
        Alcotest.(check bool) "best tier >= 80%" true
          (List.nth accs (List.length accs - 1) >= 0.8);
        Alcotest.(check bool) "base tier well below best" true
          (List.hd accs < List.nth accs (List.length accs - 1) -. 0.1));
    tc "fig3: most register communication removed" (fun () ->
        let r = Fig3.run () in
        Alcotest.(check bool) "some registers carried" true (r.Fig3.naive_reg > 0);
        Alcotest.(check bool) "most removed" true
          (r.Fig3.remaining_reg * 4 <= r.Fig3.naive_reg);
        Alcotest.(check bool) "memory dominates the remainder" true
          (r.Fig3.remaining_mem >= r.Fig3.remaining_reg));
    tc "fig7: HELIX-RC beats HCCv2 on gzip and vpr" (fun () ->
        let rows = Fig7.run ~workloads:quick () in
        List.iter
          (fun r ->
            Alcotest.(check bool) (r.Fig7.name ^ " verified") true
              r.Fig7.helix_verified;
            Alcotest.(check bool) (r.Fig7.name ^ " helix > v2") true
              (r.Fig7.helix > r.Fig7.v2);
            Alcotest.(check bool) (r.Fig7.name ^ " helix > 2x") true
              (r.Fig7.helix > 2.0))
          rows);
    tc "fig8: full decoupling dominates partial modes" (fun () ->
        let rows = Fig8.run ~workloads:quick () in
        List.iter
          (fun r ->
            let all = List.nth r.Fig8.by_mode 3 in
            List.iteri
              (fun i v ->
                if i < 3 then
                  Alcotest.(check bool)
                    (Fmt.str "%s mode %d <= all" r.Fig8.name i)
                    true (v <= all +. 0.5))
              r.Fig8.by_mode)
          rows);
    tc "fig9: v3 code struggles on conventional, thrives on ring" (fun () ->
        (* gzip and parser have the densest segments; vpr's v3 code is
           mostly compute and shows little conventional contrast *)
        let rows =
          Fig9.run
            ~workloads:
              [ Helix_workloads.Registry.find "164.gzip";
                Helix_workloads.Registry.find "197.parser" ]
            ()
        in
        List.iter
          (fun r ->
            Alcotest.(check bool)
              (r.Fig9.name ^ " conventional much slower than ring") true
              (r.Fig9.conventional.Fig9.total_pct
               > r.Fig9.ring.Fig9.total_pct *. 1.5);
            Alcotest.(check bool) (r.Fig9.name ^ " ring < 100%") true
              (r.Fig9.ring.Fig9.total_pct < 1.0))
          rows);
    tc "fig11a: speedup grows with core count" (fun () ->
        let series = Fig11.core_count ~workloads:quick () in
        let geo s =
          Exp_common.geomean (List.map snd s.Fig11.sw_speedups)
        in
        let xs = List.map geo series in
        let rec mono = function
          | a :: (b :: _ as rest) -> a <= b +. 0.2 && mono rest
          | _ -> true
        in
        Alcotest.(check bool) "monotone in cores" true (mono xs));
    tc "fig11b: longer links are never faster" (fun () ->
        let series = Fig11.link_latency ~workloads:quick () in
        let geo s = Exp_common.geomean (List.map snd s.Fig11.sw_speedups) in
        let xs = List.map geo series in
        Alcotest.(check bool) "1-cycle beats 32-cycle" true
          (List.hd xs > List.nth xs (List.length xs - 1)));
    tc "fig12: taxonomy is sane" (fun () ->
        let rows = Fig12.run ~workloads:quick () in
        List.iter
          (fun r ->
            Alcotest.(check bool) (r.Fig12.name ^ " speedup > 1") true
              (r.Fig12.speedup > 1.0))
          rows);
    tc "tlp: aggressive splitting shrinks segments" (fun () ->
        match Tlp_study.run () with
        | [ cons; aggr ] ->
            Alcotest.(check bool) "segments shrink" true
              (aggr.Tlp_study.mean_segment_size
               < cons.Tlp_study.mean_segment_size);
            Alcotest.(check bool) "TLP does not drop" true
              (aggr.Tlp_study.tlp >= cons.Tlp_study.tlp -. 0.2)
        | _ -> Alcotest.fail "expected two points");
    tc "table1: v3 coverage dominates" (fun () ->
        let rows = Table1.run ~workloads:quick () in
        List.iter
          (fun r ->
            Alcotest.(check bool) (r.Table1.name ^ " v3 >= v2") true
              (r.Table1.cov_v3 >= r.Table1.cov_v2 -. 0.01))
          rows);
    tc "fault injection: jitter seeds preserve architectural state" (fun () ->
        (* the acceptance bar for the fault-injection layer: under at
           least three seeds of the delay class every integer workload
           must produce the bit-identical return value and final memory
           image of the fault-free run, with the differential oracle and
           sanitizer enabled and silent *)
        List.iter
          (fun wl ->
            let name = wl.Helix_workloads.Workload.name in
            let base = Exp_common.run_helix wl Exp_common.V3 in
            Alcotest.(check bool) (name ^ " baseline verified") true
              (Exp_common.verified wl base);
            List.iter
              (fun seed ->
                let cfg =
                  Exp_common.helix_cfg
                    ~robust:Helix_core.Executor.checked
                    ~faults:(Helix_ring.Ring.faulty ~delay:2 ~seed ())
                    ()
                in
                let r = Exp_common.parallel wl Exp_common.V3 cfg in
                Alcotest.(check (option int))
                  (Fmt.str "%s seed %d: return value" name seed)
                  base.Helix_core.Executor.r_ret
                  r.Helix_core.Executor.r_ret;
                Alcotest.(check bool)
                  (Fmt.str "%s seed %d: memory image bit-identical" name seed)
                  true
                  (Helix_ir.Memory.equal base.Helix_core.Executor.r_mem
                     r.Helix_core.Executor.r_mem);
                Alcotest.(check int)
                  (Fmt.str "%s seed %d: oracle+sanitizer silent" name seed)
                  0 r.Helix_core.Executor.r_violations;
                Alcotest.(check int)
                  (Fmt.str "%s seed %d: no fallbacks" name seed)
                  0 r.Helix_core.Executor.r_fallbacks)
              [ 5; 77; 90125 ])
          Helix_workloads.Registry.integer);
  ]

(* quick, simulation-free checks of the report renderer *)
let report_tests =
  let tq name f = Alcotest.test_case name `Quick f in
  [
    tq "report renders aligned columns" (fun () ->
        let r =
          Report.make ~title:"t" ~header:[ "a"; "bb" ]
            [ [ "xxx"; "1" ]; [ "y"; "22" ] ]
            ~notes:[ "n" ]
        in
        let s = Report.render r in
        Alcotest.(check bool) "has title" true
          (String.length s > 0 && String.sub s 0 4 = "== t");
        (* all data rows share a width *)
        let lines =
          String.split_on_char '\n' s
          |> List.filter (fun l -> String.length l > 0)
        in
        match lines with
        | _title :: header :: sep :: row1 :: _ ->
            Alcotest.(check int) "separator width" (String.length header)
              (String.length sep);
            Alcotest.(check int) "row width" (String.length header)
              (String.length row1)
        | _ -> Alcotest.fail "unexpected layout");
    tq "formatters" (fun () ->
        Alcotest.(check string) "pct" "12.5%" (Report.pct 0.125);
        Alcotest.(check string) "xf" "2.50x" (Report.xf 2.5);
        Alcotest.(check string) "f1" "1.2" (Report.f1 1.23));
  ]

let () =
  Alcotest.run "integration"
    [ ("report", report_tests); ("experiments", tests) ]
