(* Unit tests for the same-host A/B comparator (Trend): the median/bound
   rule, its noise escape, the correctness checks, and reading inputs. *)

open Helix_experiments

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let metric ?(better = Trend.Higher) ?(bound = 0.25) m_name =
  { Trend.m_name; better; bound }

let row ?better ?bound ~base ~change () =
  Trend.compare_metric (metric ?better ?bound "m") ~workload:"w" ~base ~change

let expect name v ?better ?bound ~base ~change () =
  check Alcotest.string name (Trend.verdict_name v)
    (Trend.verdict_name (row ?better ?bound ~base ~change ()).Trend.verdict)

(* Five parent runs around 100: IQR 1% of the median. *)
let steady = [ 99.0; 100.0; 100.0; 101.0; 102.0 ]
let scaled k = List.map (fun x -> x *. k) steady

(* Parent quartiles 70 and 130: IQR 60% of the median. *)
let noisy = [ 40.0; 70.0; 100.0; 130.0; 160.0 ]

let engine_tests =
  [
    tc "steady throughput passes"
      (expect "same runs" Trend.Pass ~base:steady ~change:steady);
    tc "a drop beyond the threshold fails"
      (expect "30% slower" Trend.Fail ~base:steady ~change:(scaled 0.7));
    tc "a drop within the threshold passes"
      (expect "10% slower" Trend.Pass ~base:steady ~change:(scaled 0.9));
    tc "custom threshold is honoured" (fun () ->
        expect "47% drop, 50% bound" Trend.Pass ~bound:0.5 ~base:steady
          ~change:(scaled 0.53) ();
        expect "2% drop, 1% bound" Trend.Fail ~bound:0.01 ~base:steady
          ~change:(scaled 0.98) ());
  ]

let noise_tests =
  [
    tc "lower-is-better metrics fail when they grow" (fun () ->
        expect "30% more" Trend.Fail ~better:Trend.Lower ~base:steady
          ~change:(scaled 1.3) ();
        expect "30% less" Trend.Pass ~better:Trend.Lower ~base:steady
          ~change:(scaled 0.7) ());
    tc "a parent IQR wider than the bound leaves a regression unresolved"
      (expect "overlapping runs" Trend.Unresolved ~base:noisy
         ~change:[ 50.0; 60.0; 70.0; 80.0; 150.0 ]);
    tc "every change run worse than every parent run fails despite noise"
      (expect "disjoint runs" Trend.Fail ~base:noisy
         ~change:[ 20.0; 25.0; 30.0; 35.0; 39.0 ]);
    tc "medians and quartiles interpolate between order statistics"
      (fun () ->
        let r = row ~base:[ 4.0; 1.0; 3.0; 2.0 ] ~change:[ 2.0; 8.0 ] () in
        check (Alcotest.float 1e-9) "parent median" 2.5 r.Trend.base;
        check (Alcotest.float 1e-9) "change median" 5.0 r.Trend.change;
        check (Alcotest.float 1e-9) "IQR (3.25 - 1.75) / 2.5" 0.6 r.Trend.iqr);
  ]

(* Five result lines as perfbench prints them, around [rate]. *)
let runs ?(correct = true) ?(failed = 0) rate =
  List.map
    (Printf.sprintf
       {|{"correct": %b, "attempted": 10, "failed": %d, "metrics": {"rate": {"value": %g, "unit": "x"}}}|}
       correct failed)
    (List.map (fun x -> x *. rate) steady)

let compare ?(wl2 = (runs 1.0, runs 1.0)) wl1 =
  Trend.compare
    { Trend.workloads = [ "a"; "b" ]; metrics = [ metric "rate" ] }
    [ ("a", wl1); ("b", wl2) ]

let run_tests =
  [
    tc "one regression among healthy workloads fails and is named" (fun () ->
        check Alcotest.bool "all healthy" false
          (Trend.failed (compare (runs 2.0, runs 2.0)));
        let r = compare ~wl2:(runs 1.0, runs 0.5) (runs 1.0, runs 1.0) in
        check Alcotest.int "a row per workload and metric" 2
          (List.length r.Trend.rows);
        check
          Alcotest.(list string)
          "failing workloads" [ "b" ]
          (List.filter_map
             (fun row ->
               if row.Trend.verdict = Trend.Fail then Some row.Trend.workload
               else None)
             r.Trend.rows));
    tc "an incorrect run or a larger failed share fails" (fun () ->
        let failed r = Trend.failed (compare r) in
        check Alcotest.bool "incorrect" true
          (failed (runs 1.0, runs ~correct:false 1.0));
        check Alcotest.bool "equal share" false
          (failed (runs ~failed:1 1.0, runs ~failed:1 1.0));
        check Alcotest.bool "larger share" true
          (failed (runs ~failed:1 1.0, runs ~failed:2 1.0)));
    tc "missing or unreadable change results fail" (fun () ->
        let faults r = List.length (compare r).Trend.faults in
        check Alcotest.int "no change runs" 1 (faults (runs 1.0, []));
        check Alcotest.int "crashed run" 1
          (faults (runs 1.0, "Fatal error: exception Not_found" :: runs 1.0));
        check Alcotest.int "metric missing" 1
          (faults
             ( runs 1.0,
               [ {|{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}|} ]
             )));
    tc "BENCHMARK.json gives every end-to-end metric a direction and bound"
      (fun () ->
        match
          Trend.spec_of_string
            (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all)
        with
        | Error e -> Alcotest.fail e
        | Ok s ->
            check Alcotest.int "workloads" 4 (List.length s.Trend.workloads);
            check Alcotest.bool "sim_cycles: lower is better, 1%" true
              (List.mem (metric ~better:Trend.Lower ~bound:0.01 "sim_cycles")
                 s.Trend.metrics));
  ]

let () =
  Alcotest.run "trend"
    [
      ("engine-throughput", engine_tests);
      ("noise", noise_tests);
      ("workloads", run_tests);
    ]
