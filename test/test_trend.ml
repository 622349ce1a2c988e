(* Unit tests for the pure core of the CI perf-regression gate
   (Trend): engine-throughput comparison, figure shape tracking, and
   the missing-baseline / vanished-artifact paths of compare_all. *)

open Helix_experiments

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let n_failures fs = List.length (Trend.failures fs)

let has_finding_containing severity fs needle =
  let contains hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.exists
    (fun (f : Trend.finding) -> f.Trend.severity = severity && contains f.Trend.message)
    fs

let has_fail_containing = has_finding_containing `Fail
let has_note_containing = has_finding_containing `Note

let engine_json ?(legacy = 1000.0) ?(event = 2000.0) () =
  Printf.sprintf
    {|{"legacy":{"cycles_per_sec":%f},"event":{"cycles_per_sec":%f}}|}
    legacy event

(* A previous run's file from a build that also had a "heap" engine. *)
let engine_json_with_heap =
  {|{"legacy":{"cycles_per_sec":1000.0},"event":{"cycles_per_sec":2000.0},"heap":{"cycles_per_sec":3000.0}}|}

let engine_tests =
  [
    tc "steady throughput passes" (fun () ->
        let fs =
          Trend.compare_engine ~old_json:(engine_json ())
            ~new_json:(engine_json ()) ()
        in
        check Alcotest.int "no failures" 0 (n_failures fs));
    tc "a drop beyond the threshold fails" (fun () ->
        let fs =
          Trend.compare_engine ~old_json:(engine_json ())
            ~new_json:(engine_json ~event:1000.0 ()) ()
        in
        Alcotest.(check bool) "event regression flagged" true
          (has_fail_containing fs "event engine regressed"));
    tc "a drop within the threshold passes" (fun () ->
        let fs =
          Trend.compare_engine ~old_json:(engine_json ())
            ~new_json:(engine_json ~event:1850.0 ()) ()
        in
        check Alcotest.int "no failures" 0 (n_failures fs));
    tc "custom threshold is honoured" (fun () ->
        let fs =
          Trend.compare_engine ~threshold:0.5 ~old_json:(engine_json ())
            ~new_json:(engine_json ~event:1060.0 ()) ()
        in
        check Alcotest.int "47% drop under a 50% threshold" 0 (n_failures fs));
    tc "an engine with no baseline is a note, not a failure" (fun () ->
        let old_json = {|{"legacy":{"cycles_per_sec":1000.0}}|} in
        let fs =
          Trend.compare_engine ~old_json ~new_json:(engine_json ()) ()
        in
        check Alcotest.int "no failures" 0 (n_failures fs));
    tc "an engine that disappeared is a failure" (fun () ->
        let new_json = {|{"legacy":{"cycles_per_sec":1000.0}}|} in
        let fs =
          Trend.compare_engine ~old_json:(engine_json ()) ~new_json ()
        in
        Alcotest.(check bool) "disappearance flagged" true
          (has_fail_containing fs "disappeared"));
    tc "an engine removed from the build is a note, not a failure"
      (fun () ->
        let fs =
          Trend.compare_engine ~old_json:engine_json_with_heap
            ~new_json:(engine_json ()) ()
        in
        check Alcotest.int "no failures" 0 (n_failures fs);
        Alcotest.(check bool) "removal noted" true
          (has_note_containing fs "heap engine removed from the build"));
    tc "a build engine missing from the current run still fails" (fun () ->
        let new_json = {|{"legacy":{"cycles_per_sec":1000.0}}|} in
        let fs =
          Trend.compare_engine ~old_json:engine_json_with_heap ~new_json ()
        in
        check Alcotest.int "one failure" 1 (n_failures fs);
        Alcotest.(check bool) "event flagged" true
          (has_fail_containing fs "event engine disappeared");
        Alcotest.(check bool) "heap only noted" true
          (has_note_containing fs "heap engine removed from the build"));
    tc "unreadable engine json is a failure" (fun () ->
        let fs =
          Trend.compare_engine ~old_json:"not json"
            ~new_json:(engine_json ()) ()
        in
        Alcotest.(check bool) "unreadable flagged" true
          (has_fail_containing fs "unreadable"));
  ]

let figure_tests =
  [
    tc "value drift with the same shape passes" (fun () ->
        let fs =
          Trend.compare_figure ~name:"fig1.json"
            ~old_json:{|{"rows":[{"wl":"mcf","speedup":3.1}]}|}
            ~new_json:{|{"rows":[{"wl":"mcf","speedup":9.9}]}|} ()
        in
        check Alcotest.int "no failures" 0 (n_failures fs));
    tc "key order is shape-insensitive" (fun () ->
        let fs =
          Trend.compare_figure ~name:"fig1.json"
            ~old_json:{|{"a":1,"b":2}|} ~new_json:{|{"b":5,"a":6}|} ()
        in
        check Alcotest.int "no failures" 0 (n_failures fs));
    tc "a lost row changes the shape and fails" (fun () ->
        let fs =
          Trend.compare_figure ~name:"fig1.json"
            ~old_json:{|{"rows":[1,2,3]}|} ~new_json:{|{"rows":[1,2]}|} ()
        in
        Alcotest.(check bool) "shape change flagged" true
          (has_fail_containing fs "shape changed"));
    tc "a gained column changes the shape and fails" (fun () ->
        let fs =
          Trend.compare_figure ~name:"fig2.json"
            ~old_json:{|{"rows":[{"wl":"mcf"}]}|}
            ~new_json:{|{"rows":[{"wl":"mcf","extra":1}]}|} ()
        in
        Alcotest.(check bool) "shape change flagged" true
          (has_fail_containing fs "shape changed"));
    tc "a type change (number -> string) fails" (fun () ->
        let fs =
          Trend.compare_figure ~name:"fig3.json" ~old_json:{|{"v":1}|}
            ~new_json:{|{"v":"one"}|} ()
        in
        Alcotest.(check bool) "type change flagged" true
          (has_fail_containing fs "shape changed"));
    tc "int vs float is the same shape" (fun () ->
        let fs =
          Trend.compare_figure ~name:"fig4.json" ~old_json:{|{"v":1}|}
            ~new_json:{|{"v":1.5}|} ()
        in
        check Alcotest.int "no failures" 0 (n_failures fs));
    tc "unreadable figure json is a failure" (fun () ->
        let fs =
          Trend.compare_figure ~name:"fig5.json" ~old_json:{|{"v":1}|}
            ~new_json:"{" ()
        in
        Alcotest.(check bool) "unreadable flagged" true
          (has_fail_containing fs "unreadable"));
  ]

let all_tests =
  [
    tc "first run ever: no baselines anywhere, nothing fails" (fun () ->
        let fs =
          Trend.compare_all ~engine_old:None
            ~engine_new:(Some (engine_json ()))
            ~figures:[ ("fig1.json", (None, Some {|{"v":1}|})) ]
            ()
        in
        check Alcotest.int "no failures" 0 (n_failures fs));
    tc "current run without BENCH_engine.json fails" (fun () ->
        let fs =
          Trend.compare_all ~engine_old:(Some (engine_json ()))
            ~engine_new:None ~figures:[] ()
        in
        Alcotest.(check bool) "missing artifact flagged" true
          (has_fail_containing fs "no BENCH_engine.json"));
    tc "a figure table that vanished fails" (fun () ->
        let fs =
          Trend.compare_all ~engine_old:None ~engine_new:None
            ~figures:[ ("fig7.json", (Some {|{"v":1}|}, None)) ]
            ()
        in
        Alcotest.(check bool) "vanished table flagged" true
          (has_fail_containing fs "missing from current run"));
    tc "figure present on neither side is silent" (fun () ->
        let fs =
          Trend.compare_all ~engine_old:None ~engine_new:None
            ~figures:[ ("fig8.json", (None, None)) ]
            ()
        in
        check Alcotest.int "no failures" 0 (n_failures fs);
        (* only the engine-side note remains; the absent figure is silent *)
        check Alcotest.int "one note" 1 (List.length fs));
    tc "mixed sweep: one regression among healthy figures" (fun () ->
        let fs =
          Trend.compare_all ~engine_old:(Some (engine_json ()))
            ~engine_new:(Some (engine_json ~event:500.0 ()))
            ~figures:
              [
                ("fig1.json", (Some {|{"v":1}|}, Some {|{"v":2}|}));
                ("fig2.json", (None, Some {|{"v":3}|}));
              ]
            ()
        in
        check Alcotest.int "exactly one failure" 1 (n_failures fs);
        Alcotest.(check bool) "it is the event engine" true
          (has_fail_containing fs "event engine regressed"));
  ]

let () =
  Alcotest.run "trend"
    [
      ("engine-throughput", engine_tests);
      ("figure-shape", figure_tests);
      ("compare-all", all_tests);
    ]
