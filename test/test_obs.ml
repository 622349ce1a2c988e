open Helix_obs
open Helix_ir
open Helix_hcc
open Helix_machine
open Helix_core
open Helix_workloads
open Helix_experiments

(* Tests for the observability subsystem: the JSON codec, the
   ring-buffered event trace (including JSONL round-trips), the metrics
   registry, agreement between the metrics export and the legacy counter
   fields, and the completeness of the deadlock report a forced wedge
   produces. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---- JSON codec ------------------------------------------------------ *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("n", Json.Int (-42));
      ("x", Json.Float 1.5);
      ("s", Json.String "a \"quoted\"\nline\twith \\ stuff");
      ("l", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
      ("nested", Json.Obj [ ("k", Json.List [ Json.Obj [] ]) ]);
    ]

let json_tests =
  [
    tc "encode/decode round-trip" (fun () ->
        let s = Json.to_string sample_json in
        Alcotest.(check bool) "equal after round-trip" true
          (Json.equal sample_json (Json.of_string_exn s)));
    tc "object comparison is order-insensitive" (fun () ->
        Alcotest.(check bool) "same fields, different order" true
          (Json.equal
             (Json.Obj [ ("a", Json.Int 1); ("b", Json.Int 2) ])
             (Json.Obj [ ("b", Json.Int 2); ("a", Json.Int 1) ])));
    tc "non-finite floats degrade to null" (fun () ->
        check Alcotest.string "nan" "null" (Json.to_string (Json.Float Float.nan));
        check Alcotest.string "inf" "null"
          (Json.to_string (Json.Float Float.infinity)));
    tc "malformed input is an error" (fun () ->
        (match Json.of_string "{\"a\": }" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted malformed object");
        match Json.of_string "[1, 2" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted unterminated array");
    tc "accessors" (fun () ->
        check
          Alcotest.(option int)
          "member/int" (Some (-42))
          (Option.bind (Json.member "n" sample_json) Json.to_int_opt);
        check
          Alcotest.(option (float 1e-9))
          "int widens to float" (Some (-42.0))
          (Option.bind (Json.member "n" sample_json) Json.to_float_opt));
  ]

(* round-trip property over printable strings and ints *)
let prop_json_roundtrip =
  QCheck.Test.make ~name:"json round-trips arbitrary string/int objects"
    ~count:100
    QCheck.(list (pair printable_string small_signed_int))
    (fun fields ->
      (* object keys must be unique for Obj comparison to be meaningful *)
      let fields =
        List.mapi (fun i (k, v) -> (Printf.sprintf "%d_%s" i k, Json.Int v))
          fields
      in
      let j = Json.Obj fields in
      Json.equal j (Json.of_string_exn (Json.to_string j)))

(* ---- trace ring buffer ---------------------------------------------- *)

let trace_tests =
  [
    tc "events come back oldest-first" (fun () ->
        let tr = Trace.create () in
        for c = 1 to 5 do
          Trace.emit (Some tr) ~cycle:c ~kind:"e" []
        done;
        check
          Alcotest.(list int)
          "cycles" [ 1; 2; 3; 4; 5 ]
          (List.map (fun e -> e.Trace.ev_cycle) (Trace.events tr)));
    tc "ring buffer keeps the newest events" (fun () ->
        let tr = Trace.create ~capacity:4 () in
        for c = 1 to 10 do
          Trace.emit (Some tr) ~cycle:c ~kind:"e" []
        done;
        check Alcotest.int "length capped" 4 (Trace.length tr);
        check Alcotest.int "dropped counted" 6 (Trace.dropped tr);
        check
          Alcotest.(list int)
          "tail survives" [ 7; 8; 9; 10 ]
          (List.map (fun e -> e.Trace.ev_cycle) (Trace.events tr)));
    tc "emitters are no-ops on None" (fun () ->
        (* must not raise and must cost nothing observable *)
        Trace.store_inject None ~cycle:0 ~node:0 ~addr:0 ~value:0 ~seq:0;
        Trace.stuck None ~cycle:0 ~phase:"serial");
    tc "jsonl round-trip" (fun () ->
        let tr = Trace.create () in
        Trace.store_inject (Some tr) ~cycle:10 ~node:2 ~addr:64 ~value:7 ~seq:3;
        Trace.signal_inject (Some tr) ~cycle:11 ~node:2 ~seg:1 ~seq:4 ~barrier:3;
        Trace.lockstep_hold (Some tr) ~cycle:12 ~node:5 ~origin:2 ~barrier:3
          ~applied:1;
        Trace.loop_enter (Some tr) ~cycle:13 ~loop:8 ~trip:None;
        let lines = String.split_on_char '\n' (String.trim (Trace.to_jsonl tr)) in
        check Alcotest.int "one line per event" (Trace.length tr)
          (List.length lines);
        let back =
          List.map
            (fun l ->
              match Trace.event_of_line l with
              | Ok e -> e
              | Error m -> Alcotest.fail ("unparseable line: " ^ m))
            lines
        in
        List.iter2
          (fun a b ->
            check Alcotest.int "cycle" a.Trace.ev_cycle b.Trace.ev_cycle;
            check Alcotest.string "kind" a.Trace.ev_kind b.Trace.ev_kind;
            Alcotest.(check bool) "fields" true
              (Json.equal
                 (Json.Obj a.Trace.ev_fields)
                 (Json.Obj b.Trace.ev_fields)))
          (Trace.events tr) back);
    tc "clear resets but keeps capacity" (fun () ->
        let tr = Trace.create ~capacity:4 () in
        for c = 1 to 10 do
          Trace.emit (Some tr) ~cycle:c ~kind:"e" []
        done;
        Trace.clear tr;
        check Alcotest.int "empty" 0 (Trace.length tr);
        Trace.emit (Some tr) ~cycle:99 ~kind:"e" [];
        check Alcotest.int "usable again" 1 (Trace.length tr));
  ]

(* ---- metrics registry ------------------------------------------------ *)

let metrics_tests =
  [
    tc "set/find typed values" (fun () ->
        let m = Metrics.create () in
        Metrics.set_int m "a.count" 3;
        Metrics.set_float m "a.rate" 0.5;
        Metrics.set_hist m "a.hist" [| 1; 2 |];
        check Alcotest.(option int) "int" (Some 3) (Metrics.find_int m "a.count");
        check
          Alcotest.(option (float 1e-9))
          "float" (Some 0.5) (Metrics.find_float m "a.rate");
        check
          Alcotest.(option (float 1e-9))
          "find_float widens int" (Some 3.0)
          (Metrics.find_float m "a.count"));
    tc "set_hist copies the array" (fun () ->
        let m = Metrics.create () in
        let h = [| 1; 2 |] in
        Metrics.set_hist m "h" h;
        h.(0) <- 99;
        match Metrics.find m "h" with
        | Some (Metrics.Hist a) -> check Alcotest.int "unaffected" 1 a.(0)
        | _ -> Alcotest.fail "hist missing");
    tc "add_int accumulates" (fun () ->
        let m = Metrics.create () in
        Metrics.add_int m "n" 2;
        Metrics.add_int m "n" 3;
        check Alcotest.(option int) "sum" (Some 5) (Metrics.find_int m "n"));
    tc "to_json is flat and sorted" (fun () ->
        let m = Metrics.create () in
        Metrics.set_int m "b" 2;
        Metrics.set_int m "a" 1;
        match Metrics.to_json m with
        | Json.Obj [ ("a", Json.Int 1); ("b", Json.Int 2) ] -> ()
        | j -> Alcotest.fail ("unexpected shape: " ^ Json.to_string j));
  ]

(* ---- metrics vs legacy counters -------------------------------------- *)

(* The executor's metrics export must agree with the legacy result
   fields and Stats accounting — same run, two views. *)
let legacy_agreement_tests =
  [
    tc "executor metrics match legacy result fields" (fun () ->
        let wl = Registry.find "164.gzip" in
        let par = Exp_common.run_helix wl Exp_common.V3 in
        let m = par.Executor.r_metrics in
        let geti k =
          match Metrics.find_int m k with
          | Some v -> v
          | None -> Alcotest.fail ("missing metric " ^ k)
        in
        let getf k =
          match Metrics.find_float m k with
          | Some v -> v
          | None -> Alcotest.fail ("missing metric " ^ k)
        in
        check Alcotest.int "exec.cycles" par.Executor.r_cycles
          (geti "exec.cycles");
        check Alcotest.int "exec.retired" par.Executor.r_retired
          (geti "exec.retired");
        check Alcotest.int "exec.serial_cycles" par.Executor.r_serial_cycles
          (geti "exec.serial_cycles");
        check Alcotest.int "exec.parallel_cycles"
          par.Executor.r_parallel_cycles
          (geti "exec.parallel_cycles");
        check Alcotest.int "exec.max_outstanding_signals"
          par.Executor.r_max_outstanding_signals
          (geti "exec.max_outstanding_signals");
        check (Alcotest.float 1e-9) "ring.hit_rate"
          par.Executor.r_ring_hit_rate (getf "ring.hit_rate");
        (match Metrics.find m "ring.dist_hist" with
        | Some (Metrics.Hist h) ->
            check
              Alcotest.(array int)
              "ring.dist_hist" par.Executor.r_ring_dist_hist h
        | _ -> Alcotest.fail "ring.dist_hist missing");
        (* Figure-12 bucket fractions: the merged per-core view must be
           exactly what Stats.fraction computes (what Stats.pp prints) *)
        let merged =
          Stats.merge (Array.to_list par.Executor.r_core_stats)
        in
        List.iter
          (fun b ->
            check (Alcotest.float 1e-9)
              ("cores.frac." ^ Stats.bucket_name b)
              (Stats.fraction merged b)
              (getf ("cores.frac." ^ Stats.bucket_name b)))
          Stats.all_buckets;
        check Alcotest.int "cores.cycles" merged.Stats.cycles
          (geti "cores.cycles");
        (* per-core namespaces exist for every core *)
        Array.iteri
          (fun i st ->
            check Alcotest.int
              (Printf.sprintf "core.%d.cycles" i)
              st.Stats.cycles
              (geti (Printf.sprintf "core.%d.cycles" i)))
          par.Executor.r_core_stats);
  ]

(* ---- forced deadlock: report completeness ---------------------------- *)

(* Compile a workload, then delete every Signal from the parallel body
   functions: workers' waits can never be satisfied, so the run must
   wedge and the watchdog must produce a complete report. *)
let strip_signals (compiled : Hcc.compiled) =
  List.iter
    (fun (pl : Parallel_loop.t) ->
      let bf = Ir.find_func compiled.Hcc.cp_prog pl.Parallel_loop.pl_body_fn in
      List.iter
        (fun l ->
          let blk = Ir.block_of_func bf l in
          blk.Ir.b_instrs <-
            List.filter
              (fun ins -> match ins with Ir.Signal _ -> false | _ -> true)
              blk.Ir.b_instrs)
        bf.Ir.f_order)
    (Hcc.selected_loops compiled)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let deadlock_tests =
  [
    tc "stripped signals wedge; report lists every node and wait target"
      (fun () ->
        let wl = Registry.find "164.gzip" in
        let s = wl.Workload.build () in
        let compiled =
          Hcc.compile (Hcc_config.v3 ()) s.Workload.prog s.Workload.layout
            ~train_mem:(s.Workload.init Workload.Train)
        in
        strip_signals compiled;
        let tr = Trace.create () in
        let cfg =
          {
            (Executor.default_config ~ring:true
               ~comm:Executor.fully_decoupled ~trace:tr Mach_config.default)
            with
            Executor.watchdog_cycles = 20_000;
          }
        in
        match
          Executor.run ~compiled cfg compiled.Hcc.cp_prog
            (s.Workload.init Workload.Ref)
        with
        | _ -> Alcotest.fail "run without signals should get stuck"
        | exception Executor.Stuck (reason, report) ->
            Alcotest.(check string)
              "a wedge is classified as a deadlock, not fuel" "deadlock"
              (Executor.stuck_reason_name reason);
            (* every ring node's state must appear, not just the first few *)
            for node = 0 to cfg.Executor.mach.Mach_config.n_cores - 1 do
              Alcotest.(check bool)
                (Printf.sprintf "report covers node %d" node)
                true
                (contains report (Printf.sprintf "node %d:" node))
            done;
            Alcotest.(check bool) "report has worker states" true
              (contains report "worker");
            Alcotest.(check bool) "report has wait targets" true
              (contains report "wait targets");
            Alcotest.(check bool) "report names an unmet threshold" true
              (contains report "MISSING");
            Alcotest.(check bool) "report includes the parallel phase" true
              (contains report "phase: parallel");
            (* the trace saw the wedge too *)
            Alcotest.(check bool) "stuck event traced" true
              (List.exists
                 (fun e -> e.Trace.ev_kind = "stuck")
                 (Trace.events tr)));
  ]

let props = [ QCheck_alcotest.to_alcotest prop_json_roundtrip ]

(* ---- bench trend gate (lib/experiments/trend.ml) --------------------- *)

module Trend = Helix_experiments.Trend

let trend_fails fs = List.length (Trend.failures fs)

let engine_json ?(event = true) ~legacy_rate ~event_rate () =
  let side r =
    Printf.sprintf
      "{\"cycles\": 1000, \"seconds\": 1.0, \"cycles_per_sec\": %f}" r
  in
  Printf.sprintf "{\"bench\": \"engine-ab\", \"legacy\": %s%s}"
    (side legacy_rate)
    (if event then Printf.sprintf ", \"event\": %s" (side event_rate) else "")

let trend_tests =
  [
    Alcotest.test_case "equal rates pass" `Quick (fun () ->
        let j = engine_json ~legacy_rate:1e6 ~event_rate:2e6 () in
        Alcotest.(check int) "no failures" 0
          (trend_fails (Trend.compare_engine ~old_json:j ~new_json:j ())));
    Alcotest.test_case "small drift passes, big regression fails" `Quick
      (fun () ->
        let old_j = engine_json ~legacy_rate:1e6 ~event_rate:2e6 () in
        let drift = engine_json ~legacy_rate:0.95e6 ~event_rate:1.9e6 () in
        let regressed = engine_json ~legacy_rate:1e6 ~event_rate:1.3e6 () in
        Alcotest.(check int) "5% drift ok" 0
          (trend_fails
             (Trend.compare_engine ~old_json:old_j ~new_json:drift ()));
        Alcotest.(check int) "33% drop fails" 1
          (trend_fails
             (Trend.compare_engine ~old_json:old_j ~new_json:regressed ()));
        (* a tighter threshold turns the drift into a failure too *)
        Alcotest.(check bool) "2% threshold catches drift" true
          (trend_fails
             (Trend.compare_engine ~threshold:0.02 ~old_json:old_j
                ~new_json:drift ())
          > 0));
    Alcotest.test_case "new engine without baseline is not a failure" `Quick
      (fun () ->
        let old_j = engine_json ~event:false ~legacy_rate:1e6 ~event_rate:0.0 () in
        let new_j = engine_json ~legacy_rate:1e6 ~event_rate:2e6 () in
        Alcotest.(check int) "no failures" 0
          (trend_fails (Trend.compare_engine ~old_json:old_j ~new_json:new_j ())));
    Alcotest.test_case "an engine disappearing is a failure" `Quick (fun () ->
        let old_j = engine_json ~legacy_rate:1e6 ~event_rate:2e6 () in
        let new_j = engine_json ~event:false ~legacy_rate:1e6 ~event_rate:0.0 () in
        Alcotest.(check int) "one failure" 1
          (trend_fails (Trend.compare_engine ~old_json:old_j ~new_json:new_j ())));
    Alcotest.test_case "figure value changes pass, shape changes fail" `Quick
      (fun () ->
        let old_fig = "{\"rows\": [{\"wl\": \"gzip\", \"speedup\": 2.0}]}" in
        let moved = "{\"rows\": [{\"wl\": \"gzip\", \"speedup\": 3.1}]}" in
        let reshaped =
          "{\"rows\": [{\"wl\": \"gzip\", \"speedup\": 2.0}, {\"wl\": \
           \"mcf\", \"speedup\": 1.0}]}"
        in
        Alcotest.(check int) "values may move" 0
          (trend_fails
             (Trend.compare_figure ~name:"fig1" ~old_json:old_fig
                ~new_json:moved ()));
        Alcotest.(check int) "row added fails" 1
          (trend_fails
             (Trend.compare_figure ~name:"fig1" ~old_json:old_fig
                ~new_json:reshaped ())));
    Alcotest.test_case "compare_all: missing sides" `Quick (fun () ->
        let j = engine_json ~legacy_rate:1e6 ~event_rate:2e6 () in
        (* no baseline at all: notes only *)
        Alcotest.(check int) "first run passes" 0
          (trend_fails
             (Trend.compare_all ~engine_old:None ~engine_new:(Some j)
                ~figures:[ ("fig1.json", (None, Some "{}")) ]
                ()));
        (* current run lost its artifacts: failures *)
        Alcotest.(check bool) "lost artifacts fail" true
          (trend_fails
             (Trend.compare_all ~engine_old:(Some j) ~engine_new:None
                ~figures:[ ("fig1.json", (Some "{}", None)) ]
                ())
          >= 2));
  ]

(* ---- environment variables ----------------------------------------- *)

(* Run [cmd] with the variables [env] set; (exit code, stderr). *)
let run_env cmd env =
  let err = Filename.temp_file "helix_env" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >/dev/null 2>%s"
         (String.concat " "
            (List.map (fun (var, v) -> var ^ "=" ^ Filename.quote v) env))
         cmd (Filename.quote err))
  in
  let msg = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  (code, msg)

let run_with_env var value = run_env "../bin/helix_rc.exe list" [ (var, value) ]

(* The bench harness parses its variables at start-up, so only malformed
   settings are run here: they stop it before any work.  The first pair
   is a valid setting that must not be the one the message names. *)
let bench_env_tests =
  List.map
    (fun ((ok_var, ok), (var, bad)) ->
      tc (Fmt.str "bench %S in %s exits 2" bad var) (fun () ->
          let code, msg = run_env "../bench/main.exe" [ (ok_var, ok); (var, bad) ] in
          check Alcotest.int (var ^ " malformed: exit status") 2 code;
          Alcotest.(check bool) ("message names the variable: " ^ msg) true
            (contains msg var && contains msg "expected"
            && not (contains msg ok_var))))
    [
      (("HELIX_BENCH_QUICK", "0"), ("HELIX_BENCH_SECTIONS", "figurse"));
      (("HELIX_BENCH_QUICK", "1"), ("HELIX_BENCH_SECTIONS", "figures,"));
      (("HELIX_BENCH_SECTIONS", "engine"), ("HELIX_BENCH_QUICK", "yes"));
      (("HELIX_BENCH_SECTIONS", "figures,micro"), ("HELIX_BENCH_QUICK", "2"));
    ]

let env_tests =
  tc "parse: unset, accepted and malformed values" (fun () ->
      let conv = Env.int_at_least 1 in
      let parse = Env.parse "HELIX_X" ~accepted:"a positive integer" conv in
      Alcotest.(check bool) "unset" true (parse None = Ok None);
      Alcotest.(check bool) "accepted, trimmed" true
        (parse (Some " 3 ") = Ok (Some 3));
      match parse (Some "0") with
      | Error msg ->
          Alcotest.(check bool) ("names variable and values: " ^ msg) true
            (contains msg "HELIX_X" && contains msg "\"0\""
            && contains msg "a positive integer")
      | Ok _ -> Alcotest.fail "0 accepted as a positive integer")
  :: List.map
       (fun (var, bad, good) ->
         tc (Fmt.str "%s: %S fails clearly, %S runs" var bad good) (fun () ->
             let code, msg = run_with_env var bad in
             check Alcotest.int (var ^ " malformed: exit status") 2 code;
             Alcotest.(check bool) ("message names the variable: " ^ msg) true
               (contains msg var && contains msg "expected");
             let code, msg = run_with_env var good in
             check Alcotest.int (var ^ " valid: exit status " ^ msg) 0 code))
       [
         ("HELIX_ENGINE", "bogus", "event");
         ("HELIX_ENGINE", "heap", "legacy");
         ("HELIX_BENCH_JOBS", "abc", "2");
         ("HELIX_TRACE_INV", "x", "1");
         ("HELIX_TRACE_CORE", "x", "3");
         ("HELIX_TRACE_WIN", "a-b", "100-200");
       ]
  @ bench_env_tests

(* ---- the run command's fault options -------------------------------- *)

(* Run [args] through the CLI; (exit code, stdout, stderr). *)
let run_cli args =
  let out = Filename.temp_file "helix_cli" ".out" in
  let err = Filename.temp_file "helix_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "../bin/helix_rc.exe %s >%s 2>%s" args
         (Filename.quote out) (Filename.quote err))
  in
  let read f =
    let s = In_channel.with_open_text f In_channel.input_all in
    Sys.remove f;
    s
  in
  let o = read out in
  (code, o, read err)

let read_file f = In_channel.with_open_bin f In_channel.input_all

let cli_tests =
  [
    tc "run --help renders the fault spec and writes no error" (fun () ->
        let code, out, err = run_cli "run --help=plain" in
        check Alcotest.int "exit status" 0 code;
        check Alcotest.string "stderr" "" err;
        Alcotest.(check bool) "kill=3@50000 in the example" true
          (contains out "kill=3@50000");
        Alcotest.(check bool) "delay= documented" true
          (contains out "delay=D"));
    tc "--jitter S is --faults seed=S,delay=2, byte for byte" (fun () ->
        let metrics flag =
          let f = Filename.temp_file "helix_metrics" ".json" in
          let code, _, err =
            run_cli
              (Printf.sprintf "run 164.gzip %s --metrics-out %s" flag
                 (Filename.quote f))
          in
          check Alcotest.int (flag ^ ": exit status " ^ err) 0 code;
          let m = read_file f in
          Sys.remove f;
          m
        in
        check Alcotest.string "metrics JSON"
          (metrics "--jitter 42")
          (metrics "--faults seed=42,delay=2"));
  ]
  @ List.map
      (fun (args, needle) ->
        tc (Fmt.str "run 164.gzip %s is refused" args) (fun () ->
            let code, _, err = run_cli ("run 164.gzip " ^ args) in
            Alcotest.(check bool) "nonzero exit" true (code <> 0);
            Alcotest.(check bool) ("message: " ^ err) true (contains err needle);
            Alcotest.(check bool) ("no exception: " ^ err) false
              (contains err "xception" || contains err "Fatal error")))
      [
        ("--faults kill=99@100", "16 cores");
        ("--faults seed=1,drop=500,corrupt=500", "drop+corrupt");
        ("--faults seed=1,drop=600,dup=500", "at most 1000");
        ("--faults delay=-1", "delay: must be >= 0");
        ("--jitter 1 --faults seed=1,drop=2", "delay=");
      ]

let () =
  Alcotest.run "obs"
    [
      ("json", json_tests);
      ("trace", trace_tests);
      ("metrics", metrics_tests);
      ("legacy-agreement", legacy_agreement_tests);
      ("deadlock-report", deadlock_tests);
      ("bench-trend", trend_tests);
      ("env", env_tests);
      ("cli-faults", cli_tests);
      ("properties", props);
    ]
