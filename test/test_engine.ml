open Helix_machine
open Helix_core
open Helix_workloads

(* Differential test: the event engine must be bit-identical to the
   legacy per-cycle engine on every registry workload, in every
   communication mode, with and without ring fault-injection jitter.
   "Bit-identical" means: return value, total and per-core cycle
   accounting, retirement counts, the final memory image, invocation
   records and every exported metric except the engine's own
   ["engine.*"] counters. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

module Engine = Helix_engine.Engine

(* One compile per workload (the compiled program is immutable and
   engine-independent). *)
let compiled_cache : (string, Helix_hcc.Hcc.compiled) Hashtbl.t =
  Hashtbl.create 16

let compiled (wl : Workload.t) =
  match Hashtbl.find_opt compiled_cache wl.Workload.name with
  | Some c -> c
  | None ->
      let s = wl.Workload.build () in
      let c =
        Helix_hcc.Hcc.compile
          (Helix_hcc.Hcc_config.v3 ~target_cores:16 ())
          s.Workload.prog s.Workload.layout
          ~train_mem:(s.Workload.init Workload.Train)
      in
      Hashtbl.replace compiled_cache wl.Workload.name c;
      c

let run_with ~engine ~(cfg : Executor.config) (wl : Workload.t) =
  let s = wl.Workload.build () in
  let c = compiled wl in
  Executor.run ~compiled:c
    { cfg with Executor.engine }
    c.Helix_hcc.Hcc.cp_prog
    (s.Workload.init Workload.Ref)

let value_eq (a : Helix_obs.Metrics.value) (b : Helix_obs.Metrics.value) =
  Stdlib.compare a b = 0

let engine_metric name = String.length name >= 7 && String.sub name 0 7 = "engine."

let check_metrics_equal (ml : Helix_obs.Metrics.t) (me : Helix_obs.Metrics.t)
    =
  let names m =
    List.filter (fun n -> not (engine_metric n)) (Helix_obs.Metrics.names m)
  in
  check (Alcotest.list Alcotest.string) "metric names" (names ml) (names me);
  List.iter
    (fun n ->
      let vl = Helix_obs.Metrics.find ml n in
      let ve = Helix_obs.Metrics.find me n in
      match (vl, ve) with
      | Some a, Some b ->
          if not (value_eq a b) then
            Alcotest.failf "metric %s differs between engines" n
      | _ -> Alcotest.failf "metric %s missing" n)
    (names ml)

let check_identical (l : Executor.result) (e : Executor.result) =
  check Alcotest.int "r_cycles" l.Executor.r_cycles e.Executor.r_cycles;
  check (Alcotest.option Alcotest.int) "r_ret" l.Executor.r_ret
    e.Executor.r_ret;
  check Alcotest.int "r_retired" l.Executor.r_retired e.Executor.r_retired;
  check Alcotest.int "r_serial_cycles" l.Executor.r_serial_cycles
    e.Executor.r_serial_cycles;
  check Alcotest.int "r_parallel_cycles" l.Executor.r_parallel_cycles
    e.Executor.r_parallel_cycles;
  check Alcotest.int "invocations"
    (List.length l.Executor.r_invocations)
    (List.length e.Executor.r_invocations);
  List.iter2
    (fun (a : Executor.invocation_record) (b : Executor.invocation_record) ->
      check Alcotest.int "inv_loop" a.Executor.inv_loop b.Executor.inv_loop;
      check Alcotest.int "inv_trip" a.Executor.inv_trip b.Executor.inv_trip;
      check Alcotest.int "inv_cycles" a.Executor.inv_cycles
        b.Executor.inv_cycles)
    l.Executor.r_invocations e.Executor.r_invocations;
  Array.iteri
    (fun i (sl : Stats.t) ->
      let se = e.Executor.r_core_stats.(i) in
      check Alcotest.int
        (Printf.sprintf "core %d cycles" i)
        sl.Stats.cycles se.Stats.cycles;
      check Alcotest.int
        (Printf.sprintf "core %d retired" i)
        sl.Stats.retired se.Stats.retired;
      List.iter
        (fun b ->
          check Alcotest.int
            (Printf.sprintf "core %d bucket %s" i (Stats.bucket_name b))
            (Stats.get sl b) (Stats.get se b))
        Stats.all_buckets)
    l.Executor.r_core_stats;
  check Alcotest.bool "memory image" true
    (Helix_ir.Memory.equal l.Executor.r_mem e.Executor.r_mem);
  check_metrics_equal l.Executor.r_metrics e.Executor.r_metrics

(* ---- golden digests ---------------------------------------------------- *)

(* Every differential case also records a digest of its result: cycles,
   return value, retired count, the memory-image hash, per-core cycle
   buckets, invocation records and every metric except ["engine.*"].  At
   exit the digests are written, sorted by case name, to
   [engine-digests.actual], which the test's dune action diffs against
   [golden/engine-digests.expected]: the cross-engine check above cannot
   see a modelling drift both engines share, this file can.  Accept a
   deliberate change by copying the new file over the golden one, with a
   CHANGES.md note naming the figures that moved. *)

let digests : (string, string) Hashtbl.t = Hashtbl.create 64

let metric_repr = function
  | Helix_obs.Metrics.Int i -> string_of_int i
  | Helix_obs.Metrics.Float f -> Printf.sprintf "%h" f
  | Helix_obs.Metrics.Hist a ->
      String.concat "," (Array.to_list (Array.map string_of_int a))

let digest_of (r : Executor.result) =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  Array.iteri
    (fun i (s : Stats.t) ->
      add "core %d %d %d" i s.Stats.cycles s.Stats.retired;
      List.iter (fun bk -> add " %d" (Stats.get s bk)) Stats.all_buckets;
      add "\n")
    r.Executor.r_core_stats;
  List.iter
    (fun (v : Executor.invocation_record) ->
      add "inv %d %d %d\n" v.Executor.inv_loop v.Executor.inv_trip
        v.Executor.inv_cycles)
    r.Executor.r_invocations;
  List.iter
    (fun n ->
      if not (engine_metric n) then
        match Helix_obs.Metrics.find r.Executor.r_metrics n with
        | Some v -> add "%s=%s\n" n (metric_repr v)
        | None -> ())
    (Helix_obs.Metrics.names r.Executor.r_metrics);
  Printf.sprintf "cycles=%d ret=%s retired=%d serial=%d parallel=%d inv=%d mem=%x md5=%s"
    r.Executor.r_cycles
    (match r.Executor.r_ret with Some v -> string_of_int v | None -> "none")
    r.Executor.r_retired r.Executor.r_serial_cycles
    r.Executor.r_parallel_cycles
    (List.length r.Executor.r_invocations)
    (Helix_ir.Memory.hash r.Executor.r_mem)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let record_digest name r = Hashtbl.replace digests name (digest_of r)

let () =
  (* a file left by an earlier run must never stand in for this one *)
  (try Sys.remove "engine-digests.actual" with Sys_error _ -> ());
  at_exit (fun () ->
      if Hashtbl.length digests > 0 then begin
        let lines =
          Hashtbl.fold (fun k v acc -> (k ^ "\t" ^ v) :: acc) digests []
        in
        let oc = open_out "engine-digests.actual" in
        List.iter (fun l -> output_string oc (l ^ "\n"))
          (List.sort compare lines);
        close_out oc
      end)

(* [check_identical] plus: the fast side really ran the engine kind the
   test asked for (0 = legacy, 1 = event). *)
let check_identical_kind ~kind (l : Executor.result) (e : Executor.result) =
  check_identical l e;
  match Helix_obs.Metrics.find_int e.Executor.r_metrics "engine.kind" with
  | Some k -> check Alcotest.int "engine kind ran" kind k
  | None -> Alcotest.fail "engine.kind metric missing"

let jitter_cfg seed =
  let cfg =
    Executor.default_config ~comm:Executor.fully_decoupled
      Mach_config.default
  in
  {
    cfg with
    Executor.ring_cfg =
      {
        cfg.Executor.ring_cfg with
        Helix_ring.Ring.faults = Some (Helix_ring.Ring.faulty ~delay:2 ~seed ());
      };
  }

let configs =
  [
    ( "helix",
      Executor.default_config ~comm:Executor.fully_decoupled
        Mach_config.default );
    ( "conventional",
      Executor.default_config ~comm:Executor.fully_coupled
        Mach_config.default );
    ("jitter1", jitter_cfg 1);
    ("jitter42", jitter_cfg 42);
  ]

let differential_case (wl : Workload.t) (cfg_name, cfg) =
  let name = Printf.sprintf "%s / %s" wl.Workload.name cfg_name in
  tc name (fun () ->
      let l = run_with ~engine:Engine.Legacy ~cfg wl in
      let e = run_with ~engine:Engine.Event ~cfg wl in
      check_identical_kind ~kind:1 l e;
      record_digest name l)

(* Fig. 8's mixed columns route one communication class differently from
   the others: [reg] and [reg+mem] carry data on the ring but signal
   conventionally, [reg+sync] signals on the ring but keeps program
   memory in the coherent hierarchy. *)
let mixed_configs =
  List.filter_map
    (fun (m : Helix_experiments.Fig8.mode) ->
      if m.Helix_experiments.Fig8.short = "all" then None
      else
        Some
          ( m.Helix_experiments.Fig8.short,
            Executor.default_config
              ~comm:m.Helix_experiments.Fig8.comm Mach_config.default ))
    Helix_experiments.Fig8.modes

let differential_tests =
  List.concat_map
    (fun wl -> List.map (differential_case wl) configs)
    Registry.all
  @ List.concat_map
      (fun wl_name ->
        List.map (differential_case (Registry.find wl_name)) mixed_configs)
      [ "164.gzip"; "175.vpr" ]

(* Out-of-order cores exercise a different next-event computation.  The
   conventional machine (no ring, lazy signal visibility) adds head-only
   shared issue that keeps retrying. *)
let ooo_tests =
  let case ~name ~comm core wl_name =
    let wl = Registry.find wl_name in
    tc name (fun () ->
        let mach = { Mach_config.default with Mach_config.core } in
        let cfg = Executor.default_config ~comm mach in
        let l = run_with ~engine:Engine.Legacy ~cfg wl in
        let e = run_with ~engine:Engine.Event ~cfg wl in
        check_identical_kind ~kind:1 l e;
        record_digest name l)
  in
  let wls = [ "164.gzip"; "197.parser" ] in
  List.concat_map
    (fun core ->
      List.map
        (fun wl_name ->
          case
            ~name:
              (Printf.sprintf "%s / ooo width %d" wl_name
                 core.Mach_config.width)
            ~comm:Executor.fully_decoupled core wl_name)
        wls)
    [ Mach_config.ooo2_core; Mach_config.ooo4_core ]
  @ List.map
      (fun wl_name ->
        case
          ~name:(Printf.sprintf "%s / ooo4 conventional" wl_name)
          ~comm:Executor.fully_coupled Mach_config.ooo4_core
          wl_name)
      wls

(* The 1-core sequential runs every speed-up is divided by (the
   benchmark's seq-all jobs): the unmodified program on the in-order
   core and on the 4-wide OoO core, configured as
   [Helix.run_sequential] does, under each engine. *)
let sequential_tests =
  let seq_run ~engine mach (wl : Workload.t) =
    let s = wl.Workload.build () in
    let cfg =
      Executor.default_config ~comm:Executor.fully_coupled ~engine
        (Mach_config.with_cores mach 1)
    in
    Executor.run cfg s.Workload.prog (s.Workload.init Workload.Ref)
  in
  let case label mach wl_name =
    let wl = Registry.find wl_name in
    let name = Printf.sprintf "%s / %s" wl_name label in
    tc name (fun () ->
        let l = seq_run ~engine:Engine.Legacy mach wl in
        let e = seq_run ~engine:Engine.Event mach wl in
        check_identical_kind ~kind:1 l e;
        record_digest name l)
  in
  let cint =
    [ "164.gzip"; "175.vpr"; "197.parser"; "300.twolf"; "181.mcf"; "256.bzip2" ]
  in
  List.map
    (case "sequential in-order" Mach_config.default)
    (cint @ [ "183.equake"; "188.ammp"; "177.mesa" ])
  @ List.map
      (case "sequential ooo width 4"
         (Mach_config.with_core_kind Mach_config.default Mach_config.ooo4_core))
      cint

(* ---- fuel and watchdog under fast-forward --------------------------- *)

(* A fast-forward window must never jump over the fuel boundary or the
   watchdog trigger: both engines must die at the same cycle with the
   same full report (the report embeds the cycle, the phase counters and
   the complete ring snapshot, so string equality is a strong check). *)

let stuck_of ~engine ~(cfg : Executor.config) wl =
  match run_with ~engine ~cfg wl with
  | _ -> Alcotest.fail "expected a Stuck run"
  | exception Executor.Stuck (reason, report) -> (reason, report)

let gzip () = List.find (fun w -> w.Workload.name = "164.gzip") Registry.all

let fuel_test =
  tc "fuel exhaustion fires at the same cycle" (fun () ->
      let cfg =
        {
          (Executor.default_config ~comm:Executor.fully_decoupled
             Mach_config.default)
          with
          Executor.fuel = 10_000;
        }
      in
      let rl, sl = stuck_of ~engine:Engine.Legacy ~cfg (gzip ()) in
      let re, se = stuck_of ~engine:Engine.Event ~cfg (gzip ()) in
      check Alcotest.string "reason"
        (Executor.stuck_reason_name rl)
        (Executor.stuck_reason_name re);
      check Alcotest.string "reason is fuel"
        (Executor.stuck_reason_name Executor.Fuel)
        (Executor.stuck_reason_name rl);
      check Alcotest.string "identical stuck report" sl se)

let watchdog_test =
  tc "watchdog wedges at the same cycle" (fun () ->
      (* a watchdog shorter than a long ring round-trip stall trips
         during a healthy run: both engines must observe the identical
         wedge *)
      let cfg =
        {
          (Executor.default_config ~comm:Executor.fully_decoupled
             Mach_config.default)
          with
          Executor.watchdog_cycles = 40;
        }
      in
      let rl, sl = stuck_of ~engine:Engine.Legacy ~cfg (gzip ()) in
      let re, se = stuck_of ~engine:Engine.Event ~cfg (gzip ()) in
      check Alcotest.string "reason"
        (Executor.stuck_reason_name rl)
        (Executor.stuck_reason_name re);
      check Alcotest.string "reason is deadlock"
        (Executor.stuck_reason_name Executor.Deadlock)
        (Executor.stuck_reason_name rl);
      check Alcotest.string "identical stuck report" sl se)

(* Fig. 8's reg+mem column carries data on the ring but signals through
   the conventional log: a run stopped mid-loop must report the log's
   signal counts, not those of the ring's empty signal buffers. *)
let mixed_stuck_test =
  tc "reg+mem stuck report reads the signal log" (fun () ->
      let cfg =
        { (List.assoc "reg+mem" mixed_configs) with Executor.fuel = 20_000 }
      in
      let _, report = stuck_of ~engine:Engine.Event ~cfg (gzip ()) in
      let words =
        String.split_on_char ' '
          (String.map (function ';' | '\n' -> ' ' | c -> c) report)
      in
      let rec haves acc = function
        | "have" :: n :: rest -> haves (int_of_string n :: acc) rest
        | _ :: rest -> haves acc rest
        | [] -> acc
      in
      let have = haves [] words in
      check Alcotest.bool "wait targets reported" true (have <> []);
      check Alcotest.bool "some signal counted" true
        (List.exists (fun h -> h > 0) have))

(* ---- synthetic components: the engine protocol in isolation ---------- *)

(* Scripted components with exact wake-up promises, run under both
   engine kinds.  The observable is a log of (component, cycle) firings:
   it must be identical whether the engine ticks every cycle (legacy) or
   fast-forwards on the promises (event). *)

(* Fires exactly at the cycles in [fires] (sorted), promising the next
   one. *)
let pulse ~name ~(log : Buffer.t) fires =
  let remaining = ref fires in
  {
    Engine.cp_name = name;
    cp_tick =
      (fun ~cycle ->
        match !remaining with
        | c :: rest when c = cycle ->
            Buffer.add_string log (Printf.sprintf "%s@%d;" name cycle);
            remaining := rest
        | _ -> ());
    cp_next_event =
      (fun ~now ->
        match !remaining with [] -> Engine.never | c :: _ -> max c now);
    cp_skip = (fun ~now:_ ~cycles:_ -> ());
  }

let run_pulses ?(horizon = 400) kind schedules =
  let clock = ref 0 in
  let eng = Engine.create ~kind ~clock () in
  let log = Buffer.create 256 in
  List.iteri
    (fun i fires ->
      Engine.register eng (pulse ~name:(string_of_int i) ~log fires))
    schedules;
  while !clock < horizon do
    Engine.step eng
  done;
  (Buffer.contents log, Engine.skipped_cycles eng)

let synthetic_tests =
  [
    tc "pulse schedules fire identically under all engines" (fun () ->
        let schedules = [ [ 0; 7; 14; 200 ]; [ 3; 50; 51; 120 ]; [ 44 ] ] in
        let ll, ls = run_pulses Engine.Legacy schedules in
        let el, es = run_pulses Engine.Event schedules in
        check Alcotest.string "event log" ll el;
        check Alcotest.int "legacy never skips" 0 ls;
        check Alcotest.bool "event skipped" true (es > 0));
    tc "a promise that moves later never loses its firing" (fun () ->
        (* the component promises 100 early on, then (without ever being
           active) revises to 150: the window the engine jumps to at 100
           is a no-op, and the firing at 150 must still happen in both
           engines. *)
        let run kind =
          let clock = ref 0 in
          let eng = Engine.create ~kind ~clock () in
          let log = Buffer.create 64 in
          let fired = ref false in
          Engine.register eng
            {
              Engine.cp_name = "shifty";
              cp_tick =
                (fun ~cycle ->
                  if cycle = 150 && not !fired then begin
                    Buffer.add_string log "shifty@150;";
                    fired := true
                  end);
              cp_next_event =
                (fun ~now ->
                  if !fired then Engine.never
                  else if now < 60 then 100
                  else 150);
              cp_skip = (fun ~now:_ ~cycles:_ -> ());
            };
          Engine.register eng (pulse ~name:"beat" ~log [ 10; 300 ]);
          while !clock < 350 do
            Engine.step eng
          done;
          Buffer.contents log
        in
        let ll = run Engine.Legacy in
        check Alcotest.string "event log" ll (run Engine.Event));
    tc "a reactive component poked earlier fires on time" (fun () ->
        (* S is purely reactive (promise None) until W fires at 40 and
           pokes it for cycle 45 -- the executor's ring-injection path,
           where one component's tick moves another's promise earlier.
           S must fire at 45 under both engines. *)
        let run kind =
          let clock = ref 0 in
          let eng = Engine.create ~kind ~clock () in
          let log = Buffer.create 64 in
          let poked = ref None in
          Engine.register eng
            {
              Engine.cp_name = "S";
              cp_tick =
                (fun ~cycle ->
                  match !poked with
                  | Some c when c = cycle ->
                      Buffer.add_string log (Printf.sprintf "S@%d;" cycle);
                      poked := None
                  | _ -> ());
              cp_next_event =
                (fun ~now ->
                  match !poked with Some c -> max c now | None -> Engine.never);
              cp_skip = (fun ~now:_ ~cycles:_ -> ());
            };
          let w_fires = ref [ 40 ] in
          Engine.register eng
            {
              Engine.cp_name = "W";
              cp_tick =
                (fun ~cycle ->
                  match !w_fires with
                  | c :: rest when c = cycle ->
                      Buffer.add_string log (Printf.sprintf "W@%d;" cycle);
                      poked := Some 45;
                      w_fires := rest
                  | _ -> ());
              cp_next_event =
                (fun ~now ->
                  match !w_fires with [] -> Engine.never | c :: _ -> max c now);
              cp_skip = (fun ~now:_ ~cycles:_ -> ());
            };
          Engine.register eng (pulse ~name:"beat" ~log [ 200 ]);
          while !clock < 250 do
            Engine.step eng
          done;
          Buffer.contents log
        in
        let ll = run Engine.Legacy in
        check Alcotest.string "legacy log" "W@40;S@45;beat@200;" ll;
        check Alcotest.string "event log" ll (run Engine.Event));
  ]

(* Randomized pulse schedules: the same identity as above over arbitrary
   firing patterns, including duplicate-free but overlapping schedules
   across components. *)
let prop_pulse_differential =
  QCheck.Test.make ~name:"random pulse schedules are engine-invariant"
    ~count:60
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 20) (int_range 0 300))
        (list_of_size (Gen.int_range 0 20) (int_range 0 300))
        (list_of_size (Gen.int_range 0 20) (int_range 0 300)))
    (fun (a, b, c) ->
      let schedules = List.map (List.sort_uniq compare) [ a; b; c ] in
      let ll, _ = run_pulses ~horizon:310 Engine.Legacy schedules in
      let el, _ = run_pulses ~horizon:310 Engine.Event schedules in
      ll = el)

(* ---- the domain pool -------------------------------------------------- *)

let pool_tests =
  [
    tc "Pool.map preserves order" (fun () ->
        Helix_experiments.Exp_common.Pool.set_jobs 2;
        Fun.protect
          ~finally:(fun () -> Helix_experiments.Exp_common.Pool.set_jobs 1)
          (fun () ->
            let xs = List.init 100 Fun.id in
            let ys = Helix_experiments.Exp_common.Pool.map (fun x -> x * x) xs in
            check (Alcotest.list Alcotest.int) "squares"
              (List.map (fun x -> x * x) xs)
              ys));
    tc "Pool.map re-raises worker exceptions" (fun () ->
        Helix_experiments.Exp_common.Pool.set_jobs 2;
        Fun.protect
          ~finally:(fun () -> Helix_experiments.Exp_common.Pool.set_jobs 1)
          (fun () ->
            match
              Helix_experiments.Exp_common.Pool.map
                (fun x -> if x = 13 then failwith "boom" else x)
                (List.init 20 Fun.id)
            with
            | _ -> Alcotest.fail "expected Failure"
            | exception Failure m -> check Alcotest.string "message" "boom" m));
    tc "Pool.map with jobs=1 is plain map" (fun () ->
        let xs = List.init 10 Fun.id in
        check (Alcotest.list Alcotest.int) "identity" xs
          (Helix_experiments.Exp_common.Pool.map Fun.id xs));
    (* a memo hit is physically the stored value, and only a repeated
       configuration hits *)
    tc "precompile warms the memo caches" (fun () ->
        let module E = Helix_experiments.Exp_common in
        E.Pool.set_jobs 2;
        Fun.protect
          ~finally:(fun () -> E.Pool.set_jobs 1)
          (fun () ->
            let wl = Registry.find "164.gzip" in
            E.precompile ~versions:[ E.V3 ] [ wl ];
            let helix = E.run_helix wl E.V3 in
            (* Fig. 8's "all" column spells the default config its own way *)
            let fig8_all =
              Executor.default_config
                ~comm:Executor.fully_decoupled Mach_config.default
            in
            let d = Mach_config.default in
            let slow_l1 =
              { d with
                Mach_config.mem =
                  { d.Mach_config.mem with
                    Mach_config.l1 =
                      { d.Mach_config.mem.Mach_config.l1 with
                        Mach_config.hit_latency = 4 } } }
            in
            let checked () =
              E.parallel wl E.V3 (E.helix_cfg ~robust:Executor.checked ())
            in
            List.iter
              (fun (what, expected, shared) ->
                check Alcotest.bool what expected shared)
              [
                ("sequential cached", true, E.sequential wl == E.sequential wl);
                ( "compiled cached", true,
                  E.compiled wl E.V3 == E.compiled ~cores:16 wl E.V3 );
                ( "Fig. 8's twin of helix_cfg is its run", true,
                  E.parallel wl E.V3 fig8_all == helix );
                ( "another L1 latency is not the default baseline", false,
                  E.sequential ~mach:slow_l1 wl == E.sequential wl );
                ( "checked runs are distinct values", false,
                  checked () == checked () );
              ];
            let tr = Helix_obs.Trace.create () in
            let traced () = E.parallel wl E.V3 (E.helix_cfg ~trace:tr ()) in
            check Alcotest.bool "a traced run is simulated afresh" false
              (traced () == helix);
            check Alcotest.bool "and records its events" true
              (Helix_obs.Trace.length tr > 0);
            check Alcotest.bool "every time" false (traced () == traced ())));
  ]

let () =
  Alcotest.run "engine"
    [
      ("differential", differential_tests);
      ("ooo-differential", ooo_tests);
      ("seq-differential", sequential_tests);
      ("stuck-boundaries", [ fuel_test; watchdog_test; mixed_stuck_test ]);
      ( "synthetic",
        synthetic_tests
        @ [ QCheck_alcotest.to_alcotest prop_pulse_differential ] );
      ("pool", pool_tests);
    ]
