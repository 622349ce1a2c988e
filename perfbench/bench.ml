(* The repository benchmark: host throughput and fidelity of the HELIX-RC
   reproduction on four simulation workloads.

     bench --workload NAME --seed N --seconds S --trace 0|1 [--fault-seed F]
     bench --selftest

   One process, one OCaml domain.  Every simulated run gets fresh [Ref]
   memory and empty modelled caches, and is checked against the golden
   interpreter.  The layers are timed from outside, around calls to their
   public functions; nothing in the simulator is instrumented.  The last
   line of standard output is the result object; the line before it holds
   the run conditions and the per-model detail.  See NOTES.md for why each
   workload exists and which metric each layer should move. *)

open Helix_hcc
open Helix_machine
open Helix_core
open Helix_workloads
open Helix_experiments
module Json = Helix_obs.Json
module Metrics = Helix_obs.Metrics
module Ring = Helix_ring.Ring

let now = Unix.gettimeofday

(* ---- workloads ------------------------------------------------------ *)

type cfg = Helix_rc | Conventional | Seq_io2 | Seq_ooo4 | Checked_faulty

let cfg_name = function
  | Helix_rc -> "helix"
  | Conventional -> "conv"
  | Seq_io2 -> "seq-io2"
  | Seq_ooo4 -> "seq-ooo4"
  | Checked_faulty -> "checked-faulty"

let is_parallel = function
  | Helix_rc | Conventional | Checked_faulty -> true
  | Seq_io2 | Seq_ooo4 -> false

let workload_names = [ "helix-int"; "conv-int"; "seq-all"; "checked-faulty" ]

(* The (model, configuration) runs that make up one timed pass.  Passes
   are cut to what fits two of them in a run: conv-int leaves out mcf
   (13 s alone) and gzip, seq-all leaves out art (8 s alone), and
   checked-faulty leaves out parser.  NOTES.md has the per-model costs. *)
let jobs_of name : (Workload.t * cfg) list =
  let with_cfg cfg names = List.map (fun n -> (Registry.find n, cfg)) names in
  match name with
  | "helix-int" ->
      with_cfg Helix_rc
        [ "164.gzip"; "175.vpr"; "197.parser"; "300.twolf"; "181.mcf"; "256.bzip2" ]
  | "conv-int" ->
      with_cfg Conventional [ "175.vpr"; "197.parser"; "300.twolf"; "256.bzip2" ]
  | "seq-all" ->
      with_cfg Seq_io2
        [ "164.gzip"; "175.vpr"; "197.parser"; "300.twolf"; "181.mcf";
          "256.bzip2"; "183.equake"; "188.ammp"; "177.mesa" ]
      @ with_cfg Seq_ooo4
          [ "164.gzip"; "175.vpr"; "197.parser"; "300.twolf"; "181.mcf"; "256.bzip2" ]
  | "checked-faulty" -> with_cfg Checked_faulty [ "164.gzip"; "300.twolf" ]
  | _ -> invalid_arg name

(* The seeded lossy ring of [checked-faulty]: every message-level fault
   class, no fail-stop. *)
let fault_plan seed = Ring.faulty ~drop:5 ~dup:3 ~reorder:3 ~corrupt:2 ~seed ()

(* The fault seed is its own argument, not [--seed]: a different plan
   changes the simulated statistics and the host cost of recovery, and
   the benchmark compares runs made with different [--seed]s. *)
let default_fault_seed = 1

let ooo4_mach = Mach_config.with_core_kind Mach_config.default Mach_config.ooo4_core

(* Fig. 10 of the paper: the 4-wide OoO core runs CINT ~1.9x faster than
   the 2-wide in-order core. *)
let paper_ooo4_seq_speedup = 1.9

(* Fig. 7 of the paper: CINT geomean speedup on conventional 16-core
   hardware (HCCv2 code, the paper's best without the ring cache). *)
let paper_conventional_cint = 2.2

(* ---- spans ---------------------------------------------------------- *)

(* A span covers one call into a layer.  [sp_pass] is 0 for set-up and
   k for the k-th timed pass; [sp_work] is the simulated cycles or the
   interpreted instructions the call did. *)
type span = {
  sp_id : int;
  sp_parent : int;
  sp_layer : string;
  sp_call : string;
  sp_model : string;
  sp_cfg : string;
  sp_pass : int;
  sp_t0 : float;
  mutable sp_t1 : float;
  sp_words0 : float;
  mutable sp_words : float;
  sp_minor0 : int;
  sp_major0 : int;
  mutable sp_minor : int;
  mutable sp_major : int;
  mutable sp_work : int;
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_span = ref 1
let current_pass = ref 0

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Run [f] inside a span when tracing; [f] gets the span (or [None]) so it
   can record the work it did. *)
let with_span ~layer ~call ?(model = "") ?(cfg = "") f =
  if not !tracing then f None
  else begin
    let st = Gc.quick_stat () in
    let sp =
      {
        sp_id = !next_span;
        sp_parent = (match !open_spans with p :: _ -> p.sp_id | [] -> 0);
        sp_layer = layer;
        sp_call = call;
        sp_model = model;
        sp_cfg = cfg;
        sp_pass = !current_pass;
        sp_t0 = now ();
        sp_t1 = 0.0;
        sp_words0 = allocated_words ();
        sp_words = 0.0;
        sp_minor0 = st.Gc.minor_collections;
        sp_major0 = st.Gc.major_collections;
        sp_minor = 0;
        sp_major = 0;
        sp_work = 0;
      }
    in
    incr next_span;
    open_spans := sp :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        sp.sp_t1 <- now ();
        sp.sp_words <- allocated_words () -. sp.sp_words0;
        let st = Gc.quick_stat () in
        sp.sp_minor <- st.Gc.minor_collections - sp.sp_minor0;
        sp.sp_major <- st.Gc.major_collections - sp.sp_major0;
        open_spans := List.tl !open_spans;
        spans := sp :: !spans)
      (fun () -> f (Some sp))
  end

let set_work sp n = Option.iter (fun sp -> sp.sp_work <- n) sp
let dur sp = sp.sp_t1 -. sp.sp_t0

(* Self time: the span minus the part its direct children cover. *)
let self_time all sp =
  List.fold_left
    (fun acc c -> if c.sp_parent = sp.sp_id then acc -. dur c else acc)
    (dur sp) all

(* Chrome trace-event JSON (opens in Perfetto): one track per
   model x configuration, plus track 0 for the benchmark's own spans. *)
let chrome_trace all =
  let tracks = Hashtbl.create 16 in
  let track sp =
    if sp.sp_model = "" then 0
    else
      let key = sp.sp_model ^ " " ^ sp.sp_cfg in
      match Hashtbl.find_opt tracks key with
      | Some t -> t
      | None ->
          let t = Hashtbl.length tracks + 1 in
          Hashtbl.replace tracks key t;
          t
  in
  let t_origin =
    List.fold_left (fun acc sp -> Float.min acc sp.sp_t0) infinity all
  in
  let us t = Json.Float ((t -. t_origin) *. 1e6) in
  let events =
    List.map
      (fun sp ->
        Json.Obj
          [
            ("name", Json.String (sp.sp_layer ^ "." ^ sp.sp_call));
            ("cat", Json.String sp.sp_layer);
            ("ph", Json.String "X");
            ("pid", Json.Int 1);
            ("tid", Json.Int (track sp));
            ("ts", us sp.sp_t0);
            ("dur", Json.Float (dur sp *. 1e6));
            ( "args",
              Json.Obj
                [
                  ("id", Json.Int sp.sp_id);
                  ("parent", Json.Int sp.sp_parent);
                  ("model", Json.String sp.sp_model);
                  ("config", Json.String sp.sp_cfg);
                  ("pass", Json.Int sp.sp_pass);
                  ("self_us", Json.Float (self_time all sp *. 1e6));
                  ("alloc_words", Json.Float sp.sp_words);
                  ("minor_gcs", Json.Int sp.sp_minor);
                  ("major_gcs", Json.Int sp.sp_major);
                  ("work", Json.Int sp.sp_work);
                ] );
          ])
      (List.sort (fun a b -> compare a.sp_id b.sp_id) all)
  in
  let names =
    ("bench", 0) :: List.of_seq (Hashtbl.to_seq tracks)
    |> List.map (fun (name, tid) ->
           Json.Obj
             [
               ("name", Json.String "thread_name");
               ("ph", Json.String "M");
               ("pid", Json.Int 1);
               ("tid", Json.Int tid);
               ("args", Json.Obj [ ("name", Json.String name) ]);
             ])
  in
  Json.Obj [ ("traceEvents", Json.List (names @ events)) ]

(* ---- metric names --------------------------------------------------- *)

let allowed_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(* Map a simulator metric name into the result alphabet:
   [cores.bucket.wait/signal] becomes [cores.bucket.wait-signal]. *)
let metric_name s = String.map (fun c -> if allowed_char c then c else '-') s

let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all allowed_char s

(* Sum the integer counters of several runs under mapped names.  Floats
   are ratios that do not add up and histograms are not scalars: both are
   left out, and the ratios the benchmark reports are rebuilt from sums. *)
let sum_counters (ms : Metrics.t list) : (string, int) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun m ->
      List.iter
        (fun n ->
          match Metrics.find m n with
          | Some (Metrics.Int v) ->
              let k = metric_name n in
              Hashtbl.replace tbl k
                (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))
          | Some (Metrics.Float _ | Metrics.Hist _) | None -> ())
        (Metrics.names m))
    ms;
  tbl

(* A digest of every simulated statistic of one run. *)
let digest (r : Executor.result) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d %d %d %d %s;" r.Executor.r_cycles r.Executor.r_retired
    r.Executor.r_serial_cycles r.Executor.r_parallel_cycles
    (match r.Executor.r_ret with Some v -> string_of_int v | None -> "-");
  List.iter
    (fun n ->
      match Metrics.find r.Executor.r_metrics n with
      | Some (Metrics.Int v) -> Printf.bprintf b "%s=%d;" n v
      | Some (Metrics.Float v) -> Printf.bprintf b "%s=%h;" n v
      | Some (Metrics.Hist h) ->
          Printf.bprintf b "%s=[%s];" n
            (String.concat "," (Array.to_list (Array.map string_of_int h)))
      | None -> ())
    (Metrics.names r.Executor.r_metrics);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- statistics ----------------------------------------------------- *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile p (of 50, 90, 99, 99.9) that leaves at least
   ten samples above it, with its value. *)
let high_percentile xs =
  let n = List.length xs in
  let a = Array.of_list (List.sort compare xs) in
  List.fold_left
    (fun acc p ->
      let beyond = float_of_int n *. (1.0 -. (p /. 100.0)) in
      if beyond >= 10.0 then
        let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
        let i = min (n - 1) (rank - 1) in
        Some (p, a.(max 0 i))
      else acc)
    None [ 50.0; 90.0; 99.0; 99.9 ]

let geomean = Helix.geomean
let err_x sim paper = Float.max (sim /. paper) (paper /. sim)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- set-up --------------------------------------------------------- *)

type prepared = {
  p_model : Workload.t;
  p_spec : Workload.spec;
  p_compiled : Hcc.compiled option;
  p_golden : Helix.golden;
  p_baseline : int;  (** sequential cycles on the in-order core, or 0 *)
}

(* Counters of model runs, shared by set-up and passes. *)
let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

let fail model what =
  incr failed;
  failures := Printf.sprintf "%s: %s" model what :: !failures

let guarded model f =
  incr attempted;
  match f () with
  | v -> Some v
  | exception Executor.Stuck (reason, _) ->
      fail model ("stuck (" ^ Executor.stuck_reason_name reason ^ ")");
      None
  | exception e ->
      fail model (Printexc.to_string e);
      None

let run_sequential ~mach ~model ~cfg prog mem =
  with_span ~layer:"machine" ~call:"run_sequential" ~model ~cfg (fun sp ->
      let r = Helix.run_sequential mach prog mem in
      set_work sp r.Executor.r_cycles;
      r)

(* Build, compile, golden-run and (for parallel configurations) measure
   the sequential baseline of every model the workload runs. *)
let setup jobs : (string * prepared) list =
  let models =
    List.map (fun ((m : Workload.t), _) -> (m.Workload.name, m)) jobs
    |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
  in
  with_span ~layer:"bench" ~call:"setup" (fun _ ->
      List.map
        (fun (name, (model : Workload.t)) ->
          let parallel =
            List.exists (fun (m, c) -> m.Workload.name = name && is_parallel c) jobs
          in
          let spec =
            with_span ~layer:"workloads" ~call:"build" ~model:name ~cfg:"setup" (fun _ ->
                model.Workload.build ())
          in
          let compiled =
            if not parallel then None
            else
              Some
                (with_span ~layer:"hcc" ~call:"compile" ~model:name ~cfg:"setup" (fun _ ->
                     Hcc.compile
                       (Hcc_config.v3 ~target_cores:16 ())
                       spec.Workload.prog spec.Workload.layout
                       ~train_mem:(spec.Workload.init Workload.Train)))
          in
          let golden =
            with_span ~layer:"ir" ~call:"golden_run" ~model:name ~cfg:"setup" (fun sp ->
                let g =
                  Helix.golden_run spec.Workload.prog
                    (spec.Workload.init Workload.Ref)
                in
                set_work sp g.Helix.g_dyn_instrs;
                g)
          in
          let baseline =
            if not parallel then 0
            else
              match
                guarded name (fun () ->
                    run_sequential ~mach:Mach_config.default ~model:name
                      ~cfg:(cfg_name Seq_io2) spec.Workload.prog
                      (spec.Workload.init Workload.Ref))
              with
              | Some r -> r.Executor.r_cycles
              | None -> 0
          in
          ( name,
            {
              p_model = model;
              p_spec = spec;
              p_compiled = compiled;
              p_golden = golden;
              p_baseline = baseline;
            } ))
        models)

(* ---- timed passes --------------------------------------------------- *)

type outcome = {
  o_model : string;
  o_cfg : cfg;
  o_sim_s : float;  (** host seconds inside the simulate call *)
  o_result : Executor.result;
  o_digest : string;
}

let simulate fault_seed (p : prepared) cfg mem : Executor.result =
  let name = p.p_model.Workload.name in
  let spec = p.p_spec in
  let parallel exec_cfg =
    let c = Option.get p.p_compiled in
    with_span ~layer:"executor" ~call:"run" ~model:name ~cfg:(cfg_name cfg)
      (fun sp ->
        let r = Executor.run ~compiled:c exec_cfg c.Hcc.cp_prog mem in
        set_work sp r.Executor.r_cycles;
        r)
  in
  match cfg with
  | Helix_rc -> parallel (Exp_common.helix_cfg ())
  | Conventional -> parallel (Exp_common.conventional_cfg ())
  | Checked_faulty ->
      parallel
        (Exp_common.helix_cfg ~robust:Executor.checked
           ~faults:(fault_plan fault_seed) ())
  | Seq_io2 ->
      run_sequential ~mach:Mach_config.default ~model:name ~cfg:(cfg_name cfg)
        spec.Workload.prog mem
  | Seq_ooo4 ->
      run_sequential ~mach:ooo4_mach ~model:name ~cfg:(cfg_name cfg)
        spec.Workload.prog mem

(* One pass over the jobs: fresh [Ref] memory per run, the simulate call
   timed alone, then the result checked against the golden run.  The pass
   time is the sum of its jobs' times. *)
let pass fault_seed prepared jobs : float * outcome list =
  let wall = ref 0.0 in
  let outcomes =
    with_span ~layer:"bench" ~call:"pass" (fun _ ->
        List.filter_map
          (fun ((m : Workload.t), cfg) ->
            let name = m.Workload.name in
            let p = List.assoc name prepared in
            (* every job starts on a collected heap, so neither its time
               nor the peak memory depends on the job order; the
               collection is not timed *)
            Gc.full_major ();
            let t0 = now () in
            let o =
              guarded name (fun () ->
                  let mem =
                    with_span ~layer:"workloads" ~call:"init" ~model:name
                      ~cfg:(cfg_name cfg) (fun _ -> p.p_spec.Workload.init Workload.Ref)
                  in
                  let s0 = now () in
                  let r = simulate fault_seed p cfg mem in
                  let sim_s = now () -. s0 in
                  let verdict =
                    with_span ~layer:"verify" ~call:"verify" ~model:name
                      ~cfg:(cfg_name cfg) (fun _ -> Helix.verify p.p_golden r)
                  in
                  if not verdict.Helix.ok then
                    failwith ("verify: " ^ verdict.Helix.detail);
                  { o_model = name; o_cfg = cfg; o_sim_s = sim_s; o_result = r;
                    o_digest = digest r })
            in
            wall := !wall +. (now () -. t0);
            o)
          jobs)
  in
  (!wall, outcomes)

let steps (r : Executor.result) =
  Option.value ~default:0 (Metrics.find_int r.Executor.r_metrics "engine.steps")

(* Every pass must do the same, nonzero work: equal engine steps and an
   identical digest of all simulated statistics, job by job. *)
let check_passes (passes : (float * outcome list) list) =
  match passes with
  | [] -> ()
  | (_, first) :: rest ->
      List.iter
        (fun o ->
          if steps o.o_result <= 0 then
            fail o.o_model "pass simulated no engine steps")
        first;
      List.iter
        (fun (_, os) ->
          List.iter
            (fun o ->
              match
                List.find_opt
                  (fun f -> f.o_model = o.o_model && f.o_cfg = o.o_cfg)
                  first
              with
              | None -> ()
              | Some f ->
                  if steps f.o_result <> steps o.o_result then
                    fail o.o_model "engine steps differ across passes"
                  else if f.o_digest <> o.o_digest then
                    fail o.o_model "simulated statistics differ across passes")
            os)
        rest

(* ---- metrics -------------------------------------------------------- *)

let cycles (o : outcome) = o.o_result.Executor.r_cycles

(* The simulated speed-up of a workload, and its error against the
   paper's figure for it. *)
let speedup_and_error workload prepared (outcomes : outcome list) =
  match workload with
  | "seq-all" ->
      let ratios =
        List.filter_map
          (fun (o : outcome) ->
            if o.o_cfg <> Seq_ooo4 then None
            else
              List.find_opt
                (fun (i : outcome) -> i.o_model = o.o_model && i.o_cfg = Seq_io2)
                outcomes
              |> Option.map (fun i ->
                     float_of_int (cycles i) /. float_of_int (cycles o)))
          outcomes
      in
      let g = geomean ratios in
      (g, err_x g paper_ooo4_seq_speedup)
  | _ ->
      let rows =
        List.map
          (fun o ->
            let p = List.assoc o.o_model prepared in
            ( float_of_int p.p_baseline /. float_of_int (cycles o),
              p.p_model.Workload.paper.Workload.p_speedup ))
          outcomes
      in
      let g = geomean (List.map fst rows) in
      if workload = "conv-int" then (g, err_x g paper_conventional_cint)
      else (g, geomean (List.map (fun (s, p) -> err_x s p) rows))

let metric v unit = Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]

(* Host rates are the median over passes of each pass's simulated work
   over its host seconds inside the simulate calls. *)
let end_to_end ~workload ~setup_s ~prepared ~passes =
  let rate work =
    median
      (List.map
         (fun (_, os) ->
           let sim_s = List.fold_left (fun a o -> a +. o.o_sim_s) 0.0 os in
           float_of_int (List.fold_left (fun a o -> a + work o) 0 os) /. sim_s)
         passes)
  in
  let first = match passes with (_, os) :: _ -> os | [] -> [] in
  let speedup, error = speedup_and_error workload prepared first in
  [
    ("setup_s", metric setup_s "s");
    ("wall_s", metric (median (List.map fst passes)) "s");
    ("sim_cycles_per_s", metric (rate cycles) "cycles/s");
    ( "sim_instrs_per_s",
      metric (rate (fun o -> o.o_result.Executor.r_retired)) "instrs/s" );
    ("peak_rss_mb", metric (peak_rss_mb ()) "MB");
    ( "sim_cycles",
      metric (float_of_int (List.fold_left (fun a o -> a + cycles o) 0 first)) "cycles" );
    ("sim_speedup", metric speedup "x");
    ("paper_err_x", metric error "x");
  ]

(* Per-layer metrics of a traced run: the set-up's total plus the median
   over traced passes of each pass's total.  Counts are one pass's, summed
   over its models. *)
let per_layer ~(traced : (int * outcome list) list) ~attempted_runs =
  let all = !spans in
  let total f =
    let in_pass k =
      List.fold_left (fun a sp -> if sp.sp_pass = k then a +. f sp else a) 0.0 all
    in
    let per_pass = List.map (fun (k, _) -> in_pass k) traced in
    in_pass 0 +. if per_pass = [] then 0.0 else median per_pass
  in
  let is l c sp = sp.sp_layer = l && sp.sp_call = c in
  let seq = is "machine" "run_sequential" in
  (* the timed simulate calls: Executor.run, or the one-core Executor.run
     behind Helix.run_sequential on seq-all *)
  let timed_sim sp = sp.sp_pass > 0 && (sp.sp_layer = "executor" || seq sp) in
  let sum_over p f = total (fun sp -> if p sp then f sp else 0.0) in
  let seconds p = sum_over p dur in
  let work p = sum_over p (fun sp -> float_of_int sp.sp_work) in
  let words p = sum_over p (fun sp -> sp.sp_words) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let counters =
    match traced with
    | (_, os) :: _ -> sum_counters (List.map (fun o -> o.o_result.Executor.r_metrics) os)
    | [] -> Hashtbl.create 0
  in
  let count n = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counters n)) in
  let cnt n = (n, metric (count n) "count") in
  let buckets =
    [ "busy"; "communication"; "dependence-waiting"; "idle"; "memory";
      "pipeline"; "wait/signal" ]
  in
  let exec_s = seconds timed_sim in
  let sim_cycles = work timed_sim in
  let models =
    List.sort_uniq compare
      (List.concat_map
         (fun w -> List.map (fun ((m : Workload.t), _) -> m.Workload.name) (jobs_of w))
         workload_names)
  in
  let gcs f = sum_over (is "bench" "pass") (fun sp -> float_of_int (f sp)) in
  [
    ("workloads.build_s", metric (seconds (is "workloads" "build")) "s");
    ("workloads.init_s", metric (seconds (is "workloads" "init")) "s");
    ("hcc.compile_s", metric (seconds (is "hcc" "compile")) "s");
    ("ir.golden_s", metric (seconds (is "ir" "golden_run")) "s");
    ( "ir.golden_ns_per_instr",
      let golden = is "ir" "golden_run" in
      metric (ratio (seconds golden *. 1e9) (work golden)) "ns" );
    ("machine.seq_s", metric (seconds seq) "s");
    ("machine.seq_ns_per_cycle", metric (ratio (seconds seq *. 1e9) (work seq)) "ns");
    ("machine.seq_words_per_cycle", metric (ratio (words seq) (work seq)) "words");
  ]
  @ List.map
      (fun m ->
        ( metric_name ("machine.seq_s." ^ m),
          metric (seconds (fun sp -> seq sp && sp.sp_model = m)) "s" ))
      models
  @ [
      ("executor.run_s", metric exec_s "s");
      ("executor.ns_per_cycle", metric (ratio (exec_s *. 1e9) sim_cycles) "ns");
      ("executor.words_per_cycle", metric (ratio (words timed_sim) sim_cycles) "words");
    ]
  @ List.map
      (fun m ->
        ( metric_name ("executor.run_s." ^ m),
          metric (seconds (fun sp -> timed_sim sp && sp.sp_model = m)) "s" ))
      models
  @ [
      ("engine.ns_per_step", metric (ratio (exec_s *. 1e9) (count "engine.steps")) "ns");
      cnt "engine.steps";
      cnt "engine.skipped_cycles";
      ( "engine.skip_ratio",
        metric
          (ratio (count "engine.skipped_cycles" +. count "engine.batched_cycles")
             (count "exec.cycles"))
          "ratio" );
      cnt "engine.batched_cycles";
      cnt "engine.heap_pushes";
      cnt "ring.injected";
      cnt "ring.forwarded";
      cnt "ring.blocked_injections";
      ( "ring.hit_rate",
        metric
          (ratio (count "ring.hits") (count "ring.hits" +. count "ring.misses"))
          "ratio" );
      cnt "ring.retransmits";
      cnt "ring.faults_injected";
      cnt "ring.drops_detected";
      cnt "exec.invocations";
      ("exec.serial_cycles", metric (count "exec.serial_cycles") "cycles");
      ("exec.parallel_cycles", metric (count "exec.parallel_cycles") "cycles");
      cnt "exec.fallbacks";
      cnt "exec.violations";
      cnt "hier.l2_accesses";
      cnt "hier.c2c_transfers";
      cnt "cores.retired";
      ( "cores.ipc",
        metric (ratio (count "cores.retired") (count "cores.cycles")) "instrs/cycle" );
    ]
  @ List.map
      (fun b ->
        let n = metric_name ("cores.bucket." ^ b) in
        (n, metric (count n) "cycles"))
      buckets
  @ [
      ("verify.s", metric (seconds (is "verify" "verify")) "s");
      ("gc.minor_collections", metric (gcs (fun sp -> sp.sp_minor)) "count");
      ("gc.major_collections", metric (gcs (fun sp -> sp.sp_major)) "count");
      ( "failed_ratio",
        metric (ratio (float_of_int !failed) (float_of_int attempted_runs)) "ratio" );
    ]

(* ---- running --------------------------------------------------------- *)

(* Set-ups per run: a fixed count, because the peak memory grows with it. *)
let setup_count = 3
let min_passes = 2

(* A traced run makes at least two untraced and two traced passes; the
   ratio of their medians is the tracing overhead. *)
let min_traced_passes = 4

let shuffle seed xs =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Executor reads HELIX_INTERPRET_AHEAD the same way but does not export
   the result. *)
let interpret_ahead () =
  match Sys.getenv_opt "HELIX_INTERPRET_AHEAD" with
  | Some ("0" | "off" | "false") -> false
  | _ -> true

let conditions ~workload ~seed ~fault_seed =
  Json.Obj
    [
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ( "engine",
        Json.String (Helix_engine.Engine.kind_to_string Executor.default_engine) );
      ("interpret_ahead", Json.Bool (interpret_ahead ()));
      ("pool_jobs", Json.Int (Exp_common.Pool.jobs ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ( "fault_plan",
        Json.String
          (if workload = "checked-faulty" then
             Ring.fault_plan_to_string (fault_plan fault_seed)
           else "none") );
    ]

(* Timed passes until [seconds] would be exceeded by one more, and at
   least [min_passes]; [on_pass k] runs before pass k. *)
let timed_passes ?(on_pass = fun _ -> ()) ?(min_passes = min_passes) ~fault_seed
    ~seconds prepared jobs =
  let t0 = now () in
  let rec loop k acc =
    let elapsed = now () -. t0 in
    let per_pass = if k = 1 then 0.0 else elapsed /. float_of_int (k - 1) in
    if k > min_passes && elapsed +. per_pass > seconds then List.rev acc
    else begin
      on_pass k;
      let p = pass fault_seed prepared jobs in
      loop (k + 1) ((k, p) :: acc)
    end
  in
  loop 1 []

let per_model_detail (passes : (float * outcome list) list) =
  let first = match passes with (_, os) :: _ -> os | [] -> [] in
  Json.List
    (List.map
       (fun o ->
         let secs =
           List.filter_map
             (fun (_, os) ->
               List.find_opt (fun x -> x.o_model = o.o_model && x.o_cfg = o.o_cfg) os
               |> Option.map (fun x -> x.o_sim_s))
             passes
         in
         Json.Obj
           [
             ("model", Json.String o.o_model);
             ("config", Json.String (cfg_name o.o_cfg));
             ("cycles", Json.Int (cycles o));
             ("steps", Json.Int (steps o.o_result));
             ("median_s", Json.Float (median secs));
           ])
       first)

let result_line ~correct ~metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int !attempted);
         ("failed", Json.Int !failed);
         ("metrics", Json.Obj metrics);
       ])

let well_formed metrics =
  List.for_all
    (fun (n, v) ->
      valid_name n
      && match Json.member "value" v with
         | Some (Json.Float f) -> Float.is_finite f
         | _ -> false)
    metrics

let run ~workload ~seed ~fault_seed ~seconds ~trace =
  Exp_common.Pool.set_jobs 1;
  let jobs = shuffle seed (jobs_of workload) in
  let detail = ref [ ("conditions", conditions ~workload ~seed ~fault_seed) ] in
  let metrics =
    if not trace then begin
      let last = ref None in
      let setups =
        List.init setup_count (fun _ ->
            (* only the latest set-up stays live, and each starts from a
               compacted heap *)
            last := None;
            Gc.compact ();
            let t0 = now () in
            last := Some (setup jobs);
            now () -. t0)
      in
      let setup_s = median setups in
      let prepared = Option.get !last in
      Gc.compact ();
      let passes = List.map snd (timed_passes ~fault_seed ~seconds prepared jobs) in
      check_passes passes;
      let walls = List.map fst passes in
      detail :=
        !detail
        @ [
            ("setup_s_samples", Json.List (List.map (fun t -> Json.Float t) setups));
            ("wall_s_samples", Json.List (List.map (fun t -> Json.Float t) walls));
            ("wall_s_passes", Json.Int (List.length walls));
            ( "wall_s_high_percentile",
              match high_percentile walls with
              | None -> Json.Null
              | Some (p, v) -> Json.Obj [ ("p", Json.Float p); ("s", Json.Float v) ] );
            ("models", per_model_detail passes);
          ];
      end_to_end ~workload ~setup_s ~prepared ~passes
    end
    else begin
      tracing := true;
      current_pass := 0;
      let prepared = setup jobs in
      Gc.compact ();
      (* passes go untraced, traced, traced, untraced, ... so that a drift
         in host speed cancels out of the tracing overhead *)
      let is_traced k = k mod 4 = 2 || k mod 4 = 3 in
      let passes =
        timed_passes ~fault_seed ~seconds prepared jobs ~min_passes:min_traced_passes
          ~on_pass:(fun k ->
            tracing := is_traced k;
            current_pass := k)
      in
      tracing := false;
      check_passes (List.map snd passes);
      let traced, untraced = List.partition (fun (k, _) -> is_traced k) passes in
      let wall ps = median (List.map (fun (_, (w, _)) -> w) ps) in
      let dir = Filename.concat "perfbench" "_out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let file = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
      let oc = open_out file in
      output_string oc (Json.to_string (chrome_trace !spans));
      close_out oc;
      let layers = List.sort_uniq compare (List.map (fun sp -> sp.sp_layer) !spans) in
      let self_s l =
        List.fold_left
          (fun a sp -> if sp.sp_layer = l then a +. self_time !spans sp else a)
          0.0 !spans
      in
      detail :=
        !detail
        @ [
            ("trace_file", Json.String file);
            ("tracing_overhead", Json.Float ((wall traced /. wall untraced) -. 1.0));
            ("untraced_wall_s", Json.Float (wall untraced));
            ("traced_wall_s", Json.Float (wall traced));
            ( "wall_s_samples",
              Json.List (List.map (fun (_, (w, _)) -> Json.Float w) passes) );
            ( "self_s",
              Json.Obj (List.map (fun l -> (l, Json.Float (self_s l))) layers) );
            ("models", per_model_detail (List.map snd passes));
          ];
      per_layer
        ~traced:(List.map (fun (k, (_, os)) -> (k, os)) traced)
        ~attempted_runs:!attempted
    end
  in
  print_endline (Json.to_string (Json.Obj !detail));
  List.iter (fun f -> Printf.printf "failure: %s\n" f) (List.rev !failures);
  let correct = !failed = 0 && well_formed metrics in
  print_endline (result_line ~correct ~metrics)

(* ---- self-test ------------------------------------------------------ *)

let selftest () =
  let ok = ref true in
  let expect what b =
    if not b then begin
      ok := false;
      Printf.printf "selftest FAILED: %s\n" what
    end
  in
  expect "wait/signal mapped"
    (metric_name "cores.bucket.wait/signal" = "cores.bucket.wait-signal");
  expect "allowed names unchanged" (metric_name "ring.hit_rate" = "ring.hit_rate");
  expect "mapped names valid" (valid_name (metric_name "core.0.frac.a b/c"));
  let m1 = Metrics.create () and m2 = Metrics.create () in
  Metrics.set_int m1 "cores.bucket.wait/signal" 3;
  Metrics.set_int m2 "cores.bucket.wait/signal" 4;
  Metrics.set_float m1 "ring.hit_rate" 0.5;
  Metrics.set_hist m1 "ring.dist_hist" [| 1; 2 |];
  let sums = sum_counters [ m1; m2 ] in
  expect "counters summed"
    (Hashtbl.find_opt sums "cores.bucket.wait-signal" = Some 7);
  expect "floats and histograms left out"
    (Hashtbl.length sums = 1);
  (* two passes over the smallest model: equal nonzero work, identical
     digests; a different configuration must change the digest *)
  let gzip = Registry.find "164.gzip" in
  let jobs = [ (gzip, Helix_rc); (gzip, Conventional) ] in
  let prepared = setup jobs in
  let passes = [ pass 1 prepared jobs; pass 1 prepared jobs ] in
  let failed_before = !failed in
  check_passes passes;
  expect "passes agree" (!failed = failed_before);
  (match snd (List.hd passes) with
  | [ a; b ] ->
      expect "work done" (steps a.o_result > 0);
      expect "digest separates configs" (a.o_digest <> b.o_digest)
  | _ -> expect "both runs completed" false);
  (* the per-layer names are well formed and unique *)
  let names =
    List.map fst
      (per_layer
         ~traced:[ (1, snd (List.hd passes)) ]
         ~attempted_runs:1)
  in
  expect "per-layer names valid" (List.for_all valid_name names);
  expect "per-layer names unique"
    (List.length (List.sort_uniq compare names) = List.length names);
  (* what the benchmark prints matches what BENCHMARK.json declares *)
  let declared key =
    let ic = open_in_bin "BENCHMARK.json" in
    let text =
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          really_input_string ic (in_channel_length ic))
    in
    match Json.member key (Json.of_string_exn text) with
    | Some (Json.List xs) ->
        List.filter_map
          (fun x ->
            match (Json.member "name" x, Json.member "unit" x) with
            | Some (Json.String n), Some (Json.String u) -> Some (n, u)
            | _ -> None)
          xs
    | _ -> []
  in
  let printed ms =
    List.map
      (fun (n, v) ->
        (n, match Json.member "unit" v with Some (Json.String u) -> u | _ -> ""))
      ms
  in
  if Sys.file_exists "BENCHMARK.json" then begin
    expect "per_layer matches BENCHMARK.json"
      (declared "per_layer"
      = printed (per_layer ~traced:[ (1, snd (List.hd passes)) ] ~attempted_runs:1));
    expect "end_to_end matches BENCHMARK.json"
      (declared "end_to_end"
      = printed (end_to_end ~workload:"helix-int" ~setup_s:1.0 ~prepared ~passes))
  end;
  print_endline (if !ok then "selftest ok" else "selftest FAILED");
  exit (if !ok then 0 else 1)

(* ---- command line --------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench --workload NAME --seed N --seconds S --trace 0|1 [--fault-seed F]\n\
    \       bench --selftest\n\
     workloads: helix-int conv-int seq-all checked-faulty";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--selftest" ] then selftest ();
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let known = [ "workload"; "seed"; "seconds"; "trace"; "fault-seed" ] in
  if List.exists (fun (k, _) -> not (List.mem k known)) opts then usage ();
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workload_names) then usage ();
  let seed = int "seed" and seconds = int "seconds" in
  let fault_seed =
    if List.mem_assoc "fault-seed" opts then int "fault-seed" else default_fault_seed
  in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 then usage ();
  run ~workload ~seed ~fault_seed ~seconds:(float_of_int seconds) ~trace
