open Helix_ir
open Helix_machine
open Helix_hcc
open Helix_core

(* End-to-end runtime tests: the cycle-stepped executor against the
   reference interpreter, across loop shapes, machine configurations and
   communication modes; protocol fault injection; invariants. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let an ?(flow = -1) ?(path = "") ?(ty = "") ?affine site =
  Ir.annot ~flow ~path ~ty ?affine site

type scenario = {
  prog : unit -> Ir.program * Memory.Layout.t;
  name : string;
}

let mk name build = { name; prog = (fun () ->
    let layout = Memory.Layout.create () in
    let b = Builder.create "main" in
    let ret = build b layout in
    Builder.ret b (Some ret);
    let p = Ir.create_program () in
    Ir.add_func p (Builder.func b);
    (p, layout)) }

(* ---- scenario corpus -------------------------------------------------- *)

(* shared histogram + reduction + affine output *)
let s_hist =
  mk "histogram" (fun b layout ->
      let data = Memory.Layout.alloc layout "data" 512 in
      let hist = Memory.Layout.alloc layout "hist" 16 in
      let out = Memory.Layout.alloc layout "out" 512 in
      let an_d = an ~path:"d[]" ~affine:0 data.Memory.Layout.site in
      let an_h = an ~path:"h[]" hist.Memory.Layout.site in
      let an_o = an ~path:"o[]" ~affine:0 out.Memory.Layout.site in
      (* init *)
      let _ =
        Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 400) (fun i ->
            let h = Builder.libcall b Ir.Lc_hash [ Ir.Reg i ] in
            let v = Builder.band b (Ir.Reg h) (Ir.Imm 255) in
            Builder.store b ~offset:(Ir.Reg i) ~an:an_d
              (Ir.Imm data.Memory.Layout.base) (Ir.Reg v))
      in
      let sum = Builder.mov b (Ir.Imm 0) in
      let _ =
        Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 400) (fun i ->
            let d =
              Builder.load b ~offset:(Ir.Reg i) ~an:an_d
                (Ir.Imm data.Memory.Layout.base)
            in
            let k = Builder.band b (Ir.Reg d) (Ir.Imm 15) in
            let slot = Builder.add b (Ir.Imm hist.Memory.Layout.base) (Ir.Reg k) in
            let hv = Builder.load b ~an:an_h (Ir.Reg slot) in
            let hv1 = Builder.add b (Ir.Reg hv) (Ir.Imm 1) in
            Builder.store b ~an:an_h (Ir.Reg slot) (Ir.Reg hv1);
            Builder.store b ~offset:(Ir.Reg i) ~an:an_o
              (Ir.Imm out.Memory.Layout.base) (Ir.Reg d);
            let s = Builder.add b (Ir.Reg sum) (Ir.Reg d) in
            Builder.mov_to b sum (Ir.Reg s))
      in
      Ir.Reg sum)

(* quadratic IV with live-out, plus min/max/product reductions *)
let s_quadratic =
  mk "quadratic" (fun b _layout ->
      let q = Builder.mov b (Ir.Imm 5) in
      let st = Builder.mov b (Ir.Imm 3) in
      let mn = Builder.mov b (Ir.Imm max_int) in
      let mx = Builder.mov b (Ir.Imm min_int) in
      let pr = Builder.mov b (Ir.Imm 1) in
      let _ =
        Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 37) (fun i ->
            let st' = Builder.add b (Ir.Reg st) (Ir.Imm 2) in
            Builder.mov_to b st (Ir.Reg st');
            let q' = Builder.add b (Ir.Reg q) (Ir.Reg st) in
            Builder.mov_to b q (Ir.Reg q');
            let hv = Builder.libcall b Ir.Lc_hash [ Ir.Reg i ] in
            let hv' = Builder.band b (Ir.Reg hv) (Ir.Imm 63) in
            let m1 = Builder.imin b (Ir.Reg mn) (Ir.Reg hv') in
            Builder.mov_to b mn (Ir.Reg m1);
            let m2 = Builder.imax b (Ir.Reg mx) (Ir.Reg hv') in
            Builder.mov_to b mx (Ir.Reg m2);
            let p0 = Builder.band b (Ir.Reg hv') (Ir.Imm 3) in
            let p1 = Builder.add b (Ir.Reg p0) (Ir.Imm 1) in
            let p2 = Builder.mul b (Ir.Reg pr) (Ir.Reg p1) in
            let p3 = Builder.band b (Ir.Reg p2) (Ir.Imm 0xffff) in
            (* masking breaks the pure product idiom; use plain product *)
            ignore p3;
            Builder.mov_to b pr (Ir.Reg p2))
      in
      let t0 = Builder.add b (Ir.Reg q) (Ir.Reg mn) in
      let t1 = Builder.add b (Ir.Reg t0) (Ir.Reg mx) in
      let t2 = Builder.band b (Ir.Reg pr) (Ir.Imm 1023) in
      let t3 = Builder.add b (Ir.Reg t1) (Ir.Reg t2) in
      Ir.Reg t3)

(* conditionally-set last-value variable *)
let s_lastval =
  mk "lastval" (fun b _layout ->
      let seen = Builder.mov b (Ir.Imm (-1)) in
      let _ =
        Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 50) (fun i ->
            let h = Builder.libcall b Ir.Lc_hash [ Ir.Reg i ] in
            let bit = Builder.band b (Ir.Reg h) (Ir.Imm 7) in
            let is0 = Builder.eq b (Ir.Reg bit) (Ir.Imm 0) in
            Builder.if_then b (Ir.Reg is0) (fun () ->
                Builder.mov_to b seen (Ir.Reg i)))
      in
      Ir.Reg seen)

(* data-dependent exit: conditional (gated) parallel loop *)
let s_conditional =
  mk "conditional" (fun b layout ->
      let cell = Memory.Layout.alloc layout "budget" 8 in
      let an_c = an ~path:"budget" cell.Memory.Layout.site in
      Builder.store b ~an:an_c (Ir.Imm cell.Memory.Layout.base) (Ir.Imm 37);
      let spent = Builder.mov b (Ir.Imm 0) in
      let _ =
        Builder.while_loop b
          (fun () -> Builder.lt b (Ir.Reg spent) (Ir.Reg spent) |> fun _ ->
            (* condition on a register chain the compiler cannot count:
               spent < limit where limit derives from a hash *)
            let lim = Builder.libcall b Ir.Lc_hash [ Ir.Reg spent ] in
            let lim7 = Builder.band b (Ir.Reg lim) (Ir.Imm 127) in
            let c = Builder.ne b (Ir.Reg lim7) (Ir.Imm 3) in
            let stop = Builder.gt b (Ir.Reg spent) (Ir.Imm 40) in
            let notstop = Builder.eq b (Ir.Reg stop) (Ir.Imm 0) in
            Builder.band b (Ir.Reg c) (Ir.Reg notstop))
          (fun () ->
            let s = Builder.add b (Ir.Reg spent) (Ir.Imm 1) in
            Builder.mov_to b spent (Ir.Reg s))
      in
      Ir.Reg spent)

(* trip-count edge cases *)
let s_trip n =
  mk (Fmt.str "trip%d" n) (fun b layout ->
      let cell = Memory.Layout.alloc layout "c" 8 in
      let an_c = an ~path:"c" cell.Memory.Layout.site in
      let _ =
        Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm n) (fun i ->
            let v = Builder.load b ~an:an_c (Ir.Imm cell.Memory.Layout.base) in
            let v1 = Builder.add b (Ir.Reg v) (Ir.Reg i) in
            Builder.store b ~an:an_c (Ir.Imm cell.Memory.Layout.base)
              (Ir.Reg v1))
      in
      let v = Builder.load b ~an:an_c (Ir.Imm cell.Memory.Layout.base) in
      Ir.Reg v)

(* downward-counting loop *)
let s_downward =
  mk "downward" (fun b _layout ->
      let i = Builder.fresh b in
      Builder.mov_to b i (Ir.Imm 40);
      let acc = Builder.mov b (Ir.Imm 0) in
      let header = Builder.fresh_label b in
      let body_l = Builder.fresh_label b in
      let exit_l = Builder.fresh_label b in
      Builder.jmp b header;
      Builder.switch_to b header;
      let c = Builder.gt b (Ir.Reg i) (Ir.Imm 0) in
      Builder.br b (Ir.Reg c) body_l exit_l;
      Builder.switch_to b body_l;
      let h = Builder.libcall b Ir.Lc_hash [ Ir.Reg i ] in
      let h7 = Builder.band b (Ir.Reg h) (Ir.Imm 7) in
      let a = Builder.add b (Ir.Reg acc) (Ir.Reg h7) in
      Builder.mov_to b acc (Ir.Reg a);
      let i' = Builder.sub b (Ir.Reg i) (Ir.Imm 1) in
      Builder.mov_to b i (Ir.Reg i');
      Builder.jmp b header;
      Builder.switch_to b exit_l;
      Ir.Reg acc)

let scenarios =
  [ s_hist; s_quadratic; s_lastval; s_conditional; s_trip 0; s_trip 1;
    s_trip 7; s_trip 16; s_trip 33; s_downward ]

(* ---- equivalence harness ----------------------------------------------- *)

let compile_v3 (p, layout) =
  Hcc.compile (Hcc_config.v3 ()) p layout ~train_mem:(Memory.create ())

let run_scenario ?(exec_cfg = Executor.default_config Mach_config.default)
    (s : scenario) =
  let gp, _ = s.prog () in
  let g = Helix.golden_run gp (Memory.create ()) in
  let cp, layout = s.prog () in
  let compiled = Hcc.compile (Hcc_config.v3 ()) cp layout
      ~train_mem:(Memory.create ()) in
  let par = Executor.run ~compiled exec_cfg compiled.Hcc.cp_prog (Memory.create ()) in
  (g, compiled, par)

let equivalence_tests =
  List.map
    (fun s ->
      tc (Fmt.str "parallel == sequential: %s" s.name) (fun () ->
          let g, _, par = run_scenario s in
          let v = Helix.verify g par in
          Alcotest.(check bool) v.Helix.detail true v.Helix.ok))
    scenarios

let comm_mode_tests =
  List.concat_map
    (fun (mode_name, ring, comm) ->
      List.map
        (fun s ->
          tc (Fmt.str "%s mode: %s" mode_name s.name) (fun () ->
              let cfg =
                Executor.default_config ~ring ~comm Mach_config.default
              in
              let g, _, par = run_scenario ~exec_cfg:cfg s in
              let v = Helix.verify g par in
              Alcotest.(check bool) v.Helix.detail true v.Helix.ok))
        [ s_hist; s_quadratic; s_trip 7 ])
    [
      ("conventional", false, Executor.fully_coupled);
      ("sync-only", true,
       { Executor.reg_via_ring = false; mem_via_ring = false;
         sync_via_ring = true });
      ("mem-only", true,
       { Executor.reg_via_ring = false; mem_via_ring = true;
         sync_via_ring = false });
    ]

let machine_tests =
  List.concat_map
    (fun (mname, core) ->
      List.map
        (fun s ->
          tc (Fmt.str "%s: %s" mname s.name) (fun () ->
              let mach = Mach_config.with_core_kind Mach_config.default core in
              let g, _, par =
                run_scenario ~exec_cfg:(Executor.default_config mach) s
              in
              let v = Helix.verify g par in
              Alcotest.(check bool) v.Helix.detail true v.Helix.ok))
        [ s_hist; s_quadratic ])
    [ ("ooo2", Mach_config.ooo2_core); ("ooo4", Mach_config.ooo4_core) ]

let core_count_tests =
  List.map
    (fun n ->
      tc (Fmt.str "histogram on %d cores" n) (fun () ->
          let gp, _ = s_hist.prog () in
          let g = Helix.golden_run gp (Memory.create ()) in
          let cp, layout = s_hist.prog () in
          let compiled =
            Hcc.compile (Hcc_config.v3 ~target_cores:n ()) cp layout
              ~train_mem:(Memory.create ())
          in
          let cfg =
            Executor.default_config (Mach_config.with_cores Mach_config.default n)
          in
          let par =
            Executor.run ~compiled cfg compiled.Hcc.cp_prog (Memory.create ())
          in
          let v = Helix.verify g par in
          Alcotest.(check bool) v.Helix.detail true v.Helix.ok))
    [ 1; 2; 3; 5; 8; 16 ]

(* ---- invariants ----------------------------------------------------------- *)

let invariant_tests =
  [
    tc "speedup: parallel histogram beats sequential" (fun () ->
        let sp, _ = s_hist.prog () in
        let seq = Helix.run_sequential Mach_config.default sp (Memory.create ()) in
        let _, _, par = run_scenario s_hist in
        let su = Helix.speedup ~seq ~par in
        Alcotest.(check bool) (Fmt.str "speedup %.2f > 1.5" su) true
          (su > 1.5));
    tc "one-lap bound: at most 2 outstanding signals" (fun () ->
        List.iter
          (fun s ->
            let _, _, par = run_scenario s in
            Alcotest.(check bool)
              (Fmt.str "%s: max outstanding %d" s.name
                 par.Executor.r_max_outstanding_signals)
              true
              (par.Executor.r_max_outstanding_signals <= 2))
          scenarios);
    tc "overhead fractions bounded" (fun () ->
        let sp, _ = s_hist.prog () in
        let seq = Helix.run_sequential Mach_config.default sp (Memory.create ()) in
        let _, _, par = run_scenario s_hist in
        let ov =
          Overhead.analyze ~n_cores:16 ~seq_retired:seq.Executor.r_retired par
        in
        List.iter
          (fun (nm, v) ->
            Alcotest.(check bool) (nm ^ " in [0,1]") true (v >= 0.0 && v <= 1.0))
          (Overhead.categories ov);
        let total =
          List.fold_left (fun a (_, v) -> a +. v) 0.0 (Overhead.categories ov)
        in
        Alcotest.(check bool) "sum <= 1" true (total <= 1.0 +. 1e-9));
    tc "invocation records match loop activity" (fun () ->
        let _, compiled, par = run_scenario s_hist in
        Alcotest.(check bool) "some invocations" true
          (List.length par.Executor.r_invocations
           >= List.length compiled.Hcc.cp_selected));
  ]

(* ---- fault injection --------------------------------------------------------- *)

(* Remove every Wait from the generated body functions: the oracle must
   catch the resulting protocol violation (stale reads). *)
let strip_waits (compiled : Hcc.compiled) =
  List.iter
    (fun (pl : Parallel_loop.t) ->
      let bf = Ir.find_func compiled.Hcc.cp_prog pl.Parallel_loop.pl_body_fn in
      List.iter
        (fun l ->
          let blk = Ir.block_of_func bf l in
          blk.Ir.b_instrs <-
            List.filter
              (fun ins -> match ins with Ir.Wait _ -> false | _ -> true)
              blk.Ir.b_instrs)
        bf.Ir.f_order)
    (Hcc.selected_loops compiled)

let fault_tests =
  [
    tc "removing waits is caught by the oracle" (fun () ->
        let gp, _ = s_hist.prog () in
        let g = Helix.golden_run gp (Memory.create ()) in
        let cp, layout = s_hist.prog () in
        let compiled = compile_v3 (cp, layout) in
        strip_waits compiled;
        let par =
          Executor.run ~compiled
            (Executor.default_config Mach_config.default)
            compiled.Hcc.cp_prog (Memory.create ())
        in
        Alcotest.(check bool) "protocol violation detected" false
          (Helix.verify g par).Helix.ok);
  ]

(* ---- robustness: oracle, sanitizer, fallback --------------------------- *)

(* Remove every Signal: consumers wait forever, wedging the parallel
   phase (the watchdog-triggered fallback path). *)
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

(* Duplicate every Signal: thresholds are met one iteration early
   (stale reads) and un-consumed signals accumulate past the paper's
   past/future bound of 2. *)
let double_signals (compiled : Hcc.compiled) =
  List.iter
    (fun (pl : Parallel_loop.t) ->
      let bf = Ir.find_func compiled.Hcc.cp_prog pl.Parallel_loop.pl_body_fn in
      List.iter
        (fun l ->
          let blk = Ir.block_of_func bf l in
          blk.Ir.b_instrs <-
            List.concat_map
              (fun ins ->
                match ins with
                | Ir.Signal _ -> [ ins; ins ]
                | _ -> [ ins ])
              blk.Ir.b_instrs)
        bf.Ir.f_order)
    (Hcc.selected_loops compiled)

(* Run a deliberately mutilated compile of [s] under [robust] on [mem]
   and return (golden, result, trace). *)
let run_mutilated ?(watchdog = max_int) ?engine ?(mem = Memory.create ())
    ~robust ~mutate s =
  let tr = Helix_obs.Trace.create () in
  let gp, _ = s.prog () in
  let g = Helix.golden_run gp (Memory.create ()) in
  let cp, layout = s.prog () in
  let compiled = compile_v3 (cp, layout) in
  mutate compiled;
  let cfg =
    {
      (Executor.default_config ~trace:tr ~robust ?engine Mach_config.default)
      with
      Executor.watchdog_cycles = watchdog;
    }
  in
  let par = Executor.run ~compiled cfg compiled.Hcc.cp_prog mem in
  (g, par, tr)

let event_kinds tr =
  List.map (fun e -> e.Helix_obs.Trace.ev_kind) (Helix_obs.Trace.events tr)

let has_violation_kind tr k =
  List.exists
    (fun e ->
      e.Helix_obs.Trace.ev_kind = "violation"
      && List.assoc_opt "vkind" e.Helix_obs.Trace.ev_fields
         = Some (Helix_obs.Json.String k))
    (Helix_obs.Trace.events tr)

let check_incident_visible ~name (par : Executor.result) tr =
  Alcotest.(check bool) (name ^ ": at least one violation recorded") true
    (par.Executor.r_violations >= 1);
  Alcotest.(check bool) (name ^ ": at least one fallback") true
    (par.Executor.r_fallbacks >= 1);
  (match Helix_obs.Metrics.find_int par.Executor.r_metrics "exec.fallbacks" with
  | Some n ->
      Alcotest.(check bool) (name ^ ": exec.fallbacks metric >= 1") true (n >= 1)
  | None -> Alcotest.fail "exec.fallbacks metric missing");
  let kinds = event_kinds tr in
  Alcotest.(check bool) (name ^ ": fallback event traced") true
    (List.mem "fallback" kinds)

let robustness_tests =
  [
    tc "clean scenarios: oracle and sanitizer report zero incidents" (fun () ->
        List.iter
          (fun s ->
            let g, _, par =
              run_scenario
                ~exec_cfg:
                  (Executor.default_config ~robust:Executor.checked
                     Mach_config.default)
                s
            in
            let v = Helix.verify g par in
            Alcotest.(check bool) (s.name ^ ": " ^ v.Helix.detail) true
              v.Helix.ok;
            check Alcotest.int (s.name ^ ": violations") 0
              par.Executor.r_violations;
            check Alcotest.int (s.name ^ ": fallbacks") 0
              par.Executor.r_fallbacks)
          scenarios);
    tc "stripped waits: sanitizer violation degrades to sequential" (fun () ->
        let g, par, tr =
          run_mutilated ~robust:Executor.checked ~mutate:strip_waits s_hist
        in
        let v = Helix.verify g par in
        Alcotest.(check bool) ("fallback repairs the run: " ^ v.Helix.detail)
          true v.Helix.ok;
        check_incident_visible ~name:"stripped waits" par tr;
        Alcotest.(check bool) "violation event traced" true
          (List.mem "violation" (event_kinds tr)));
    tc "stripped signals: wedged invocation degrades to sequential" (fun () ->
        let g, par, tr =
          run_mutilated ~watchdog:20_000 ~robust:Executor.checked
            ~mutate:strip_signals s_hist
        in
        let v = Helix.verify g par in
        Alcotest.(check bool) ("fallback repairs the wedge: " ^ v.Helix.detail)
          true v.Helix.ok;
        Alcotest.(check bool) "at least one fallback" true
          (par.Executor.r_fallbacks >= 1);
        Alcotest.(check bool) "fallback event traced" true
          (List.mem "fallback" (event_kinds tr)));
    tc "doubled signals break the outstanding-signal bound" (fun () ->
        let g, par, tr =
          run_mutilated ~robust:Executor.checked ~mutate:double_signals s_hist
        in
        let v = Helix.verify g par in
        Alcotest.(check bool) ("fallback repairs the run: " ^ v.Helix.detail)
          true v.Helix.ok;
        check_incident_visible ~name:"doubled signals" par tr;
        Alcotest.(check bool) "signal_bound violation traced" true
          (has_violation_kind tr "signal_bound"));
    tc "strict mode raises Stuck Violation" (fun () ->
        let robust =
          { Executor.checked with Executor.strict = true; fallback = false }
        in
        let mem = Memory.create () in
        match run_mutilated ~mem ~robust ~mutate:strip_waits s_hist with
        | exception Executor.Stuck (Executor.Violation, _) ->
            (* raised mid-invocation: the run must not leave the caller's
               memory journaling *)
            Memory.store mem 0 1;
            let journaled = ref 0 in
            Memory.iter_journal mem (fun _ _ -> incr journaled);
            check Alcotest.int "undo journal closed" 0 !journaled
        | exception Executor.Stuck (r, _) ->
            Alcotest.fail
              ("wrong stuck reason: " ^ Executor.stuck_reason_name r)
        | _ -> Alcotest.fail "expected Stuck Violation under --strict");
    tc "timing jitter preserves architectural results" (fun () ->
        List.iter
          (fun s ->
            List.iter
              (fun seed ->
                let cfg =
                  let c =
                    Executor.default_config ~robust:Executor.checked
                      Mach_config.default
                  in
                  {
                    c with
                    Executor.ring_cfg =
                      Option.map
                        (fun rc ->
                          {
                            rc with
                            Helix_ring.Ring.faults =
                              Some (Helix_ring.Ring.faulty ~delay:2 ~seed ());
                          })
                        c.Executor.ring_cfg;
                  }
                in
                let g, _, par = run_scenario ~exec_cfg:cfg s in
                let v = Helix.verify g par in
                Alcotest.(check bool)
                  (Fmt.str "%s seed %d: %s" s.name seed v.Helix.detail)
                  true v.Helix.ok;
                check Alcotest.int
                  (Fmt.str "%s seed %d: no violations" s.name seed)
                  0 par.Executor.r_violations)
              [ 11; 202; 3003 ])
          [ s_hist; s_quadratic; s_conditional ]);
  ]

(* ---- the oracle on its own ---------------------------------------------- *)

(* With the sanitizer off, stripped waits reach the oracle, whose shadow
   compare is then the only check that sees the stale reads. *)
let oracle_only = { Executor.no_robustness with Executor.check_oracle = true }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let oracle_tests =
  [
    tc "oracle mismatch under fallback adopts the shadow image" (fun () ->
        let g, par, tr =
          run_mutilated
            ~robust:{ oracle_only with Executor.fallback = true }
            ~mutate:strip_waits s_hist
        in
        check Alcotest.int "violations" 1 par.Executor.r_violations;
        check Alcotest.int "fallbacks" 1 par.Executor.r_fallbacks;
        Alcotest.(check bool) "oracle violation traced" true
          (has_violation_kind tr "oracle");
        let v = Helix.verify g par in
        Alcotest.(check bool) ("shadow image adopted: " ^ v.Helix.detail) true
          v.Helix.ok);
    tc "oracle mismatch under strict raises Stuck Violation" (fun () ->
        match
          run_mutilated
            ~robust:{ oracle_only with Executor.strict = true }
            ~mutate:strip_waits s_hist
        with
        | exception Executor.Stuck (Executor.Violation, msg) ->
            Alcotest.(check bool) ("names the image: " ^ msg) true
              (contains msg "final memory image differs")
        | exception Executor.Stuck (r, _) ->
            Alcotest.fail
              ("wrong stuck reason: " ^ Executor.stuck_reason_name r)
        | _ -> Alcotest.fail "expected Stuck Violation under strict");
    tc "oracle mismatch alone keeps the parallel image" (fun () ->
        let g, par, _ =
          run_mutilated ~robust:oracle_only ~mutate:strip_waits s_hist
        in
        check Alcotest.int "violations" 1 par.Executor.r_violations;
        check Alcotest.int "fallbacks" 0 par.Executor.r_fallbacks;
        Alcotest.(check bool) "parallel image kept, so verify fails" false
          (Helix.verify g par).Helix.ok);
  ]

(* ---- robustness under the event engine ---------------------------------- *)

(* The fallback machinery was written against the legacy cycle-stepped
   loop; these pin it under the event engine specifically (watchdog
   wedges and sanitizer rollbacks must survive idle-cycle skipping) and
   assert engine parity. *)
let engine_fallback_tests =
  [
    tc "stripped waits: sanitizer fallback repairs under the event engine"
      (fun () ->
        let g, par, tr =
          run_mutilated ~engine:Helix_engine.Engine.Event
            ~robust:Executor.checked ~mutate:strip_waits s_hist
        in
        let v = Helix.verify g par in
        Alcotest.(check bool) ("repaired: " ^ v.Helix.detail) true v.Helix.ok;
        check_incident_visible ~name:"event stripped waits" par tr);
    tc "stripped signals: watchdog wedge falls back under the event engine"
      (fun () ->
        let g, par, tr =
          run_mutilated ~watchdog:20_000 ~engine:Helix_engine.Engine.Event
            ~robust:Executor.checked ~mutate:strip_signals s_hist
        in
        let v = Helix.verify g par in
        Alcotest.(check bool) ("repaired: " ^ v.Helix.detail) true v.Helix.ok;
        Alcotest.(check bool) "at least one fallback" true
          (par.Executor.r_fallbacks >= 1);
        Alcotest.(check bool) "fallback event traced" true
          (List.mem "fallback" (event_kinds tr)));
    tc "fallback runs are bit-identical across both engines" (fun () ->
        let runs =
          List.map
            (fun engine ->
              let _, par, _ =
                run_mutilated ~engine ~robust:Executor.checked
                  ~mutate:strip_waits s_hist
              in
              (par.Executor.r_cycles, par.Executor.r_retired,
               par.Executor.r_fallbacks))
            Helix_engine.Engine.all
        in
        match runs with
        | x :: rest ->
            List.iter
              (fun y ->
                Alcotest.(check bool) "engine parity on the fallback path"
                  true (x = y))
              rest
        | [] -> assert false);
  ]

(* ---- lossy-ring faults and fail-stop recovery --------------------------- *)

let all_engines = Helix_engine.Engine.all

(* Run scenario [s] with fault plan [plan] wired into the ring config. *)
let run_faulty ?(robust = Executor.no_robustness) ?engine
    ?(watchdog = 200_000) ~plan s =
  let tr = Helix_obs.Trace.create () in
  let gp, _ = s.prog () in
  let g = Helix.golden_run gp (Memory.create ()) in
  let cp, layout = s.prog () in
  let compiled = compile_v3 (cp, layout) in
  let cfg =
    let c =
      Executor.default_config ~trace:tr ~robust ?engine Mach_config.default
    in
    {
      c with
      Executor.watchdog_cycles = watchdog;
      ring_cfg =
        Option.map
          (fun rc -> { rc with Helix_ring.Ring.faults = Some plan })
          c.Executor.ring_cfg;
    }
  in
  let par =
    Executor.run ~compiled cfg compiled.Hcc.cp_prog (Memory.create ())
  in
  (g, par, tr)

let metric par k =
  Option.value ~default:0
    (Helix_obs.Metrics.find_int par.Executor.r_metrics k)

(* A cycle guaranteed to be inside a parallel invocation, from a clean
   traced run: just after the first loop_enter. *)
let mid_invocation_cycle s =
  let _, _, tr = run_faulty ~plan:(Helix_ring.Ring.faulty ~seed:0 ()) s in
  let enter =
    List.find
      (fun e -> e.Helix_obs.Trace.ev_kind = "loop_enter")
      (Helix_obs.Trace.events tr)
  in
  enter.Helix_obs.Trace.ev_cycle + 40

let fault_recovery_tests =
  [
    tc "message faults recover in-protocol: no fallback, correct result"
      (fun () ->
        List.iter
          (fun engine ->
            let plan =
              Helix_ring.Ring.faulty ~drop:60 ~dup:40 ~reorder:40 ~corrupt:40
                ~seed:71 ()
            in
            let g, par, _ =
              run_faulty ~robust:Executor.checked ~engine ~plan s_hist
            in
            let v = Helix.verify g par in
            Alcotest.(check bool) ("verified: " ^ v.Helix.detail) true
              v.Helix.ok;
            check Alcotest.int "no violations" 0 par.Executor.r_violations;
            check Alcotest.int "no fallbacks" 0 par.Executor.r_fallbacks;
            Alcotest.(check bool) "faults actually injected" true
              (metric par "ring.faults_injected" > 0);
            Alcotest.(check bool) "retransmissions happened" true
              (metric par "ring.retransmits" > 0))
          all_engines);
    tc "the same fault schedule is bit-identical on every engine" (fun () ->
        let plan =
          Helix_ring.Ring.faulty ~drop:50 ~dup:30 ~reorder:30 ~corrupt:30
            ~seed:5 ()
        in
        let runs =
          List.map
            (fun engine ->
              let _, par, _ = run_faulty ~engine ~plan s_hist in
              (par.Executor.r_cycles, par.Executor.r_retired,
               metric par "ring.faults_injected",
               metric par "ring.retransmits"))
            all_engines
        in
        match runs with
        | x :: rest ->
            List.iter
              (fun y ->
                Alcotest.(check bool) "faulty-run engine parity" true (x = y))
              rest
        | [] -> assert false);
    tc "a zero-rate plan changes nothing: same cycles as no plan at all"
      (fun () ->
        let _, _, base = run_scenario s_hist in
        let _, par, _ =
          run_faulty ~plan:(Helix_ring.Ring.faulty ~seed:123 ()) s_hist
        in
        check Alcotest.int "same cycle count" base.Executor.r_cycles
          par.Executor.r_cycles;
        check Alcotest.int "no faults" 0 (metric par "ring.faults_injected");
        check Alcotest.int "no retransmits" 0 (metric par "ring.retransmits"));
    tc "serial-phase fail-stop: survivors adopt the lanes, no fallback"
      (fun () ->
        (* no robustness machinery at all: correctness must come from the
           reknit itself (lane adoption keeps the compiled [iter mod n]
           privatization slots single-owner) *)
        List.iter
          (fun engine ->
            let plan =
              Helix_ring.Ring.faulty ~fail_stop:(3, 2) ~seed:1 ()
            in
            let g, par, tr = run_faulty ~engine ~plan s_hist in
            let v = Helix.verify g par in
            Alcotest.(check bool)
              ("verified over 15 survivors: " ^ v.Helix.detail)
              true v.Helix.ok;
            check Alcotest.int "no fallbacks" 0 par.Executor.r_fallbacks;
            check Alcotest.int "one reknit" 1 (metric par "ring.reknits");
            check Alcotest.int "one dead core" 1 (metric par "exec.dead_cores");
            Alcotest.(check bool) "reknit event traced" true
              (List.mem "reknit" (event_kinds tr)))
          all_engines);
    tc "serial-phase fail-stop verifies on every scenario" (fun () ->
        List.iter
          (fun s ->
            let plan =
              Helix_ring.Ring.faulty ~fail_stop:(5, 2) ~seed:2 ()
            in
            let g, par, _ = run_faulty ~plan s in
            let v = Helix.verify g par in
            Alcotest.(check bool) (s.name ^ ": " ^ v.Helix.detail) true
              v.Helix.ok;
            check Alcotest.int (s.name ^ ": no fallbacks") 0
              par.Executor.r_fallbacks)
          scenarios);
    tc "mid-invocation fail-stop rolls back to the checkpoint" (fun () ->
        let at = mid_invocation_cycle s_hist in
        let plan = Helix_ring.Ring.faulty ~fail_stop:(2, at) ~seed:3 () in
        let g, par, tr =
          run_faulty ~robust:Executor.checked ~plan s_hist
        in
        let v = Helix.verify g par in
        Alcotest.(check bool) ("verified: " ^ v.Helix.detail) true v.Helix.ok;
        Alcotest.(check bool) "fell back at least once" true
          (par.Executor.r_fallbacks >= 1);
        check Alcotest.int "one reknit" 1 (metric par "ring.reknits");
        Alcotest.(check bool) "fail_stop fallback traced" true
          (List.exists
             (fun e ->
               e.Helix_obs.Trace.ev_kind = "fallback"
               && List.assoc_opt "reason" e.Helix_obs.Trace.ev_fields
                  = Some (Helix_obs.Json.String "fail_stop"))
             (Helix_obs.Trace.events tr)));
    tc "mid-invocation fail-stop without fallback is Stuck Faulted" (fun () ->
        let at = mid_invocation_cycle s_hist in
        let plan = Helix_ring.Ring.faulty ~fail_stop:(2, at) ~seed:4 () in
        match run_faulty ~plan s_hist with
        | exception Executor.Stuck (Executor.Faulted, report) ->
            Alcotest.(check bool) "report names the dead core" true
              (String.length report > 0)
        | _ -> Alcotest.fail "expected Stuck Faulted without a checkpoint");
    tc "core 0 fail-stop is always fatal" (fun () ->
        let plan = Helix_ring.Ring.faulty ~fail_stop:(0, 2) ~seed:5 () in
        match run_faulty ~robust:Executor.checked ~plan s_hist with
        | exception Executor.Stuck (Executor.Faulted, _) -> ()
        | exception Executor.Stuck (r, _) ->
            Alcotest.fail
              ("wrong stuck reason: " ^ Executor.stuck_reason_name r)
        | _ -> Alcotest.fail "expected Stuck Faulted for core 0");
  ]

(* ---- dependence sanitizer unit tests ------------------------------------ *)

let depcheck_tests =
  let open Depcheck in
  [
    tc "unguarded cross-core write/write conflicts" (fun () ->
        let d = create () in
        record d ~core:0 ~iter:0 ~seg:None ~addr:100 ~write:true;
        record d ~core:1 ~iter:1 ~seg:None ~addr:100 ~write:true;
        Alcotest.(check bool) "flagged" true (violations d >= 1);
        match sample_violations d with
        | v :: _ ->
            check Alcotest.int "address" 100 v.v_addr;
            Alcotest.(check bool) "describes itself" true
              (String.length (describe_violation v) > 0)
        | [] -> Alcotest.fail "no sample recorded");
    tc "same-segment cross-core accesses are ordered" (fun () ->
        let d = create () in
        record d ~core:0 ~iter:0 ~seg:(Some 3) ~addr:100 ~write:true;
        record d ~core:1 ~iter:1 ~seg:(Some 3) ~addr:100 ~write:true;
        check Alcotest.int "no violation" 0 (violations d));
    tc "different segments on different cores conflict" (fun () ->
        let d = create () in
        record d ~core:0 ~iter:0 ~seg:(Some 3) ~addr:100 ~write:true;
        record d ~core:1 ~iter:1 ~seg:(Some 4) ~addr:100 ~write:true;
        Alcotest.(check bool) "flagged" true (violations d >= 1));
    tc "read/read never conflicts" (fun () ->
        let d = create () in
        record d ~core:0 ~iter:0 ~seg:None ~addr:100 ~write:false;
        record d ~core:1 ~iter:1 ~seg:None ~addr:100 ~write:false;
        check Alcotest.int "no violation" 0 (violations d));
    tc "same-core accesses are ordered by program order" (fun () ->
        let d = create () in
        record d ~core:2 ~iter:0 ~seg:None ~addr:100 ~write:true;
        record d ~core:2 ~iter:1 ~seg:(Some 1) ~addr:100 ~write:true;
        check Alcotest.int "no violation" 0 (violations d));
    tc "unguarded read against a remote write conflicts" (fun () ->
        let d = create () in
        record d ~core:0 ~iter:0 ~seg:(Some 3) ~addr:64 ~write:true;
        record d ~core:5 ~iter:2 ~seg:None ~addr:64 ~write:false;
        Alcotest.(check bool) "flagged" true (violations d >= 1));
    tc "reset clears violations and accesses" (fun () ->
        let d = create () in
        record d ~core:0 ~iter:0 ~seg:None ~addr:100 ~write:true;
        record d ~core:1 ~iter:1 ~seg:None ~addr:100 ~write:true;
        reset d;
        check Alcotest.int "cleared" 0 (violations d);
        record d ~core:1 ~iter:1 ~seg:None ~addr:100 ~write:true;
        check Alcotest.int "fresh epoch, single access" 0 (violations d));
  ]

(* ---- context engine --------------------------------------------------------- *)

(* The eager context must agree with the interpreter on private-only
   programs: pull every uop and compare the final return value. *)
let drain_context prog =
  let mem = Memory.create () in
  let ctx = Context.create prog mem ~core_id:0 in
  Context.start ctx prog.Ir.p_main [];
  let steps = ref 0 in
  let rec go () =
    incr steps;
    if !steps > 2_000_000 then Alcotest.fail "context did not terminate";
    match Context.next_uop ctx with
    | Some _ -> go ()
    | None -> (
        match Context.status ctx with
        | Context.Finished rv -> (rv, mem)
        | _ -> Alcotest.fail "context stuck")
  in
  go ()

let context_tests =
  [
    tc "context matches interpreter on scenarios" (fun () ->
        List.iter
          (fun s ->
            let p1, _ = s.prog () in
            let g = Helix.golden_run p1 (Memory.create ()) in
            let p2, _ = s.prog () in
            let rv, mem = drain_context p2 in
            check
              Alcotest.(option int)
              (s.name ^ " return") g.Helix.g_ret rv;
            Alcotest.(check bool) (s.name ^ " memory") true
              (Memory.equal g.Helix.g_mem mem))
          scenarios);
    tc "wait_depth counts wait/signal" (fun () ->
        let b = Builder.create "main" in
        Builder.wait b 0;
        Builder.wait b 1;
        Builder.signal b 1;
        Builder.ret b None;
        let p = Ir.create_program () in
        Ir.add_func p (Builder.func b);
        let ctx = Context.create p (Memory.create ()) ~core_id:0 in
        Context.start ctx "main" [];
        (* pull wait 0 *)
        ignore (Context.next_uop ctx);
        check Alcotest.int "depth 1" 1 (Context.wait_depth ctx);
        ignore (Context.next_uop ctx);
        check Alcotest.int "depth 2" 2 (Context.wait_depth ctx);
        ignore (Context.next_uop ctx);
        check Alcotest.int "depth 1 again" 1 (Context.wait_depth ctx));
  ]

(* ---- wait protocol: threshold loop and conventional signal log -------- *)

(* The list-building threshold formula the wait loop replaced, kept here
   as the reference: one (origin, threshold) per live origin, ascending,
   consumed with [List.for_all]. *)
let reference_thresholds ~n ~alive ~owned ~core ~local_iter =
  let lanes = owned.(core) in
  let m = List.length lanes in
  let g = (n * (local_iter / m)) + List.nth lanes (local_iter mod m) in
  List.init n (fun c' ->
      if c' = core || not alive.(c') then None
      else
        let q = g / n and r = g mod n in
        Some
          ( c',
            (List.length owned.(c') * q)
            + List.length (List.filter (fun l -> l < r) owned.(c')) ))
  |> List.filter_map Fun.id

(* A reknit-style layout: kill [deaths] (never all cores), handing each
   dead core's lanes round-robin to the least-loaded survivor, lowest
   id first, as the executor's fail-stop recovery does. *)
let gen_lane_layout =
  QCheck.Gen.(
    int_range 1 16 >>= fun n ->
    list_size (int_bound (n - 1)) (int_bound (n - 1)) >>= fun deaths ->
    let alive = Array.make n true in
    let owned = Array.init n (fun c -> [ c ]) in
    List.iter
      (fun d ->
        if alive.(d) then begin
          alive.(d) <- false;
          List.iter
            (fun lane ->
              let best = ref (-1) in
              Array.iteri
                (fun c l ->
                  if
                    alive.(c)
                    && (!best < 0
                       || List.length l < List.length owned.(!best))
                  then best := c)
                owned;
              owned.(!best) <- List.sort compare (lane :: owned.(!best)))
            owned.(d);
          owned.(d) <- []
        end)
      deaths;
    let live = List.filter (fun c -> alive.(c)) (List.init n Fun.id) in
    oneofl live >>= fun core ->
    int_bound 300 >>= fun local_iter ->
    int >>= fun salt -> return (n, alive, owned, core, local_iter, salt))

let prop_wait_loop_matches_reference =
  QCheck.Test.make ~name:"wait loop: same calls and result as the list formula"
    ~count:2000
    (QCheck.make gen_lane_layout)
    (fun (n, alive, owned, core, local_iter, salt) ->
      (* a recording predicate whose answers depend on the call *)
      let answer o th = Hashtbl.hash (salt, o, th) mod 5 <> 0 in
      let calls = ref [] in
      let got =
        Executor.wait_satisfied ~n ~alive ~owned ~core ~seg:3 ~cycle:77
          ~local_iter
          (fun () ~core:c ~seg ~cycle o th ->
            assert (c = core && seg = 3 && cycle = 77);
            calls := (o, th) :: !calls;
            answer o th)
          ()
      in
      let ref_calls = ref [] in
      let want =
        List.for_all
          (fun (o, th) ->
            ref_calls := (o, th) :: !ref_calls;
            answer o th)
          (reference_thresholds ~n ~alive ~owned ~core ~local_iter)
      in
      got = want && !calls = !ref_calls)

(* Two loops updating one shared histogram: two parallel invocations
   whose sequential segments share segment ids, so signals left over
   from the first would satisfy the second's waits early. *)
let s_two_hists =
  mk "two histograms" (fun b layout ->
      let hist = Memory.Layout.alloc layout "hist" 16 in
      let an_h = an ~path:"h[]" hist.Memory.Layout.site in
      let pass salt =
        ignore
          (Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 200)
             (fun i ->
               let x = Builder.add b (Ir.Reg i) (Ir.Imm salt) in
               let h = Builder.libcall b Ir.Lc_hash [ Ir.Reg x ] in
               let k = Builder.band b (Ir.Reg h) (Ir.Imm 15) in
               let slot =
                 Builder.add b (Ir.Imm hist.Memory.Layout.base) (Ir.Reg k)
               in
               let hv = Builder.load b ~an:an_h (Ir.Reg slot) in
               let hv1 = Builder.add b (Ir.Reg hv) (Ir.Imm 1) in
               Builder.store b ~an:an_h (Ir.Reg slot) (Ir.Reg hv1)))
      in
      pass 0;
      pass 1000;
      let v = Builder.load b ~an:an_h (Ir.Imm hist.Memory.Layout.base) in
      Ir.Reg v)

let conventional_cfg ?(robust = Executor.no_robustness) () =
  Executor.default_config ~ring:false ~comm:Executor.fully_coupled ~robust
    Mach_config.default

let wait_protocol_tests =
  [
    QCheck_alcotest.to_alcotest prop_wait_loop_matches_reference;
    tc "signal log grows and answers the nth-oldest store cycle" (fun () ->
        let log = Signal_log.create ~origins:4 in
        let cycle k = (3 * k) + (k mod 5) in
        for k = 1 to 1000 do
          Signal_log.record log ~seg:2 ~origin:3 ~cycle:(cycle k)
        done;
        Signal_log.record log ~seg:0 ~origin:1 ~cycle:5;
        check Alcotest.int "count" 1000 (Signal_log.count log ~seg:2 ~origin:3);
        for k = 1 to 1000 do
          check Alcotest.int (Fmt.str "nth %d" k) (cycle k)
            (Signal_log.nth log ~seg:2 ~origin:3 k)
        done;
        check Alcotest.int "other pair" 1 (Signal_log.count log ~seg:0 ~origin:1);
        check Alcotest.int "untouched pair" 0
          (Signal_log.count log ~seg:7 ~origin:2);
        Alcotest.check_raises "past the count"
          (Invalid_argument "Signal_log.nth") (fun () ->
            ignore (Signal_log.nth log ~seg:2 ~origin:3 1001));
        Alcotest.check_raises "origin out of range"
          (Invalid_argument "Signal_log: origin out of range") (fun () ->
            Signal_log.record log ~seg:0 ~origin:4 ~cycle:0);
        Signal_log.reset log;
        check Alcotest.int "reset count" 0 (Signal_log.count log ~seg:2 ~origin:3);
        check Alcotest.int "reset other" 0 (Signal_log.count log ~seg:0 ~origin:1);
        Signal_log.record log ~seg:2 ~origin:3 ~cycle:9;
        check Alcotest.int "restarts at 1" 1
          (Signal_log.count log ~seg:2 ~origin:3);
        check Alcotest.int "oldest is the new one" 9
          (Signal_log.nth log ~seg:2 ~origin:3 1));
    tc "conventional mode: each invocation starts from an empty log"
      (fun () ->
        let g, _, par =
          run_scenario
            ~exec_cfg:(conventional_cfg ~robust:Executor.checked ())
            s_two_hists
        in
        let v = Helix.verify g par in
        Alcotest.(check bool) v.Helix.detail true v.Helix.ok;
        Alcotest.(check bool) "two parallel invocations" true
          (List.length par.Executor.r_invocations >= 2);
        check Alcotest.int "violations" 0 par.Executor.r_violations;
        check Alcotest.int "fallbacks" 0 par.Executor.r_fallbacks);
    tc "conventional mode: fallback repairs doubled signals"
      (fun () ->
        let tr = Helix_obs.Trace.create () in
        let gp, _ = s_two_hists.prog () in
        let g = Helix.golden_run gp (Memory.create ()) in
        let compiled = compile_v3 (s_two_hists.prog ()) in
        double_signals compiled;
        let cfg =
          { (conventional_cfg ~robust:Executor.checked ()) with
            Executor.trace = Some tr }
        in
        let par =
          Executor.run ~compiled cfg compiled.Hcc.cp_prog (Memory.create ())
        in
        let v = Helix.verify g par in
        Alcotest.(check bool) ("repaired: " ^ v.Helix.detail) true v.Helix.ok;
        check_incident_visible ~name:"conventional doubled signals" par tr);
  ]

let () =
  Alcotest.run ~and_exit:false "runtime"
    [
      ("equivalence", equivalence_tests);
      ("comm-modes", comm_mode_tests);
      ("machines", machine_tests);
      ("core-counts", core_count_tests);
      ("invariants", invariant_tests);
      ("fault-injection", fault_tests);
      ("robustness", robustness_tests);
      ("oracle-only", oracle_tests);
      ("engine-fallback", engine_fallback_tests);
      ("fault-recovery", fault_recovery_tests);
      ("depcheck", depcheck_tests);
      ("context", context_tests);
      ("wait-protocol", wait_protocol_tests);
    ]

(* ---- randomized pipeline property ------------------------------------- *)

(* Generate random canonical loops mixing the five carried-dependence
   flavours (induction, reduction, last-value, demoted register, shared
   memory cell, affine array) and check parallel == sequential for each.
   This is the strongest oracle in the suite: any unsound analysis,
   mis-placed bracket or runtime race shows up as a memory or return
   mismatch. *)

type feature =
  | F_reduction of Ir.binop
  | F_shared_cell
  | F_lastval
  | F_demoted
  | F_affine_store
  | F_poly2

let gen_features =
  QCheck.Gen.(
    list_size (int_range 1 5)
      (oneofl
         [ F_reduction Ir.Add; F_reduction Ir.Max; F_reduction Ir.Mul;
           F_shared_cell; F_lastval; F_demoted; F_affine_store; F_poly2 ]))

let build_random (trip, features) () =
  let layout = Memory.Layout.create () in
  let b = Builder.create "main" in
  let cell_regions =
    List.mapi
      (fun k _ -> Memory.Layout.alloc layout (Fmt.str "cell%d" k) 8)
      features
  in
  let arr = Memory.Layout.alloc layout "arr" 256 in
  let outs = ref [] in
  let carried =
    List.map
      (fun f ->
        match f with
        | F_reduction Ir.Mul -> (f, Builder.mov b (Ir.Imm 1))
        | F_reduction Ir.Max -> (f, Builder.mov b (Ir.Imm min_int))
        | F_lastval -> (f, Builder.mov b (Ir.Imm (-7)))
        | F_poly2 ->
            let s = Builder.mov b (Ir.Imm 1) in
            ignore s;
            (f, Builder.mov b (Ir.Imm 0))
        | _ -> (f, Builder.mov b (Ir.Imm 0)))
      features
  in
  (* poly2 needs its own step register *)
  let steps =
    List.map
      (fun (f, _) ->
        match f with F_poly2 -> Some (Builder.mov b (Ir.Imm 2)) | _ -> None)
      carried
  in
  let _ =
    Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm trip) (fun i ->
        List.iteri
          (fun k ((f, r) : feature * Ir.reg) ->
            let region = List.nth cell_regions k in
            let an_c =
              Ir.annot ~path:(Fmt.str "c%d" k) region.Memory.Layout.site
            in
            let base = Ir.Imm region.Memory.Layout.base in
            match f with
            | F_reduction op ->
                let h = Builder.libcall b Ir.Lc_hash [ Ir.Reg i ] in
                let x0 = Builder.band b (Ir.Reg h) (Ir.Imm 7) in
                let x = Builder.add b (Ir.Reg x0) (Ir.Imm 1) in
                let nv = Builder.binop b op (Ir.Reg r) (Ir.Reg x) in
                Builder.mov_to b r (Ir.Reg nv)
            | F_shared_cell ->
                let v = Builder.load b ~an:an_c base in
                let v1 = Builder.add b (Ir.Reg v) (Ir.Reg i) in
                Builder.store b ~an:an_c base (Ir.Reg v1)
            | F_lastval ->
                let h = Builder.libcall b Ir.Lc_hash [ Ir.Reg i ] in
                let c = Builder.band b (Ir.Reg h) (Ir.Imm 3) in
                let is0 = Builder.eq b (Ir.Reg c) (Ir.Imm 0) in
                Builder.if_then b (Ir.Reg is0) (fun () ->
                    Builder.mov_to b r (Ir.Reg i))
            | F_demoted ->
                (* r mixes its previous value through a hash: must be
                   demoted to a shared cell *)
                let h = Builder.libcall b Ir.Lc_hash [ Ir.Reg r ] in
                let h' = Builder.band b (Ir.Reg h) (Ir.Imm 1023) in
                Builder.mov_to b r (Ir.Reg h')
            | F_affine_store ->
                let idx = Builder.band b (Ir.Reg i) (Ir.Imm 255) in
                let an_a =
                  Ir.annot ~path:"arr[]" ~affine:0 arr.Memory.Layout.site
                in
                Builder.store b ~offset:(Ir.Reg idx) ~an:an_a
                  (Ir.Imm arr.Memory.Layout.base) (Ir.Reg i)
            | F_poly2 -> (
                match List.nth steps k with
                | Some s ->
                    let s' = Builder.add b (Ir.Reg s) (Ir.Imm 2) in
                    Builder.mov_to b s (Ir.Reg s');
                    let r' = Builder.add b (Ir.Reg r) (Ir.Reg s) in
                    Builder.mov_to b r (Ir.Reg r')
                | None -> ()))
          carried)
  in
  (* fold every carried value plus the shared cells into the result *)
  List.iteri
    (fun k ((f, r) : feature * Ir.reg) ->
      let region = List.nth cell_regions k in
      match f with
      | F_shared_cell ->
          let v =
            Builder.load b
              ~an:(Ir.annot ~path:(Fmt.str "c%d" k) region.Memory.Layout.site)
              (Ir.Imm region.Memory.Layout.base)
          in
          outs := v :: !outs
      | F_reduction Ir.Mul ->
          let m = Builder.band b (Ir.Reg r) (Ir.Imm 0xfffff) in
          outs := m :: !outs
      | _ -> outs := r :: !outs)
    carried;
  let total =
    List.fold_left
      (fun acc r ->
        let t = Builder.add b (Ir.Reg acc) (Ir.Reg r) in
        t)
      (Builder.mov b (Ir.Imm 0))
      !outs
  in
  Builder.ret b (Some (Ir.Reg total));
  let p = Ir.create_program () in
  Ir.add_func p (Builder.func b);
  (p, layout)

let prop_random_pipeline =
  QCheck.Test.make ~name:"random loops: parallel == sequential" ~count:25
    (QCheck.make QCheck.Gen.(pair (int_range 0 60) gen_features))
    (fun params ->
      let build = build_random params in
      let gp, _ = build () in
      let g = Helix.golden_run gp (Memory.create ()) in
      let cp, layout = build () in
      let compiled =
        Hcc.compile (Hcc_config.v3 ()) cp layout ~train_mem:(Memory.create ())
      in
      let par =
        Executor.run ~compiled
          (Executor.default_config Mach_config.default)
          compiled.Hcc.cp_prog (Memory.create ())
      in
      (Helix.verify g par).Helix.ok
      && par.Executor.r_max_outstanding_signals <= 2)

let prop_random_pipeline_conventional =
  QCheck.Test.make ~name:"random loops: conventional machine oracle"
    ~count:15
    (QCheck.make QCheck.Gen.(pair (int_range 0 40) gen_features))
    (fun params ->
      let build = build_random params in
      let gp, _ = build () in
      let g = Helix.golden_run gp (Memory.create ()) in
      let cp, layout = build () in
      let compiled =
        Hcc.compile (Hcc_config.v2 ()) cp layout ~train_mem:(Memory.create ())
      in
      let par =
        Executor.run ~compiled
          (Executor.default_config ~ring:false ~comm:Executor.fully_coupled
             Mach_config.default)
          compiled.Hcc.cp_prog (Memory.create ())
      in
      (Helix.verify g par).Helix.ok)

let () =
  Alcotest.run ~and_exit:false "runtime-properties"
    [
      ("random-pipeline",
       List.map QCheck_alcotest.to_alcotest
         [ prop_random_pipeline; prop_random_pipeline_conventional ]);
    ]
