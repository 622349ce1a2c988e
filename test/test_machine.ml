open Helix_machine

(* Tests for the machine substrate: caches, DRAM, the memory hierarchy,
   branch prediction, and the two core timing models driven by synthetic
   uop streams. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---- cache ------------------------------------------------------------- *)

let small_cache () =
  Cache.create
    { Mach_config.size_words = 64; assoc = 2; line_words = 4; hit_latency = 2 }

let cache_tests =
  [
    tc "miss then hit" (fun () ->
        let c = small_cache () in
        (match Cache.access c ~write:false 10 with
        | Cache.Miss -> ()
        | Cache.Hit | Cache.Miss_dirty -> Alcotest.fail "expected miss");
        (match Cache.access c ~write:false 10 with
        | Cache.Hit -> ()
        | Cache.Miss | Cache.Miss_dirty -> Alcotest.fail "expected hit"));
    tc "same line hits" (fun () ->
        let c = small_cache () in
        ignore (Cache.access c ~write:false 8);
        match Cache.access c ~write:false 11 with
        | Cache.Hit -> ()
        | Cache.Miss | Cache.Miss_dirty ->
            Alcotest.fail "line should cover words 8..11");
    tc "LRU evicts the older way" (fun () ->
        let c = small_cache () in
        let a1 = 0 and a2 = 8 * 4 and a3 = 2 * 8 * 4 in
        ignore (Cache.access c ~write:false a1);
        ignore (Cache.access c ~write:false a2);
        ignore (Cache.access c ~write:false a1);
        ignore (Cache.access c ~write:false a3);
        (match Cache.access c ~write:false a1 with
        | Cache.Hit -> ()
        | Cache.Miss | Cache.Miss_dirty -> Alcotest.fail "a1 should survive");
        match Cache.access c ~write:false a2 with
        | Cache.Miss | Cache.Miss_dirty -> ()
        | Cache.Hit -> Alcotest.fail "a2 should have been evicted");
    tc "dirty eviction reports the victim line" (fun () ->
        let c = small_cache () in
        let a1 = 0 and a2 = 8 * 4 and a3 = 2 * 8 * 4 in
        ignore (Cache.access c ~write:true a1);
        ignore (Cache.access c ~write:false a2);
        ignore (Cache.access c ~write:false a2);
        match Cache.access c ~write:false a3 with
        | Cache.Miss_dirty ->
            check Alcotest.int "victim line" 0 (Cache.evicted_line c)
        | Cache.Hit | Cache.Miss -> Alcotest.fail "expected dirty eviction");
    tc "invalidate removes a line" (fun () ->
        let c = small_cache () in
        ignore (Cache.access c ~write:false 20);
        Cache.invalidate c 20;
        Alcotest.(check bool) "gone" false (Cache.contains c 20));
    tc "hit rate accounting" (fun () ->
        let c = small_cache () in
        ignore (Cache.access c ~write:false 0);
        ignore (Cache.access c ~write:false 0);
        ignore (Cache.access c ~write:false 0);
        ignore (Cache.access c ~write:false 0);
        check (Alcotest.float 0.01) "3/4" 0.75 (Cache.hit_rate c));
    tc "flush_all empties the cache" (fun () ->
        let c = small_cache () in
        ignore (Cache.access c ~write:true 0);
        Cache.flush_all c;
        Alcotest.(check bool) "empty" false (Cache.contains c 0));
  ]

(* The cache as it was before its ways moved to flat arrays: one mutable
   record per way, a closure and an option per access.  Kept as the
   reference the struct-of-arrays model must match access for access. *)
module Record_cache = struct
  type line = {
    mutable tag : int;
    mutable valid : bool;
    mutable dirty : bool;
    mutable lru : int;
  }

  type t = {
    line_words : int;
    sets : line array array;
    n_sets : int;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create (cfg : Mach_config.cache_config) =
    let n_sets = max 1 (cfg.size_words / (cfg.assoc * cfg.line_words)) in
    {
      line_words = cfg.line_words;
      sets =
        Array.init n_sets (fun _ ->
            Array.init cfg.assoc (fun _ ->
                { tag = -1; valid = false; dirty = false; lru = 0 }));
      n_sets;
      clock = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let set_of t addr = t.sets.(addr / t.line_words mod t.n_sets)

  (* [None] = hit, [Some None] = clean miss, [Some (Some l)] = dirty
     victim line [l] *)
  let access t ~write addr =
    t.clock <- t.clock + 1;
    let laddr = addr / t.line_words in
    let set = set_of t addr in
    let found = ref None in
    Array.iter (fun l -> if l.valid && l.tag = laddr then found := Some l) set;
    match !found with
    | Some l ->
        t.hits <- t.hits + 1;
        l.lru <- t.clock;
        if write then l.dirty <- true;
        None
    | None ->
        t.misses <- t.misses + 1;
        let victim = ref set.(0) in
        Array.iter
          (fun l ->
            if not l.valid then victim := l
            else if !victim.valid && l.lru < !victim.lru then victim := l)
          set;
        let v = !victim in
        let evicted = if v.valid && v.dirty then Some v.tag else None in
        if v.valid then t.evictions <- t.evictions + 1;
        v.tag <- laddr;
        v.valid <- true;
        v.dirty <- write;
        v.lru <- t.clock;
        Some evicted

  let contains t addr =
    let laddr = addr / t.line_words in
    Array.exists (fun l -> l.valid && l.tag = laddr) (set_of t addr)

  let invalidate t addr =
    let laddr = addr / t.line_words in
    Array.iter
      (fun l -> if l.valid && l.tag = laddr then l.valid <- false)
      (set_of t addr)

  let flush_all t =
    Array.iter (fun set -> Array.iter (fun l -> l.valid <- false) set) t.sets
end

type cache_op = Read of int | Write of int | Inval of int | Probe of int | Flush

let gen_cache_case =
  QCheck.Gen.(
    oneofl [ 1; 2; 4; 8 ] >>= fun assoc ->
    oneofl [ 1; 2; 4 ] >>= fun line_words ->
    int_range 1 8 >>= fun sets ->
    let span = 4 * sets * assoc * line_words in
    let addr = int_bound span in
    list_size (int_range 1 400)
      (frequency
         [
           (8, map (fun a -> Read a) addr);
           (6, map (fun a -> Write a) addr);
           (1, map (fun a -> Inval a) addr);
           (1, map (fun a -> Probe a) addr);
           (1, return Flush);
         ])
    >>= fun ops ->
    return
      ( { Mach_config.size_words = sets * assoc * line_words; assoc;
          line_words; hit_latency = 1 },
        ops ))

let prop_cache_matches_record_model =
  QCheck.Test.make ~name:"cache: same outcomes and counts as the record model"
    ~count:500 (QCheck.make gen_cache_case) (fun (cfg, ops) ->
      let c = Cache.create cfg and r = Record_cache.create cfg in
      let access ~write a =
        match (Cache.access c ~write a, Record_cache.access r ~write a) with
        | Cache.Hit, None | Cache.Miss, Some None -> true
        | Cache.Miss_dirty, Some (Some l) -> Cache.evicted_line c = l
        | _ -> false
      in
      List.for_all
        (function
          | Read a -> access ~write:false a
          | Write a -> access ~write:true a
          | Inval a ->
              Cache.invalidate c a;
              Record_cache.invalidate r a;
              true
          | Probe a -> Cache.contains c a = Record_cache.contains r a
          | Flush ->
              Cache.flush_all c;
              Record_cache.flush_all r;
              true)
        ops
      && Cache.hits c = r.Record_cache.hits
      && Cache.misses c = r.Record_cache.misses
      && Cache.evictions c = r.Record_cache.evictions)

let cache_tests =
  cache_tests
  @ [
      QCheck_alcotest.to_alcotest prop_cache_matches_record_model;
      tc "an access allocates nothing" (fun () ->
          let c =
            Cache.create
              { Mach_config.size_words = 1024; assoc = 4; line_words = 4;
                hit_latency = 1 }
          in
          let before = Gc.minor_words () in
          for a = 0 to 9_999 do
            ignore (Cache.access c ~write:(a land 1 = 0) (a * 37 mod 5000))
          done;
          let words = Gc.minor_words () -. before in
          Alcotest.(check bool)
            (Printf.sprintf "10k accesses allocated %.0f words" words)
            true (words < 100.));
    ]

(* ---- DRAM ---------------------------------------------------------------- *)

let dram_tests =
  [
    tc "row hit is cheaper" (fun () ->
        let d = Dram.create ~latency:100 ~banks:4 in
        let l1 = Dram.access d ~cycle:0 5 in
        let l2 = Dram.access d ~cycle:1000 6 in
        Alcotest.(check bool) "row hit faster" true (l2 < l1));
    tc "bank contention queues" (fun () ->
        let d = Dram.create ~latency:100 ~banks:1 in
        let l1 = Dram.access d ~cycle:0 0 in
        let l2 = Dram.access d ~cycle:1 (8 * 1024) in
        Alcotest.(check bool) "second queues behind first" true (l2 >= l1));
    tc "idle banks do not queue" (fun () ->
        let d = Dram.create ~latency:100 ~banks:4 in
        ignore (Dram.access d ~cycle:0 0);
        let l = Dram.access d ~cycle:10_000 0 in
        Alcotest.(check bool) "row hit, no queue" true (l <= 40));
  ]

(* ---- hierarchy ------------------------------------------------------------ *)

let hierarchy_tests =
  [
    tc "L1 hit after fill" (fun () ->
        let h = Hierarchy.create Mach_config.default in
        ignore
          (Hierarchy.access h ~core:0 ~cycle:0 ~write:false ~coherent:false 100);
        let l =
          Hierarchy.access h ~core:0 ~cycle:10 ~write:false ~coherent:false 100
        in
        check Alcotest.int "hit latency" 3 l);
    tc "remote dirty line pays cache-to-cache" (fun () ->
        let h = Hierarchy.create Mach_config.default in
        ignore
          (Hierarchy.access h ~core:0 ~cycle:0 ~write:true ~coherent:true 100);
        let l =
          Hierarchy.access h ~core:1 ~cycle:10 ~write:false ~coherent:true 100
        in
        Alcotest.(check bool) "c2c charged" true (l >= 10);
        check Alcotest.int "one transfer" 1 (Hierarchy.c2c_transfers h));
    tc "private accesses never pay coherence" (fun () ->
        let h = Hierarchy.create Mach_config.default in
        ignore
          (Hierarchy.access h ~core:0 ~cycle:0 ~write:true ~coherent:false 100);
        ignore
          (Hierarchy.access h ~core:1 ~cycle:10 ~write:false ~coherent:false 100);
        check Alcotest.int "no transfers" 0 (Hierarchy.c2c_transfers h));
  ]

(* ---- branch predictor ------------------------------------------------------ *)

let predictor_tests =
  [
    tc "always-taken converges" (fun () ->
        let p = Branch_pred.create () in
        for _ = 1 to 10 do
          ignore (Branch_pred.predict_update p ~static_id:7 ~taken:true)
        done;
        Alcotest.(check bool) "predicts taken" false
          (Branch_pred.predict_update p ~static_id:7 ~taken:true));
    tc "loop exit mispredicts once" (fun () ->
        let p = Branch_pred.create () in
        for _ = 1 to 10 do
          ignore (Branch_pred.predict_update p ~static_id:3 ~taken:true)
        done;
        Alcotest.(check bool) "exit mispredicted" true
          (Branch_pred.predict_update p ~static_id:3 ~taken:false));
    tc "mispredict rate bounded" (fun () ->
        let p = Branch_pred.create () in
        for i = 1 to 100 do
          ignore (Branch_pred.predict_update p ~static_id:1 ~taken:(i mod 7 <> 0))
        done;
        Alcotest.(check bool) "rate sane" true
          (Branch_pred.mispredict_rate p <= 0.5));
  ]

(* ---- core models ------------------------------------------------------------ *)

let run_core kind width uops =
  let remaining = ref uops in
  let supply =
    {
      Core_model.sup_next =
        (fun () ->
          match !remaining with
          | [] -> None
          | u :: tl ->
              remaining := tl;
              Some u);
      sup_mem = (fun ~cycle:_ ~write:_ ~addr:_ -> 3);
      sup_shared =
        (fun ~cycle:_ ~tag:_ op ->
          match op with
          | Uop.S_load _ -> Uop.Sh_done { latency = 3; value = 42 }
          | _ -> Uop.Sh_done { latency = 1; value = 0 });
      sup_settled = (fun () -> true);
    }
  in
  let cfg =
    match kind with
    | `In_order -> { Mach_config.atom_core with Mach_config.width }
    | `Ooo -> { Mach_config.ooo2_core with Mach_config.width }
  in
  let core = Core.create ~id:0 cfg supply in
  let cycles = ref 0 in
  while (not (Core.quiescent core)) && !cycles < 100_000 do
    Core.tick core !cycles;
    incr cycles
  done;
  (!cycles, Core.stats core)

let alu ?(srcs = []) ?dst lat = Uop.mk ~srcs ?dst (Uop.Alu lat)

(* An out-of-order core fed [uops]; shared operations complete at once
   and [mem] sees each private access's issue cycle. *)
let ooo_core ?(mem = fun ~cycle:_ -> ()) cfg uops =
  let remaining = ref uops in
  Core.create ~id:0 cfg
    {
      Core_model.sup_next =
        (fun () ->
          match !remaining with
          | [] -> None
          | u :: tl ->
              remaining := tl;
              Some u);
      sup_mem =
        (fun ~cycle ~write:_ ~addr:_ ->
          mem ~cycle;
          1);
      sup_shared =
        (fun ~cycle:_ ~tag:_ _ -> Uop.Sh_done { latency = 1; value = 0 });
      sup_settled = (fun () -> true);
    }

(* Tick [core] at [cycle] and return the bucket that cycle was charged. *)
let tick_bucket core cycle =
  let st = Core.stats core in
  let before = List.map (Stats.get st) Stats.all_buckets in
  Core.tick core cycle;
  let moved =
    List.filter_map
      (fun (b, n) -> if Stats.get st b > n then Some b else None)
      (List.combine Stats.all_buckets before)
  in
  match moved with
  | [ b ] -> b
  | _ -> Alcotest.failf "cycle %d charged %d buckets" cycle (List.length moved)

let core_tests =
  [
    tc "in-order: dependent chain takes at least its latency" (fun () ->
        let uops =
          List.init 10 (fun i ->
              alu ~srcs:(if i = 0 then [] else [ i - 1 ]) ~dst:i 1)
        in
        let cycles, st = run_core `In_order 2 uops in
        Alcotest.(check bool) "chain >= 10" true (cycles >= 10);
        check Alcotest.int "retired" 10 st.Stats.retired);
    tc "in-order: independent uops dual-issue" (fun () ->
        let uops = List.init 20 (fun i -> alu ~dst:(100 + i) 1) in
        let cycles, _ = run_core `In_order 2 uops in
        Alcotest.(check bool) (Fmt.str "%d cycles for 20 indep" cycles) true
          (cycles <= 14));
    tc "in-order: width-1 is slower" (fun () ->
        let uops () = List.init 20 (fun i -> alu ~dst:(100 + i) 1) in
        let c2, _ = run_core `In_order 2 (uops ()) in
        let c1, _ = run_core `In_order 1 (uops ()) in
        Alcotest.(check bool) "narrow slower" true (c1 > c2));
    tc "out-of-order: independents overlap a long-latency op" (fun () ->
        let uops =
          alu ~dst:0 20 :: List.init 10 (fun i -> alu ~dst:(10 + i) 1)
        in
        let cycles, _ = run_core `Ooo 2 uops in
        Alcotest.(check bool) (Fmt.str "%d cycles" cycles) true (cycles <= 30));
    tc "in-order: stats buckets cover every cycle" (fun () ->
        let uops =
          List.init 30 (fun i ->
              if i mod 3 = 0 then Uop.mk ~dst:i (Uop.Load_priv (i * 8))
              else alu ~srcs:[ (i / 3) * 3 ] ~dst:i 1)
        in
        let _, st = run_core `In_order 2 uops in
        let total =
          List.fold_left (fun a b -> a + Stats.get st b) 0 Stats.all_buckets
        in
        check Alcotest.int "buckets sum to cycles" st.Stats.cycles total);
    tc "out-of-order: stats buckets cover every cycle" (fun () ->
        let uops = List.init 25 (fun i -> alu ~dst:i 2) in
        let _, st = run_core `Ooo 2 uops in
        let total =
          List.fold_left (fun a b -> a + Stats.get st b) 0 Stats.all_buckets
        in
        check Alcotest.int "buckets sum to cycles" st.Stats.cycles total);
    tc "shared load sink delivers the value (in-order)" (fun () ->
        let got = ref 0 in
        let u =
          {
            (Uop.mk ~dst:5 (Uop.Shared (Uop.S_load 77))) with
            Uop.sink = Some (fun v -> got := v);
          }
        in
        let _ = run_core `In_order 2 [ u ] in
        check Alcotest.int "sink value" 42 !got);
    tc "shared load sink delivers the value (out-of-order)" (fun () ->
        let got = ref 0 in
        let u =
          {
            (Uop.mk ~dst:5 (Uop.Shared (Uop.S_load 77))) with
            Uop.sink = Some (fun v -> got := v);
          }
        in
        let _ = run_core `Ooo 2 [ u ] in
        check Alcotest.int "sink value" 42 !got);
    tc "wait retry charges dependence-waiting" (fun () ->
        let calls = ref 0 in
        let remaining = ref [ Uop.mk (Uop.Shared (Uop.S_wait 0)) ] in
        let supply =
          {
            Core_model.sup_next =
              (fun () ->
                match !remaining with
                | [] -> None
                | u :: tl ->
                    remaining := tl;
                    Some u);
            sup_mem = (fun ~cycle:_ ~write:_ ~addr:_ -> 3);
            sup_shared =
              (fun ~cycle:_ ~tag:_ _ ->
                incr calls;
                if !calls < 50 then Uop.Sh_retry
                else Uop.Sh_done { latency = 1; value = 0 });
            sup_settled = (fun () -> true);
          }
        in
        let core = Core.create ~id:0 Mach_config.atom_core supply in
        let cycles = ref 0 in
        while (not (Core.quiescent core)) && !cycles < 1000 do
          Core.tick core !cycles;
          incr cycles
        done;
        let st = Core.stats core in
        Alcotest.(check bool) "dep-wait cycles recorded" true
          (Stats.get st Stats.Dep_wait >= 40));
    tc "ooo respects the window size" (fun () ->
        (* a window-1 core cannot overlap the long op *)
        let mk () = alu ~dst:0 20 :: List.init 5 (fun i -> alu ~dst:(1 + i) 1) in
        let narrow =
          { Mach_config.ooo2_core with Mach_config.window = 1 }
        in
        let supply l =
          let remaining = ref l in
          {
            Core_model.sup_next =
              (fun () ->
                match !remaining with
                | [] -> None
                | u :: tl ->
                    remaining := tl;
                    Some u);
            sup_mem = (fun ~cycle:_ ~write:_ ~addr:_ -> 3);
            sup_shared =
              (fun ~cycle:_ ~tag:_ _ -> Uop.Sh_done { latency = 1; value = 0 });
            sup_settled = (fun () -> true);
          }
        in
        let run cfg l =
          let core = Core.create ~id:0 cfg (supply l) in
          let cycles = ref 0 in
          while (not (Core.quiescent core)) && !cycles < 10_000 do
            Core.tick core !cycles;
            incr cycles
          done;
          !cycles
        in
        let c_narrow = run narrow (mk ()) in
        let c_wide = run Mach_config.ooo2_core (mk ()) in
        Alcotest.(check bool) "window-1 slower" true (c_narrow > c_wide));
    tc "ooo: issued wait/signal alone charges wait/signal" (fun () ->
        (* cycle 0 dispatches both; cycle 1 issues the wait from the head,
           and the signal behind it may not issue yet *)
        let core =
          ooo_core Mach_config.ooo2_core
            [ Uop.mk (Uop.Shared (Uop.S_wait 0));
              Uop.mk (Uop.Shared (Uop.S_signal 0)) ]
        in
        ignore (tick_bucket core 0);
        check Alcotest.string "cycle 1"
          (Stats.bucket_name Stats.Sync_instr)
          (Stats.bucket_name (tick_bucket core 1)));
    tc "ooo: one issued ALU uop makes the cycle busy" (fun () ->
        let core =
          ooo_core Mach_config.ooo2_core
            [ Uop.mk (Uop.Shared (Uop.S_wait 0)); alu ~dst:1 1 ]
        in
        ignore (tick_bucket core 0);
        check Alcotest.string "cycle 1" (Stats.bucket_name Stats.Busy)
          (Stats.bucket_name (tick_bucket core 1)));
    tc "ooo: at most width uops issue per cycle" (fun () ->
        (* 63 loads wait on one long op, so the whole window turns ready
           in the same cycle *)
        let cfg = Mach_config.ooo4_core in
        let n = cfg.Mach_config.window - 1 in
        let issued_at = Array.make 10_000 0 in
        let uops =
          alu ~dst:0 100
          :: List.init n (fun i ->
                 Uop.mk ~srcs:[ 0 ] ~dst:(1 + i) (Uop.Load_priv (8 * i)))
        in
        let core =
          ooo_core
            ~mem:(fun ~cycle -> issued_at.(cycle) <- issued_at.(cycle) + 1)
            cfg uops
        in
        let cycle = ref 0 in
        while (not (Core.quiescent core)) && !cycle < 10_000 do
          Core.tick core !cycle;
          incr cycle
        done;
        check Alcotest.int "every load issued" n
          (Array.fold_left ( + ) 0 issued_at);
        check Alcotest.int "busiest cycle" cfg.Mach_config.width
          (Array.fold_left Int.max 0 issued_at));
  ]

(* ---- stats -------------------------------------------------------------------- *)

let stats_tests =
  [
    tc "merge sums counters" (fun () ->
        let a = Stats.create () and b = Stats.create () in
        Stats.charge a Stats.Busy;
        Stats.charge a Stats.Idle;
        Stats.charge b Stats.Busy;
        let m = Stats.merge [ a; b ] in
        check Alcotest.int "cycles" 3 m.Stats.cycles;
        check Alcotest.int "busy" 2 (Stats.get m Stats.Busy));
    tc "fraction" (fun () ->
        let s = Stats.create () in
        Stats.charge s Stats.Busy;
        Stats.charge s Stats.Idle;
        check (Alcotest.float 0.001) "half" 0.5 (Stats.fraction s Stats.Busy));
  ]

(* property: random uop streams retire completely on both cores *)
let gen_uops =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (int_range 0 9 >>= fun k ->
       int_range 0 15 >>= fun r ->
       return
         (match k with
         | 0 | 1 | 2 | 3 -> alu ~dst:r 1
         | 4 -> alu ~srcs:[ r ] ~dst:((r + 1) land 15) 3
         | 5 -> Uop.mk ~dst:r (Uop.Load_priv (r * 8))
         | 6 -> Uop.mk (Uop.Store_priv (r * 8))
         | 7 -> Uop.mk (Uop.Branch { taken = r land 1 = 1; static_id = r })
         | _ -> alu ~dst:r 2)))

let prop_all_retire kind name =
  QCheck.Test.make ~name ~count:60 (QCheck.make gen_uops) (fun uops ->
      let cycles, st = run_core kind 2 uops in
      cycles < 100_000 && st.Stats.retired = List.length uops)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_all_retire `In_order "in-order retires every random stream";
      prop_all_retire `Ooo "out-of-order retires every random stream";
    ]

let () =
  Alcotest.run "machine"
    [
      ("cache", cache_tests);
      ("dram", dram_tests);
      ("hierarchy", hierarchy_tests);
      ("predictor", predictor_tests);
      ("cores", core_tests);
      ("stats", stats_tests);
      ("properties", props);
    ]
