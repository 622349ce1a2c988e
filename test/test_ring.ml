open Helix_ring

(* Tests for the ring cache: node arrays, signal buffers, owner hashing,
   and the ring network itself (value circulation, lockstep, flow
   control, flush semantics, miss paths, invalidation). *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---- node array ---------------------------------------------------- *)

let node_array_tests =
  [
    tc "insert then lookup" (fun () ->
        let a = Node_array.create ~size_words:32 ~assoc:4 () in
        ignore (Node_array.insert a 100 7);
        check Alcotest.(option int) "hit" (Some 7) (Node_array.lookup a 100));
    tc "missing address" (fun () ->
        let a = Node_array.create ~size_words:32 ~assoc:4 () in
        check Alcotest.(option int) "miss" None (Node_array.lookup a 5));
    tc "update in place" (fun () ->
        let a = Node_array.create ~size_words:32 ~assoc:4 () in
        ignore (Node_array.insert a 100 7);
        ignore (Node_array.insert a 100 8);
        check Alcotest.(option int) "updated" (Some 8)
          (Node_array.lookup a 100));
    tc "capacity eviction" (fun () ->
        (* 8 words, 1-way, line 1: 8 sets; conflicting addresses share a set *)
        let a = Node_array.create ~size_words:8 ~assoc:1 () in
        ignore (Node_array.insert a 0 1);
        (match Node_array.insert a 8 2 with
        | Some (0, _) -> ()
        | _ -> Alcotest.fail "expected eviction of line 0");
        check Alcotest.(option int) "old gone" None (Node_array.lookup a 0));
    tc "invalidate" (fun () ->
        let a = Node_array.create ~size_words:32 ~assoc:4 () in
        ignore (Node_array.insert a 100 7);
        Node_array.invalidate a 100;
        check Alcotest.(option int) "gone" None (Node_array.lookup a 100));
    tc "unbounded variant never evicts" (fun () ->
        let a = Node_array.create ~size_words:max_int ~assoc:8 () in
        for i = 0 to 9999 do
          ignore (Node_array.insert a i i)
        done;
        check Alcotest.(option int) "first still in" (Some 0)
          (Node_array.lookup a 0));
    tc "multi-word line groups words" (fun () ->
        let a = Node_array.create ~line_words:4 ~size_words:32 ~assoc:2 () in
        ignore (Node_array.insert a 8 1);
        ignore (Node_array.insert a 9 2);
        check Alcotest.(option int) "word 8" (Some 1) (Node_array.lookup a 8);
        check Alcotest.(option int) "word 9" (Some 2) (Node_array.lookup a 9));
  ]

(* ---- signal buffer --------------------------------------------------- *)

let signal_tests =
  [
    tc "threshold satisfied only after enough signals" (fun () ->
        let b = Signal_buffer.create () in
        Alcotest.(check bool) "zero threshold" true
          (Signal_buffer.satisfied b ~seg:0 ~origin:1 ~threshold:0);
        Alcotest.(check bool) "not yet" false
          (Signal_buffer.satisfied b ~seg:0 ~origin:1 ~threshold:1);
        Signal_buffer.record b ~seg:0 ~origin:1;
        Alcotest.(check bool) "now" true
          (Signal_buffer.satisfied b ~seg:0 ~origin:1 ~threshold:1));
    tc "segments and origins independent" (fun () ->
        let b = Signal_buffer.create () in
        Signal_buffer.record b ~seg:0 ~origin:1;
        Alcotest.(check bool) "other segment" false
          (Signal_buffer.satisfied b ~seg:1 ~origin:1 ~threshold:1);
        Alcotest.(check bool) "other origin" false
          (Signal_buffer.satisfied b ~seg:0 ~origin:2 ~threshold:1));
    tc "max_outstanding tracks unconsumed signals" (fun () ->
        let b = Signal_buffer.create () in
        Signal_buffer.record b ~seg:0 ~origin:1;
        Signal_buffer.record b ~seg:0 ~origin:1;
        check Alcotest.int "two outstanding" 2 (Signal_buffer.max_outstanding b);
        ignore (Signal_buffer.satisfied b ~seg:0 ~origin:1 ~threshold:2);
        Signal_buffer.record b ~seg:0 ~origin:1;
        check Alcotest.int "still two max" 2 (Signal_buffer.max_outstanding b));
    tc "reset clears state" (fun () ->
        let b = Signal_buffer.create () in
        Signal_buffer.record b ~seg:0 ~origin:1;
        Signal_buffer.reset b;
        check Alcotest.int "received" 0 (Signal_buffer.received b ~seg:0 ~origin:1));
  ]

(* Randomized-interleaving properties: drive a buffer with a fixed-seed
   stream of record/satisfied/received operations over several
   (segment, origin) pairs and check it against a trivial reference
   model (per-pair received and consumed counters). *)

let sb_property_tests =
  (* deterministic splitmix-style generator; fixed seed *)
  let state = ref 0 in
  let rand bound =
    state := (!state + 0x9e3779b97f4a7c1) land max_int;
    let z = !state in
    let z = (z lxor (z lsr 30)) * 0xf51afd7ed558cc5 land max_int in
    let z = (z lxor (z lsr 27)) * 0x4ceb9fe1a85ec53 land max_int in
    (z lxor (z lsr 31)) mod bound
  in
  let find model k = try Hashtbl.find model k with Not_found -> (0, 0) in
  [
    tc "random interleaving agrees with a reference model" (fun () ->
        state := 42;
        let b = Signal_buffer.create () in
        let model = Hashtbl.create 16 in
        (* (seg, origin) -> (received, consumed) *)
        let max_out = ref 0 in
        for step = 1 to 10_000 do
          let seg = rand 3 and origin = rand 4 in
          let k = (seg, origin) in
          let r, c = find model k in
          match rand 3 with
          | 0 ->
              Signal_buffer.record b ~seg ~origin;
              Hashtbl.replace model k (r + 1, c);
              max_out := max !max_out (r + 1 - c)
          | 1 ->
              let threshold = rand 6 in
              let expect = r >= threshold in
              Alcotest.(check bool)
                (Fmt.str "step %d: satisfied seg%d/or%d thr%d" step seg origin
                   threshold)
                expect
                (Signal_buffer.satisfied b ~seg ~origin ~threshold);
              if expect && threshold > c then Hashtbl.replace model k (r, threshold)
          | _ ->
              check Alcotest.int
                (Fmt.str "step %d: received seg%d/or%d" step seg origin)
                r
                (Signal_buffer.received b ~seg ~origin)
        done;
        check Alcotest.int "max_outstanding matches the model" !max_out
          (Signal_buffer.max_outstanding b);
        (* entries is consistent: every active pair, consumed <= received *)
        List.iter
          (fun ((seg, origin), recv, cons) ->
            let r, c = find model (seg, origin) in
            check Alcotest.int (Fmt.str "entry recv seg%d/or%d" seg origin) r recv;
            check Alcotest.int (Fmt.str "entry cons seg%d/or%d" seg origin) c cons;
            Alcotest.(check bool) "cons <= recv" true (cons <= recv))
          (Signal_buffer.entries b));
    tc "received is monotone; satisfied is monotone in threshold" (fun () ->
        state := 7;
        let b = Signal_buffer.create () in
        let prev = ref 0 in
        for _ = 1 to 500 do
          if rand 2 = 0 then Signal_buffer.record b ~seg:1 ~origin:2;
          let r = Signal_buffer.received b ~seg:1 ~origin:2 in
          Alcotest.(check bool) "monotone" true (r >= !prev);
          prev := r;
          (* satisfied at t implies satisfied at every t' <= t *)
          let t = rand 8 in
          if Signal_buffer.satisfied b ~seg:1 ~origin:2 ~threshold:t then
            for t' = 0 to t - 1 do
              Alcotest.(check bool) "downward closed" true
                (Signal_buffer.satisfied b ~seg:1 ~origin:2 ~threshold:t')
            done
        done);
    tc "reset after random traffic restores a pristine buffer" (fun () ->
        state := 1337;
        let b = Signal_buffer.create () in
        for _ = 1 to 200 do
          Signal_buffer.record b ~seg:(rand 4) ~origin:(rand 4)
        done;
        Signal_buffer.reset b;
        check Alcotest.int "no outstanding" 0 (Signal_buffer.max_outstanding b);
        check
          Alcotest.(list (triple (pair int int) int int))
          "no entries" [] (Signal_buffer.entries b);
        (* behaves exactly like a fresh buffer afterwards *)
        Signal_buffer.record b ~seg:0 ~origin:0;
        check Alcotest.int "counting restarts at 1" 1
          (Signal_buffer.received b ~seg:0 ~origin:0);
        check Alcotest.int "outstanding restarts" 1
          (Signal_buffer.max_outstanding b));
    tc "entries and dump stay sorted by (segment, origin) as the table grows"
      (fun () ->
        state := 99;
        let b = Signal_buffer.create () in
        let model = Hashtbl.create 64 in
        (* origins past 16 and segments past the first rows force regrowth
           in both dimensions, in scrambled order *)
        for _ = 1 to 400 do
          let seg = rand 9 and origin = rand 20 in
          Signal_buffer.record b ~seg ~origin;
          let r, c = find model (seg, origin) in
          Hashtbl.replace model (seg, origin) (r + 1, c);
          if rand 2 = 0 then begin
            let threshold = rand (r + 2) in
            if Signal_buffer.satisfied b ~seg ~origin ~threshold
               && threshold > c
            then Hashtbl.replace model (seg, origin) (r + 1, threshold)
          end
        done;
        let expected =
          Hashtbl.fold (fun k (r, c) acc -> (k, r, c) :: acc) model []
          |> List.sort compare
        in
        check
          Alcotest.(list (triple (pair int int) int int))
          "entries" expected (Signal_buffer.entries b);
        check Alcotest.string "dump"
          (String.concat ""
             (List.map
                (fun ((seg, origin), r, _) ->
                  Printf.sprintf " (seg%d,from%d)=%d" seg origin r)
                expected))
          (Signal_buffer.dump b));
  ]

(* ---- owner hashing ----------------------------------------------------- *)

let owner_tests =
  [
    tc "all words of a line share an owner" (fun () ->
        for line = 0 to 20 do
          let o0 = Owner.node_of ~n_nodes:16 (line * 8) in
          for w = 1 to 7 do
            check Alcotest.int "same owner" o0
              (Owner.node_of ~n_nodes:16 ((line * 8) + w))
          done
        done);
    tc "owner in range" (fun () ->
        for a = 0 to 1000 do
          let o = Owner.node_of ~n_nodes:16 a in
          Alcotest.(check bool) "range" true (o >= 0 && o < 16)
        done);
    tc "distances" (fun () ->
        check Alcotest.int "forward" 3 (Owner.forward_distance ~n_nodes:16 ~src:15 ~dst:2);
        check Alcotest.int "undirected wraps" 3
          (Owner.undirected_distance ~n_nodes:16 ~src:2 ~dst:15));
  ]

(* ---- ring network -------------------------------------------------------- *)

let backing = Hashtbl.create 64

let mk_ring ?(n = 4) ?(cfg_f = fun c -> c) () =
  Hashtbl.reset backing;
  let cfg = cfg_f (Ring.default_config ~n_nodes:n) in
  Ring.create cfg
    {
      Ring.backing_load =
        (fun a -> try Hashtbl.find backing a with Not_found -> 0);
      backing_store = (fun a v -> Hashtbl.replace backing a v);
      owner_l1_latency = (fun ~core:_ ~cycle:_ ~write:_ ~addr:_ -> 3);
    }

let tick_n r ~from n =
  for c = from to from + n - 1 do
    Ring.tick r ~cycle:c
  done

let ring_tests =
  [
    tc "store becomes visible at every node within a lap" (fun () ->
        let r = mk_ring () in
        Alcotest.(check bool) "accepted" true
          (Ring.try_store r ~node:0 ~addr:64 ~value:9 ~cycle:0);
        tick_n r ~from:0 20;
        for node = 0 to 3 do
          let v, _ = Ring.load r ~node ~addr:64 ~cycle:25 in
          check Alcotest.int (Fmt.str "node %d" node) 9 v
        done);
    tc "local store visible immediately" (fun () ->
        let r = mk_ring () in
        ignore (Ring.try_store r ~node:2 ~addr:8 ~value:5 ~cycle:0);
        let v, lat = Ring.load r ~node:2 ~addr:8 ~cycle:0 in
        check Alcotest.int "value" 5 v;
        Alcotest.(check bool) "hit latency small" true (lat <= 4));
    tc "remote node before arrival sees stale value (decoupling)" (fun () ->
        let r = mk_ring () in
        ignore (Ring.try_store r ~node:0 ~addr:8 ~value:1 ~cycle:0);
        tick_n r ~from:0 20;
        (* node 3 now caches value 1; a new store at node 0 takes time *)
        ignore (Ring.try_store r ~node:0 ~addr:8 ~value:2 ~cycle:20);
        let v, _ = Ring.load r ~node:3 ~addr:8 ~cycle:20 in
        check Alcotest.int "stale read before arrival" 1 v;
        tick_n r ~from:20 20;
        let v2, _ = Ring.load r ~node:3 ~addr:8 ~cycle:40 in
        check Alcotest.int "fresh after arrival" 2 v2);
    tc "signals propagate to all other nodes" (fun () ->
        let r = mk_ring () in
        ignore (Ring.try_signal r ~node:1 ~seg:3 ~cycle:0);
        tick_n r ~from:0 20;
        List.iter
          (fun node ->
            Alcotest.(check bool) (Fmt.str "node %d" node) true
              (Ring.signals_satisfied r ~node ~seg:3 ~origin:1 ~threshold:1))
          [ 0; 2; 3 ]);
    tc "lockstep: signal never outruns its guarded data" (fun () ->
        (* with one data wire, a burst of stores followed by a signal: at
           any node and any cycle, once the signal is visible the last
           store's value must already be readable there *)
        let r = mk_ring ~n:8 () in
        for k = 0 to 6 do
          ignore
            (Ring.try_store r ~node:0 ~addr:(64 + k) ~value:(k + 1) ~cycle:0)
        done;
        ignore (Ring.try_signal r ~node:0 ~seg:0 ~cycle:0);
        for cycle = 0 to 80 do
          Ring.tick r ~cycle;
          List.iter
            (fun node ->
              if
                Ring.signals_satisfied r ~node ~seg:0 ~origin:0 ~threshold:1
              then begin
                let v, lat = Ring.load r ~node ~addr:70 ~cycle in
                check Alcotest.int
                  (Fmt.str "node %d cycle %d guarded value" node cycle)
                  7 v;
                Alcotest.(check bool) "served locally" true (lat <= 4)
              end)
            [ 1; 3; 5; 7 ]
        done);
    tc "load miss fetches the authoritative value" (fun () ->
        (* tiny arrays force capacity misses *)
        let r =
          mk_ring ~cfg_f:(fun c -> { c with Ring.array_size_words = 4; array_assoc = 1 }) ()
        in
        ignore (Ring.try_store r ~node:0 ~addr:8 ~value:42 ~cycle:0);
        (* overflow node 0's array with conflicting addresses *)
        for k = 1 to 8 do
          ignore (Ring.try_store r ~node:0 ~addr:(8 + (k * 4)) ~value:k ~cycle:k)
        done;
        tick_n r ~from:0 100;
        let v, lat = Ring.load r ~node:0 ~addr:8 ~cycle:100 in
        check Alcotest.int "authoritative" 42 v;
        Alcotest.(check bool) "miss is slow" true (lat > 4));
    tc "miss on never-stored address reads backing memory" (fun () ->
        let r = mk_ring () in
        Hashtbl.replace backing 500 77;
        let v, _ = Ring.load r ~node:1 ~addr:500 ~cycle:0 in
        check Alcotest.int "backing value" 77 v);
    tc "flush writes dirty values back and keeps copies" (fun () ->
        let r = mk_ring () in
        ignore (Ring.try_store r ~node:0 ~addr:8 ~value:5 ~cycle:0);
        tick_n r ~from:0 20;
        let lat = Ring.flush r ~cycle:20 in
        Alcotest.(check bool) "flush latency positive" true (lat >= 1);
        check Alcotest.int "backing updated" 5
          (try Hashtbl.find backing 8 with Not_found -> 0);
        (* clean copy still hits *)
        let v, l = Ring.load r ~node:2 ~addr:8 ~cycle:25 in
        check Alcotest.int "still cached" 5 v;
        Alcotest.(check bool) "hit" true (l <= 4));
    tc "invalidate_addr drops every copy" (fun () ->
        let r = mk_ring () in
        ignore (Ring.try_store r ~node:0 ~addr:8 ~value:5 ~cycle:0);
        tick_n r ~from:0 20;
        ignore (Ring.flush r ~cycle:20);
        Ring.invalidate_addr r 8;
        Hashtbl.replace backing 8 6;
        let v, _ = Ring.load r ~node:3 ~addr:8 ~cycle:30 in
        check Alcotest.int "fresh from backing" 6 v);
    tc "data_drained after enough ticks" (fun () ->
        let r = mk_ring () in
        ignore (Ring.try_store r ~node:0 ~addr:8 ~value:1 ~cycle:0);
        Alcotest.(check bool) "not drained immediately" false
          (Ring.data_drained r);
        tick_n r ~from:0 30;
        Alcotest.(check bool) "drained" true (Ring.data_drained r));
    tc "injection queue backpressure returns false" (fun () ->
        let r =
          mk_ring ~cfg_f:(fun c -> { c with Ring.inject_capacity = 2 }) ()
        in
        Alcotest.(check bool) "1st" true
          (Ring.try_store r ~node:0 ~addr:1 ~value:1 ~cycle:0);
        Alcotest.(check bool) "2nd" true
          (Ring.try_store r ~node:0 ~addr:2 ~value:1 ~cycle:0);
        Alcotest.(check bool) "3rd rejected" false
          (Ring.try_store r ~node:0 ~addr:3 ~value:1 ~cycle:0));
    tc "consumer histograms populated" (fun () ->
        let r = mk_ring () in
        ignore (Ring.try_store r ~node:0 ~addr:8 ~value:1 ~cycle:0);
        tick_n r ~from:0 20;
        ignore (Ring.load r ~node:2 ~addr:8 ~cycle:25);
        ignore (Ring.load r ~node:3 ~addr:8 ~cycle:26);
        ignore (Ring.flush r ~cycle:30);
        let cons = Ring.consumers_histogram r in
        check Alcotest.int "a value with 2 consumers" 1 cons.(2));
  ]

(* ---- diagnostics and degenerate-ring regressions ----------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let regression_tests =
  [
    tc "describe covers every node, not just the first three" (fun () ->
        (* regression: the old dump stopped printing sigbufs at node 2,
           hiding the state of the nodes that usually cause the wedge *)
        let r = mk_ring ~n:6 () in
        ignore (Ring.try_signal r ~node:5 ~seg:1 ~cycle:0);
        tick_n r ~from:0 30;
        let d = Ring.describe r in
        for node = 0 to 5 do
          Alcotest.(check bool) (Fmt.str "node %d present" node) true
            (contains d (Fmt.str "node %d:" node))
        done;
        (* node 0 received the signal; its sigbuf must be visible *)
        Alcotest.(check bool) "a recorded signal is printed" true
          (contains d "(seg1,from5)=1"));
    tc "single-node ring records its own signals" (fun () ->
        (* regression: with n_nodes=1 injected signals were retired
           without ever reaching the node's signal buffer, so a 1-core
           parallel loop could wait forever on its own signal *)
        let r = mk_ring ~n:1 () in
        ignore (Ring.try_signal r ~node:0 ~seg:2 ~cycle:0);
        tick_n r ~from:0 5;
        check Alcotest.int "received by itself" 1
          (Ring.signals_received r ~node:0 ~seg:2 ~origin:0);
        Alcotest.(check bool) "satisfied" true
          (Ring.signals_satisfied r ~node:0 ~seg:2 ~origin:0 ~threshold:1));
    tc "single-node ring applies its own stores" (fun () ->
        let r = mk_ring ~n:1 () in
        Alcotest.(check bool) "accepted" true
          (Ring.try_store r ~node:0 ~addr:8 ~value:3 ~cycle:0);
        tick_n r ~from:0 5;
        check Alcotest.int "readable" 3 (fst (Ring.load r ~node:0 ~addr:8 ~cycle:6));
        Alcotest.(check bool) "drained" true (Ring.data_drained r));
    tc "signals_received does not consume" (fun () ->
        (* the diagnostic accessor must be pure: probing a node's buffer
           while building a stuck report must not change satisfaction *)
        let r = mk_ring () in
        ignore (Ring.try_signal r ~node:1 ~seg:0 ~cycle:0);
        tick_n r ~from:0 20;
        for _ = 1 to 3 do
          check Alcotest.int "stable" 1
            (Ring.signals_received r ~node:3 ~seg:0 ~origin:1)
        done;
        Alcotest.(check bool) "still satisfied" true
          (Ring.signals_satisfied r ~node:3 ~seg:0 ~origin:1 ~threshold:1));
    tc "lockstep still holds for traffic after a flush" (fun () ->
        (* regression guard for the post-flush barrier reset: flush
           refills applied_data with next_seq-1; stores injected by the
           next loop get higher sequence numbers, so their guarding
           signals must still be held until the data lands *)
        let r = mk_ring ~n:8 () in
        ignore (Ring.try_store r ~node:0 ~addr:64 ~value:1 ~cycle:0);
        ignore (Ring.try_signal r ~node:0 ~seg:0 ~cycle:0);
        tick_n r ~from:0 60;
        ignore (Ring.flush r ~cycle:60);
        (* second "loop": same shape, new values *)
        for k = 0 to 6 do
          ignore
            (Ring.try_store r ~node:0 ~addr:(64 + k) ~value:(100 + k)
               ~cycle:61)
        done;
        ignore (Ring.try_signal r ~node:0 ~seg:0 ~cycle:61);
        for cycle = 61 to 140 do
          Ring.tick r ~cycle;
          List.iter
            (fun node ->
              if Ring.signals_satisfied r ~node ~seg:0 ~origin:0 ~threshold:1
              then
                check Alcotest.int
                  (Fmt.str "node %d cycle %d post-flush guarded value" node
                     cycle)
                  106
                  (fst (Ring.load r ~node ~addr:70 ~cycle)))
            [ 1; 4; 7 ]
        done);
    tc "snapshot mirrors describe structurally" (fun () ->
        let r = mk_ring ~n:4 () in
        ignore (Ring.try_store r ~node:0 ~addr:8 ~value:1 ~cycle:0);
        ignore (Ring.try_signal r ~node:1 ~seg:0 ~cycle:0);
        tick_n r ~from:0 20;
        match Ring.snapshot r with
        | Helix_obs.Json.Obj fields ->
            (match List.assoc_opt "nodes" fields with
            | Some (Helix_obs.Json.List nodes) ->
                check Alcotest.int "one entry per node" 4 (List.length nodes)
            | _ -> Alcotest.fail "nodes list missing");
            Alcotest.(check bool) "links present" true
              (List.mem_assoc "links_data" fields
              && List.mem_assoc "links_sig" fields)
        | _ -> Alcotest.fail "snapshot is not an object");
    tc "export_metrics agrees with accessors" (fun () ->
        let r = mk_ring () in
        ignore (Ring.try_store r ~node:0 ~addr:8 ~value:1 ~cycle:0);
        tick_n r ~from:0 20;
        ignore (Ring.load r ~node:2 ~addr:8 ~cycle:21);
        let m = Helix_obs.Metrics.create () in
        Ring.export_metrics r m;
        check
          Alcotest.(option (float 1e-9))
          "hit rate" (Some (Ring.ring_hit_rate r))
          (Helix_obs.Metrics.find_float m "ring.hit_rate");
        match Helix_obs.Metrics.find m "ring.dist_hist" with
        | Some (Helix_obs.Metrics.Hist h) ->
            check Alcotest.(array int) "dist hist" (Ring.dist_histogram r) h
        | _ -> Alcotest.fail "ring.dist_hist missing");
  ]

(* ---- fault injection: the delay class ---------------------------------- *)

let delayed_ring ?(n = 4) seed =
  mk_ring ~n
    ~cfg_f:(fun c ->
      { c with Ring.faults = Some (Ring.faulty ~delay:2 ~seed ()) })
    ()

(* first cycle at which [node] observes [value] at [addr], given a store
   injected at node 0 on cycle 0 *)
let visibility_cycle r ~node ~addr ~value =
  let seen = ref (-1) in
  for cycle = 0 to 300 do
    Ring.tick r ~cycle;
    if !seen < 0 && fst (Ring.load r ~node ~addr ~cycle) = value then
      seen := cycle
  done;
  if !seen < 0 then Alcotest.fail "store never became visible";
  !seen

let jitter_tests =
  [
    tc "delayed ring still delivers stores and signals everywhere" (fun () ->
        List.iter
          (fun seed ->
            let r = delayed_ring seed in
            Alcotest.(check bool) "store accepted" true
              (Ring.try_store r ~node:0 ~addr:64 ~value:9 ~cycle:0);
            ignore (Ring.try_signal r ~node:1 ~seg:3 ~cycle:0);
            tick_n r ~from:0 200;
            for node = 0 to 3 do
              check Alcotest.int
                (Fmt.str "seed %d node %d sees the store" seed node)
                9
                (fst (Ring.load r ~node ~addr:64 ~cycle:205))
            done;
            List.iter
              (fun node ->
                Alcotest.(check bool)
                  (Fmt.str "seed %d node %d sees the signal" seed node)
                  true
                  (Ring.signals_satisfied r ~node ~seg:3 ~origin:1
                     ~threshold:1))
              [ 0; 2; 3 ];
            Alcotest.(check bool) "drained" true (Ring.data_drained r))
          [ 1; 42; 1337 ]);
    tc "perturbation is deterministic per seed and delay-only" (fun () ->
        (* the cycles are pinned: they are the schedules the delay class
           has produced since it was introduced, so a change to the hash,
           its salts or its bounds shows up here *)
        let probe seed =
          let r = delayed_ring seed in
          ignore (Ring.try_store r ~node:0 ~addr:64 ~value:9 ~cycle:0);
          visibility_cycle r ~node:2 ~addr:64 ~value:9
        in
        let baseline =
          let r = mk_ring () in
          ignore (Ring.try_store r ~node:0 ~addr:64 ~value:9 ~cycle:0);
          visibility_cycle r ~node:2 ~addr:64 ~value:9
        in
        (* a miss is served from the authoritative image, so the store
           reads back at once whatever the delay; the signal below, held
           by lockstep behind the store, is what shows the schedule *)
        check Alcotest.int "baseline visibility" 0 baseline;
        let arrival r =
          ignore (Ring.try_store r ~node:0 ~addr:64 ~value:9 ~cycle:0);
          ignore (Ring.try_signal r ~node:0 ~seg:3 ~cycle:0);
          let seen = ref (-1) in
          for cycle = 0 to 300 do
            Ring.tick r ~cycle;
            if !seen < 0 && Ring.signals_received r ~node:2 ~seg:3 ~origin:0 > 0
            then seen := cycle
          done;
          !seen
        in
        check Alcotest.int "baseline signal arrival" 4 (arrival (mk_ring ()));
        List.iter
          (fun (seed, vis, sig_at) ->
            let a = probe seed and b = probe seed in
            check Alcotest.int (Fmt.str "seed %d reproducible" seed) a b;
            check Alcotest.int (Fmt.str "seed %d visibility" seed) vis a;
            check Alcotest.int
              (Fmt.str "seed %d signal arrival" seed)
              sig_at
              (arrival (delayed_ring seed)))
          [ (1, 0, 13); (42, 0, 9); (1337, 0, 17) ]);
    tc "lockstep holds under perturbation" (fun () ->
        (* jitter only delays hops; a signal must still never outrun the
           data it guards, at any node, under any seed *)
        List.iter
          (fun seed ->
            let r = delayed_ring ~n:8 seed in
            for k = 0 to 6 do
              ignore
                (Ring.try_store r ~node:0 ~addr:(64 + k) ~value:(k + 1)
                   ~cycle:0)
            done;
            ignore (Ring.try_signal r ~node:0 ~seg:0 ~cycle:0);
            for cycle = 0 to 200 do
              Ring.tick r ~cycle;
              List.iter
                (fun node ->
                  if
                    Ring.signals_satisfied r ~node ~seg:0 ~origin:0
                      ~threshold:1
                  then
                    check Alcotest.int
                      (Fmt.str "seed %d node %d cycle %d guarded value" seed
                         node cycle)
                      7
                      (fst (Ring.load r ~node ~addr:70 ~cycle)))
                [ 1; 3; 5; 7 ]
            done)
          [ 1; 42; 1337 ]);
    tc "abort empties the ring wholesale" (fun () ->
        let r = mk_ring () in
        ignore (Ring.try_store r ~node:0 ~addr:8 ~value:5 ~cycle:0);
        ignore (Ring.try_signal r ~node:1 ~seg:0 ~cycle:0);
        tick_n r ~from:0 3;
        Ring.abort r;
        Alcotest.(check bool) "data drained" true (Ring.data_drained r);
        check Alcotest.int "signals gone" 0
          (Ring.signals_received r ~node:3 ~seg:0 ~origin:1);
        (* aborted stores must NOT reach backing memory *)
        check Alcotest.int "no write-back" 0
          (try Hashtbl.find backing 8 with Not_found -> 0);
        (* the ring is reusable afterwards *)
        Alcotest.(check bool) "accepts new traffic" true
          (Ring.try_store r ~node:0 ~addr:16 ~value:7 ~cycle:10);
        for c = 10 to 40 do Ring.tick r ~cycle:c done;
        check Alcotest.int "new store circulates" 7
          (fst (Ring.load r ~node:2 ~addr:16 ~cycle:41)));
  ]

(* property: random store traffic always drains and, for single-writer
   addresses (the compiler's segment ordering guarantees there are no
   unsynchronized multi-writer races), the last store is what every node
   reads afterwards *)
let prop_circulation =
  QCheck.Test.make ~name:"random traffic drains; last store wins everywhere"
    ~count:40
    QCheck.(list_of_size (Gen.int_range 1 30)
       (pair (int_range 0 3) (pair (int_range 0 7) (int_range 1 99))))
    (fun ops ->
      let r = mk_ring ~n:4 () in
      let last = Hashtbl.create 8 in
      List.iteri
        (fun i (node, (slot, v)) ->
          (* one writer per address *)
          let addr = 64 + (node * 16) + slot in
          (* retry until accepted, ticking in between *)
          let rec go c =
            if Ring.try_store r ~node ~addr ~value:v ~cycle:c then c
            else begin
              Ring.tick r ~cycle:c;
              go (c + 1)
            end
          in
          let c = go (i * 3) in
          Ring.tick r ~cycle:c;
          Hashtbl.replace last addr v)
        ops;
      let base = 3 * List.length ops in
      for c = base to base + 60 do
        Ring.tick r ~cycle:c
      done;
      Ring.data_drained r
      && Hashtbl.fold
           (fun addr v acc ->
             acc
             && List.for_all
                  (fun node ->
                    fst (Ring.load r ~node ~addr ~cycle:(base + 100)) = v)
                  [ 0; 1; 2; 3 ])
           last true)

let props = [ QCheck_alcotest.to_alcotest prop_circulation ]

(* ---- lossy-ring fault protocol ------------------------------------------ *)

(* A ring whose every link send is attacked by the given plan. *)
let mk_faulty ?(n = 4) plan () =
  mk_ring ~n ~cfg_f:(fun c -> { c with Ring.faults = Some plan }) ()

(* Drive [stores] through [r] (retrying on injection back-pressure),
   then tick until drained (bounded), and return the cycle reached. *)
let push_and_drain r stores =
  let c = ref 0 in
  List.iter
    (fun (node, addr, value) ->
      while not (Ring.try_store r ~node ~addr ~value ~cycle:!c) do
        Ring.tick r ~cycle:!c;
        incr c
      done;
      Ring.tick r ~cycle:!c;
      incr c)
    stores;
  let budget = ref 50_000 in
  while (not (Ring.drained r)) && !budget > 0 do
    Ring.tick r ~cycle:!c;
    incr c;
    decr budget
  done;
  (* a few extra ticks so stale retransmission timers expire quietly *)
  for _ = 1 to 16 do
    Ring.tick r ~cycle:!c;
    incr c
  done;
  Alcotest.(check bool) "drained under faults" true (Ring.drained r);
  !c

let all_nodes_see r ~n ~addr ~value ~cycle =
  for node = 0 to n - 1 do
    check Alcotest.int
      (Fmt.str "node %d sees %d" node addr)
      value
      (fst (Ring.load r ~node ~addr ~cycle))
  done

let fault_tests =
  [
    tc "fault plan round-trips through its string form" (fun () ->
        let p =
          Ring.faulty ~drop:5 ~dup:3 ~reorder:2 ~corrupt:1
            ~fail_stop:(3, 50_000) ~seed:42 ()
        in
        check Alcotest.string "printed form"
          "seed=42,drop=5,dup=3,reorder=2,corrupt=1,kill=3@50000"
          (Ring.fault_plan_to_string p);
        List.iter
          (fun p ->
            match Ring.fault_plan_of_string (Ring.fault_plan_to_string p) with
            | Ok p' -> Alcotest.(check bool) "round-trip" true (p = p')
            | Error m -> Alcotest.fail m)
          [ p; Ring.faulty ~delay:2 ~drop:999 ~seed:7 ();
            Ring.faulty ~dup:500 ~reorder:500 ~seed:1 () ];
        List.iter
          (fun (spec, why) ->
            match Ring.fault_plan_of_string spec with
            | Ok _ -> Alcotest.fail (why ^ " accepted: " ^ spec)
            | Error _ -> ())
          [
            ("drop=1001", "rate out of range");
            ("kill=3", "kill without @CYCLE");
            ("frob=1", "unknown key");
            ("delay=-1", "negative delay");
            ("drop=500,corrupt=500", "drop+corrupt that never delivers");
            ("drop=1000", "drop that never delivers");
            ("drop=400,dup=400,reorder=300", "rates summing past 1000");
          ]);
    tc "create refuses a fail-stop of a node the ring lacks" (fun () ->
        match mk_faulty (Ring.faulty ~fail_stop:(4, 100) ~seed:1 ()) () with
        | _ -> Alcotest.fail "kill=4 accepted on a 4-node ring"
        | exception Invalid_argument _ -> ());
    tc "zero-rate plan is exact: no faults, no retransmits" (fun () ->
        let r = mk_faulty (Ring.faulty ~seed:9 ()) () in
        let c = push_and_drain r [ (0, 64, 7); (1, 72, 8); (2, 80, 9) ] in
        all_nodes_see r ~n:4 ~addr:64 ~value:7 ~cycle:c;
        check Alcotest.int "faults" 0 (Ring.faults_injected r);
        check Alcotest.int "retransmits" 0 (Ring.retransmits r));
    tc "heavy drops: retransmission still delivers everywhere" (fun () ->
        let r = mk_faulty (Ring.faulty ~drop:300 ~seed:1 ()) () in
        let c = push_and_drain r [ (0, 64, 1); (1, 72, 2); (3, 80, 3) ] in
        all_nodes_see r ~n:4 ~addr:64 ~value:1 ~cycle:c;
        all_nodes_see r ~n:4 ~addr:72 ~value:2 ~cycle:c;
        all_nodes_see r ~n:4 ~addr:80 ~value:3 ~cycle:c;
        Alcotest.(check bool) "dropped something" true
          (Ring.faults_injected r > 0);
        Alcotest.(check bool) "retransmitted" true (Ring.retransmits r > 0));
    tc "duplicates are discarded by the hop-sequence check" (fun () ->
        let r = mk_faulty (Ring.faulty ~dup:400 ~seed:2 ()) () in
        let c = push_and_drain r [ (0, 64, 5); (2, 72, 6) ] in
        all_nodes_see r ~n:4 ~addr:64 ~value:5 ~cycle:c;
        all_nodes_see r ~n:4 ~addr:72 ~value:6 ~cycle:c;
        Alcotest.(check bool) "dups detected" true (Ring.dups_detected r > 0));
    tc "corruption is caught by the checksum and retransmitted" (fun () ->
        let r = mk_faulty (Ring.faulty ~corrupt:300 ~seed:3 ()) () in
        let c = push_and_drain r [ (0, 64, 11); (1, 72, 12) ] in
        all_nodes_see r ~n:4 ~addr:64 ~value:11 ~cycle:c;
        all_nodes_see r ~n:4 ~addr:72 ~value:12 ~cycle:c;
        Alcotest.(check bool) "corrupts detected" true
          (Ring.corrupts_detected r > 0));
    tc "reordering cannot reorder acceptance (go-back-N in-order)" (fun () ->
        (* two stores to the same address from the same node: the second
           must win at every node no matter how the wires shuffle *)
        let r = mk_faulty (Ring.faulty ~reorder:400 ~seed:4 ()) () in
        let c = push_and_drain r [ (0, 64, 1); (0, 64, 2); (0, 64, 3) ] in
        all_nodes_see r ~n:4 ~addr:64 ~value:3 ~cycle:c);
    tc "all four classes at once converge to the truth" (fun () ->
        let r =
          mk_faulty
            (Ring.faulty ~drop:120 ~dup:120 ~reorder:120 ~corrupt:120 ~seed:5
               ())
            ()
        in
        (* each node repeatedly writes its own address: per-source
           in-order delivery makes the last value the winner everywhere
           (cross-node write ordering is the wait/signal protocol's job,
           not the ring's) *)
        let stores =
          List.init 12 (fun i -> (i mod 4, 64 + (8 * (i mod 4)), 100 + i))
        in
        let c = push_and_drain r stores in
        all_nodes_see r ~n:4 ~addr:64 ~value:108 ~cycle:c;
        all_nodes_see r ~n:4 ~addr:72 ~value:109 ~cycle:c;
        all_nodes_see r ~n:4 ~addr:80 ~value:110 ~cycle:c;
        all_nodes_see r ~n:4 ~addr:88 ~value:111 ~cycle:c;
        (* pinned: the schedule this plan has always produced *)
        check Alcotest.int "drain cycle" 328 c;
        check Alcotest.int "faults injected" 44 (Ring.faults_injected r);
        check Alcotest.int "retransmits" 47 (Ring.retransmits r);
        check Alcotest.int "drops detected" 20 (Ring.drops_detected r);
        check Alcotest.int "dups detected" 7 (Ring.dups_detected r);
        check Alcotest.int "corrupts detected" 13 (Ring.corrupts_detected r));
    tc "fault-free ring and zero-rate faulty ring agree message-for-message"
      (fun () ->
        let stores = List.init 8 (fun i -> (i mod 4, 64 + (8 * i), i)) in
        let a = mk_ring () in
        let ca = push_and_drain a stores in
        let b = mk_faulty (Ring.faulty ~seed:77 ()) () in
        let cb = push_and_drain b stores in
        check Alcotest.int "same drain cycle" ca cb;
        List.iter
          (fun (_, addr, v) ->
            all_nodes_see a ~n:4 ~addr ~value:v ~cycle:ca;
            all_nodes_see b ~n:4 ~addr ~value:v ~cycle:cb)
          stores);
    tc "kill_node: dead node forwards and retires but never applies"
      (fun () ->
        let r = mk_ring () in
        let lost_d, lost_s = Ring.kill_node r ~node:2 ~cycle:0 in
        check Alcotest.int "no data lost at rest" 0 lost_d;
        check Alcotest.int "no sig lost at rest" 0 lost_s;
        Alcotest.(check bool) "dead" true (Ring.node_dead r ~node:2);
        check Alcotest.int "dead count" 1 (Ring.dead_nodes r);
        check Alcotest.int "reknits" 1 (Ring.reknits r);
        (* idempotent *)
        ignore (Ring.kill_node r ~node:2 ~cycle:1);
        check Alcotest.int "still one reknit" 1 (Ring.reknits r);
        ignore (Ring.try_store r ~node:0 ~addr:64 ~value:9 ~cycle:1);
        tick_n r ~from:1 40;
        Alcotest.(check bool) "drained through the dead node" true
          (Ring.drained r);
        (* survivors see the store; the dead node's array was never
           updated, so its local copy (a miss served by the owner path)
           still resolves to the authoritative value *)
        all_nodes_see r ~n:4 ~addr:64 ~value:9 ~cycle:60);
    tc "kill_node reports in-flight injections as losses" (fun () ->
        let r = mk_ring () in
        ignore (Ring.try_store r ~node:2 ~addr:64 ~value:9 ~cycle:0);
        (* no tick: the message is still in node 2's injection queue *)
        let lost_d, _ = Ring.kill_node r ~node:2 ~cycle:0 in
        check Alcotest.int "lost the queued store" 1 lost_d;
        tick_n r ~from:0 40;
        Alcotest.(check bool) "accounting still drains" true (Ring.drained r));
    tc "describe and snapshot expose in-flight and fault counters" (fun () ->
        let r = mk_faulty (Ring.faulty ~drop:200 ~seed:6 ()) () in
        ignore (Ring.try_store r ~node:0 ~addr:64 ~value:1 ~cycle:0);
        Ring.tick r ~cycle:0;
        let d = Ring.describe r in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "describe has inflight" true
          (contains d "inflight: data=");
        let infl_d, infl_s = Ring.inflight_counts r in
        Alcotest.(check bool) "inflight data positive" true (infl_d >= 1);
        check Alcotest.int "inflight sig zero" 0 infl_s;
        match Ring.snapshot r with
        | Helix_obs.Json.Obj kvs ->
            List.iter
              (fun k ->
                Alcotest.(check bool) k true (List.mem_assoc k kvs))
              [ "inflight_data"; "inflight_sig"; "retransmits";
                "drops_detected"; "faults_injected"; "reknits" ]
        | _ -> Alcotest.fail "snapshot not an object");
  ]

let () =
  Alcotest.run "ring"
    [
      ("node-array", node_array_tests);
      ("signal-buffer", signal_tests);
      ("signal-buffer-properties", sb_property_tests);
      ("owner", owner_tests);
      ("ring", ring_tests);
      ("regressions", regression_tests);
      ("fault-injection", jitter_tests);
      ("fault-protocol", fault_tests);
      ("properties", props);
    ]
