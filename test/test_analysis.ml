open Helix_ir
open Helix_analysis

(* Tests for the analysis layer: dominators, loops, dataflow, def-use,
   alias tiers, induction variables, predictable classification and the
   dependence analysis (static and dynamic). *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* hand-built CFG helper: blocks from an adjacency description *)
let func_of_edges ~entry (edges : (int * Ir.terminator) list) : Ir.func =
  let f = Ir.create_func "g" entry in
  f.Ir.f_next_label <- 1 + List.fold_left (fun a (l, _) -> max a l) 0 edges;
  f.Ir.f_next_reg <- 1;
  List.iter
    (fun (l, term) ->
      Ir.add_block f { Ir.b_label = l; b_instrs = []; b_term = term })
    edges;
  f

(* a diamond with a self-loop on one arm:
   0 -> 1 | 2; 1 -> 3; 2 -> 2 | 3; 3 -> ret *)
let diamond_loop () =
  func_of_edges ~entry:0
    [
      (0, Ir.Br (Ir.Imm 1, 1, 2));
      (1, Ir.Jmp 3);
      (2, Ir.Br (Ir.Imm 0, 2, 3));
      (3, Ir.Ret None);
    ]

(* canonical loop built with the builder; returns (func, sum_reg) *)
let sum_loop ?(from = 0) ?(below = 10) () =
  let b = Builder.create "main" in
  let sum = Builder.mov b (Ir.Imm 0) in
  let _ =
    Builder.counted_loop b ~from:(Ir.Imm from) ~below:(Ir.Imm below) (fun i ->
        let s = Builder.add b (Ir.Reg sum) (Ir.Reg i) in
        Builder.mov_to b sum (Ir.Reg s))
  in
  Builder.ret b (Some (Ir.Reg sum));
  (Builder.func b, sum)

(* ---- dominance -------------------------------------------------------- *)

(* Brute-force dominance: a dominates b iff removing a makes b
   unreachable from the entry. *)
let brute_dominates cfg a b =
  if a = b then true
  else begin
    let visited = Hashtbl.create 17 in
    let rec dfs l =
      if l <> a && not (Hashtbl.mem visited l) then begin
        Hashtbl.replace visited l ();
        List.iter dfs (Cfg.successors cfg l)
      end
    in
    let entry = Cfg.entry cfg in
    if entry = a then true
    else begin
      dfs entry;
      not (Hashtbl.mem visited b)
    end
  end

let dominance_tests =
  [
    tc "diamond: entry dominates all, arms dominate nothing" (fun () ->
        let f = diamond_loop () in
        let cfg = Cfg.of_func f in
        let dom = Dominance.compute cfg in
        List.iter
          (fun l ->
            Alcotest.(check bool) (Fmt.str "0 dom %d" l) true
              (Dominance.dominates dom 0 l))
          [ 0; 1; 2; 3 ];
        Alcotest.(check bool) "1 !dom 3" false (Dominance.dominates dom 1 3);
        Alcotest.(check bool) "2 !dom 3" false (Dominance.dominates dom 2 3));
    tc "dominance agrees with brute force on builder loops" (fun () ->
        let f, _ = sum_loop () in
        let cfg = Cfg.of_func f in
        let dom = Dominance.compute cfg in
        let blocks = Cfg.reachable_blocks cfg in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                check Alcotest.bool
                  (Fmt.str "dom %d %d" a b)
                  (brute_dominates cfg a b)
                  (Dominance.dominates dom a b))
              blocks)
          blocks);
    tc "dominance agrees with brute force on diamond-loop" (fun () ->
        let f = diamond_loop () in
        let cfg = Cfg.of_func f in
        let dom = Dominance.compute cfg in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                check Alcotest.bool
                  (Fmt.str "dom %d %d" a b)
                  (brute_dominates cfg a b)
                  (Dominance.dominates dom a b))
              [ 0; 1; 2; 3 ])
          [ 0; 1; 2; 3 ]);
    tc "idom of entry is entry" (fun () ->
        let f = diamond_loop () in
        let dom = Dominance.compute (Cfg.of_func f) in
        check Alcotest.(option int) "idom" (Some 0) (Dominance.idom dom 0));
  ]

(* ---- loops ------------------------------------------------------------ *)

let loops_tests =
  [
    tc "counted loop discovered with correct shape" (fun () ->
        let f, _ = sum_loop () in
        let lt = Loops.compute (Cfg.of_func f) in
        check Alcotest.int "one loop" 1 (Loops.num_loops lt);
        let lp = List.hd (Loops.loops lt) in
        check Alcotest.int "depth" 1 lp.Loops.l_depth;
        check Alcotest.int "one latch" 1 (List.length lp.Loops.l_latches);
        check Alcotest.int "one exit" 1 (List.length lp.Loops.l_exits));
    tc "nested loops have increasing depth" (fun () ->
        let b = Builder.create "main" in
        let _ =
          Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 3) (fun _ ->
              ignore
                (Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 3)
                   (fun _ -> ())))
        in
        Builder.ret b None;
        let lt = Loops.compute (Cfg.of_func (Builder.func b)) in
        check Alcotest.int "two loops" 2 (Loops.num_loops lt);
        let depths =
          List.sort compare
            (List.map (fun l -> l.Loops.l_depth) (Loops.loops lt))
        in
        check Alcotest.(list int) "depths" [ 1; 2 ] depths;
        check Alcotest.int "one innermost" 1
          (List.length (Loops.innermost_loops lt)));
    tc "self-loop detected" (fun () ->
        let f = diamond_loop () in
        let lt = Loops.compute (Cfg.of_func f) in
        check Alcotest.int "one loop" 1 (Loops.num_loops lt);
        let lp = List.hd (Loops.loops lt) in
        check Alcotest.int "header" 2 lp.Loops.l_header);
    tc "loop body closed under in-loop successors" (fun () ->
        let f, _ = sum_loop () in
        let cfg = Cfg.of_func f in
        let lt = Loops.compute cfg in
        let lp = List.hd (Loops.loops lt) in
        Loops.Label_set.iter
          (fun l ->
            List.iter
              (fun s ->
                let inside = Loops.contains lp s in
                let is_exit =
                  List.exists (fun (x, y) -> x = l && y = s) lp.Loops.l_exits
                in
                Alcotest.(check bool) "succ in loop or exit" true
                  (inside || is_exit))
              (Cfg.successors cfg l))
          lp.Loops.l_body);
    tc "innermost_containing picks deepest" (fun () ->
        let b = Builder.create "main" in
        let inner_header = ref (-1) in
        let _ =
          Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 3) (fun _ ->
              let h, _ =
                Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 3)
                  (fun _ -> ())
              in
              inner_header := h)
        in
        Builder.ret b None;
        let lt = Loops.compute (Cfg.of_func (Builder.func b)) in
        match Loops.innermost_containing lt !inner_header with
        | Some lp -> check Alcotest.int "depth 2" 2 lp.Loops.l_depth
        | None -> Alcotest.fail "inner loop not found");
  ]

(* ---- liveness / defuse ----------------------------------------------- *)

let dataflow_tests =
  [
    tc "liveness: loop accumulator live at header" (fun () ->
        let f, sum = sum_loop () in
        let cfg = Cfg.of_func f in
        let live = Liveness.compute cfg in
        let lt = Loops.compute cfg in
        let lp = List.hd (Loops.loops lt) in
        Alcotest.(check bool) "sum live" true
          (Dataflow.Int_set.mem sum (live.Liveness.live_in lp.Loops.l_header)));
    tc "liveness: dead temp not live at entry" (fun () ->
        let b = Builder.create "main" in
        let t = Builder.mov b (Ir.Imm 1) in
        let dead = Builder.add b (Ir.Reg t) (Ir.Imm 2) in
        Builder.ret b (Some (Ir.Reg t));
        let f = Builder.func b in
        let live = Liveness.compute (Cfg.of_func f) in
        Alcotest.(check bool) "dead temp" false
          (Dataflow.Int_set.mem dead (live.Liveness.live_in f.Ir.f_entry)));
    tc "defuse counts defs and uses" (fun () ->
        let f, sum = sum_loop () in
        let du = Defuse.compute f in
        check Alcotest.int "defs of sum" 2 (Defuse.num_defs du sum);
        Alcotest.(check bool) "sum used" true (Defuse.uses_of du sum <> []));
    tc "unique_def" (fun () ->
        let b = Builder.create "main" in
        let once = Builder.mov b (Ir.Imm 1) in
        let twice = Builder.mov b (Ir.Imm 2) in
        Builder.mov_to b twice (Ir.Imm 3);
        let r = Builder.add b (Ir.Reg once) (Ir.Reg twice) in
        Builder.ret b (Some (Ir.Reg r));
        let du = Defuse.compute (Builder.func b) in
        Alcotest.(check bool) "once unique" true
          (Defuse.unique_def du once <> None);
        Alcotest.(check bool) "twice not unique" true
          (Defuse.unique_def du twice = None));
  ]

(* ---- alias tiers -------------------------------------------------------- *)

let an ?(flow = -1) ?(path = "") ?(ty = "") ?affine site =
  Ir.annot ~flow ~path ~ty ?affine site

let alias_tests =
  [
    tc "different sites never alias" (fun () ->
        Alcotest.(check bool) "no alias" false
          (Alias.may_alias Alias.vllpa (an 1) (an 2)));
    tc "unknown site aliases everything" (fun () ->
        Alcotest.(check bool) "alias" true
          (Alias.may_alias Alias.best (an (-1)) (an ~path:"x" ~ty:"t" 3)));
    tc "flow ids separate only at flow tier" (fun () ->
        let a = an ~flow:1 1 and b = an ~flow:2 1 in
        Alcotest.(check bool) "vllpa aliases" true
          (Alias.may_alias Alias.vllpa a b);
        Alcotest.(check bool) "flow separates" false
          (Alias.may_alias Alias.vllpa_flow a b));
    tc "paths separate only at path tier" (fun () ->
        let a = an ~path:"n.next" 1 and b = an ~path:"n.data" 1 in
        Alcotest.(check bool) "flow aliases" true
          (Alias.may_alias Alias.vllpa_flow a b);
        Alcotest.(check bool) "path separates" false
          (Alias.may_alias Alias.vllpa_path a b));
    tc "types separate only at type tier" (fun () ->
        let a = an ~ty:"byte" 1 and b = an ~ty:"int" 1 in
        Alcotest.(check bool) "path aliases" true
          (Alias.may_alias Alias.vllpa_path a b);
        Alcotest.(check bool) "type separates" false
          (Alias.may_alias Alias.vllpa_type a b));
    tc "affine equal offsets: carried removed at flow tier" (fun () ->
        let a = an ~affine:0 1 in
        Alcotest.(check bool) "same-iteration alias" true
          (Alias.may_alias Alias.vllpa_flow a a);
        Alcotest.(check bool) "vllpa keeps carried" true
          (Alias.may_alias_carried Alias.vllpa a a);
        Alcotest.(check bool) "flow removes carried" false
          (Alias.may_alias_carried Alias.vllpa_flow a a));
    tc "affine distinct offsets stay carried" (fun () ->
        let a = an ~affine:0 1 and b = an ~affine:1 1 in
        Alcotest.(check bool) "carried kept" true
          (Alias.may_alias_carried Alias.best a b));
    tc "pure libcalls transparent at every tier" (fun () ->
        List.iter
          (fun tier ->
            let e =
              Alias.effect_of_instr tier (Ir.Libcall (0, Ir.Lc_hash, []))
            in
            Alcotest.(check bool) "no effect" false e.Alias.e_opaque)
          Alias.ladder);
    tc "memory libcalls opaque until lib tier" (fun () ->
        let e t = Alias.effect_of_instr t (Ir.Libcall (0, Ir.Lc_memchr, [])) in
        Alcotest.(check bool) "opaque at type tier" true
          (e Alias.vllpa_type).Alias.e_opaque;
        Alcotest.(check bool) "transparent at lib tier" false
          (e Alias.vllpa_lib).Alias.e_opaque);
    tc "tier partial order" (fun () ->
        Alcotest.(check bool) "vllpa <= best" true (Alias.leq Alias.vllpa Alias.best);
        Alcotest.(check bool) "best <= vllpa" false
          (Alias.leq Alias.best Alias.vllpa));
  ]

let gen_annot =
  QCheck.Gen.(
    int_range 0 3 >>= fun site ->
    int_range (-1) 2 >>= fun flow ->
    oneofl [ ""; "a"; "b" ] >>= fun path ->
    oneofl [ ""; "t1"; "t2" ] >>= fun ty ->
    oneofl [ None; Some 0; Some 1 ] >>= fun affine ->
    return (Ir.annot ~flow ~path ~ty ?affine site))

let prop_tier_monotone =
  QCheck.Test.make ~name:"more precise tiers only remove aliasing" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_annot gen_annot))
    (fun (a, b) ->
      let imp p q = (not p) || q in
      let rec pairs = function
        | t1 :: (t2 :: _ as rest) ->
            imp (not (Alias.may_alias t1 a b)) (not (Alias.may_alias t2 a b))
            && pairs rest
        | _ -> true
      in
      pairs Alias.ladder)

let prop_carried_subset =
  QCheck.Test.make ~name:"carried aliasing implies same-iteration aliasing"
    ~count:500
    (QCheck.make QCheck.Gen.(pair gen_annot gen_annot))
    (fun (a, b) ->
      List.for_all
        (fun t ->
          (not (Alias.may_alias_carried t a b)) || Alias.may_alias t a b)
        Alias.ladder)

(* ---- induction & predictable ------------------------------------------- *)

(* loop with: basic IV, poly2 q (q += s after s += 2), accumulator sum,
   max m, and an unpredictable register u *)
let rich_loop () =
  let b = Builder.create "main" in
  let sum = Builder.mov b (Ir.Imm 0) in
  let m = Builder.mov b (Ir.Imm min_int) in
  let q = Builder.mov b (Ir.Imm 0) in
  let s = Builder.mov b (Ir.Imm 1) in
  let u = Builder.mov b (Ir.Imm 3) in
  let _ =
    Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 8) (fun i ->
        let s' = Builder.add b (Ir.Reg s) (Ir.Imm 2) in
        Builder.mov_to b s (Ir.Reg s');
        let q' = Builder.add b (Ir.Reg q) (Ir.Reg s) in
        Builder.mov_to b q (Ir.Reg q');
        let hv = Builder.libcall b Ir.Lc_hash [ Ir.Reg i ] in
        let hv7 = Builder.band b (Ir.Reg hv) (Ir.Imm 7) in
        let a = Builder.add b (Ir.Reg sum) (Ir.Reg hv7) in
        Builder.mov_to b sum (Ir.Reg a);
        let mx = Builder.imax b (Ir.Reg m) (Ir.Reg i) in
        Builder.mov_to b m (Ir.Reg mx);
        let h = Builder.libcall b Ir.Lc_hash [ Ir.Reg u ] in
        Builder.mov_to b u (Ir.Reg h))
  in
  let t0 = Builder.add b (Ir.Reg sum) (Ir.Reg m) in
  let t1 = Builder.add b (Ir.Reg t0) (Ir.Reg q) in
  let t2 = Builder.add b (Ir.Reg t1) (Ir.Reg u) in
  Builder.ret b (Some (Ir.Reg t2));
  (Builder.func b, sum, m, q, s, u)

let classify_of f =
  let cfg = Cfg.of_func f in
  let lt = Loops.compute cfg in
  let lp = List.find (fun l -> l.Loops.l_depth = 1) (Loops.loops lt) in
  (Predictable.classify f cfg lp, lp, cfg)

let category_of cls r =
  match List.find_opt (fun c -> c.Predictable.c_reg = r) cls with
  | Some c -> Predictable.category_name c.Predictable.c_category
  | None -> "absent"

let induction_tests =
  [
    tc "rich loop classification" (fun () ->
        let f, sum, m, q, s, u = rich_loop () in
        let cls, _, _ = classify_of f in
        check Alcotest.string "sum" "reduction" (category_of cls sum);
        check Alcotest.string "max" "reduction" (category_of cls m);
        check Alcotest.string "poly2" "induction" (category_of cls q);
        check Alcotest.string "step" "induction" (category_of cls s);
        check Alcotest.string "unpredictable" "unpredictable"
          (category_of cls u));
    tc "reduction invalidated by extra read" (fun () ->
        let b = Builder.create "main" in
        let acc = Builder.mov b (Ir.Imm 0) in
        let probe = Builder.mov b (Ir.Imm 0) in
        let _ =
          Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 5) (fun i ->
              let hv = Builder.libcall b Ir.Lc_hash [ Ir.Reg i ] in
              let a = Builder.add b (Ir.Reg acc) (Ir.Reg hv) in
              Builder.mov_to b acc (Ir.Reg a);
              let p = Builder.bxor b (Ir.Reg probe) (Ir.Reg acc) in
              Builder.mov_to b probe (Ir.Reg p))
        in
        let r = Builder.add b (Ir.Reg acc) (Ir.Reg probe) in
        Builder.ret b (Some (Ir.Reg r));
        let cls, _, _ = classify_of (Builder.func b) in
        check Alcotest.string "acc demoted" "unpredictable"
          (category_of cls acc));
    tc "subtraction accumulator is a reduction" (fun () ->
        let b = Builder.create "main" in
        let acc = Builder.mov b (Ir.Imm 100) in
        let _ =
          Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 5) (fun i ->
              let x = Builder.mul b (Ir.Reg i) (Ir.Imm 3) in
              let a = Builder.sub b (Ir.Reg acc) (Ir.Reg x) in
              Builder.mov_to b acc (Ir.Reg a))
        in
        Builder.ret b (Some (Ir.Reg acc));
        let cls, _, _ = classify_of (Builder.func b) in
        check Alcotest.string "sub acc" "reduction" (category_of cls acc));
    tc "HCCv1 (no poly2) sees only linear IVs" (fun () ->
        let f, _, _, q, s, _ = rich_loop () in
        let cfg = Cfg.of_func f in
        let lt = Loops.compute cfg in
        let lp = List.find (fun l -> l.Loops.l_depth = 1) (Loops.loops lt) in
        let cls = Predictable.classify ~poly2:false f cfg lp in
        check Alcotest.string "step still linear" "induction"
          (category_of cls s);
        Alcotest.(check bool) "poly2 not induction" true
          (category_of cls q <> "induction"));
    tc "invariant operand detection" (fun () ->
        let f, _, _, _, _, _ = rich_loop () in
        let lt = Loops.compute (Cfg.of_func f) in
        let lp = List.find (fun l -> l.Loops.l_depth = 1) (Loops.loops lt) in
        Alcotest.(check bool) "imm invariant" true
          (Induction.invariant f lp (Ir.Imm 3)));
    tc "update_sites finds the mov idiom" (fun () ->
        let f, sum, _, _, _, _ = rich_loop () in
        let du = Defuse.compute f in
        let lt = Loops.compute (Cfg.of_func f) in
        let lp = List.find (fun l -> l.Loops.l_depth = 1) (Loops.loops lt) in
        match Induction.update_sites f du lp sum with
        | Some us ->
            Alcotest.(check bool) "op is add" true
              (us.Induction.us_op = Ir.Add)
        | None -> Alcotest.fail "expected update sites");
  ]

(* ---- dependence analysis ------------------------------------------------ *)

let dep_loop ~affine () =
  (* store a[i] (optionally affine) + read-modify-write of cell c *)
  let b = Builder.create "main" in
  let an_a = an ?affine:(if affine then Some 0 else None) ~path:"a[]" 1 in
  let an_c = an ~path:"c" 2 in
  let _ =
    Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 6) (fun i ->
        Builder.store b ~offset:(Ir.Reg i) ~an:an_a (Ir.Imm 100) (Ir.Reg i);
        let v = Builder.load b ~an:an_c (Ir.Imm 500) in
        let v1 = Builder.add b (Ir.Reg v) (Ir.Imm 1) in
        Builder.store b ~an:an_c (Ir.Imm 500) (Ir.Reg v1))
  in
  Builder.ret b (Some (Ir.Imm 0));
  let p = Ir.create_program () in
  Ir.add_func p (Builder.func b);
  p

let deps_of tier p =
  let f = Ir.main_func p in
  let lt = Loops.compute (Cfg.of_func f) in
  let lp = List.hd (Loops.loops lt) in
  Depend.compute tier p f lp

let depend_tests =
  [
    tc "flow tier removes affine self-dependence" (fun () ->
        let p = dep_loop ~affine:true () in
        let d_base = deps_of Alias.vllpa p in
        let d_flow = deps_of Alias.vllpa_flow p in
        check Alcotest.int "vllpa edges" 3
          (Depend.Edge_set.cardinal d_base.Depend.ld_edges);
        check Alcotest.int "flow edges" 2
          (Depend.Edge_set.cardinal d_flow.Depend.ld_edges));
    tc "cell conflict survives every tier" (fun () ->
        let p = dep_loop ~affine:true () in
        List.iter
          (fun tier ->
            let d = deps_of tier p in
            Alcotest.(check bool) "has edges" true
              (not (Depend.Edge_set.is_empty d.Depend.ld_edges)))
          Alias.ladder);
    tc "shared classes separate disjoint sites" (fun () ->
        let p = dep_loop ~affine:false () in
        let d = deps_of Alias.best p in
        let classes = Depend.shared_classes Alias.best d.Depend.ld_shared in
        check Alcotest.int "two classes" 2 (List.length classes));
    tc "call summaries create edges" (fun () ->
        let p = Ir.create_program () in
        let hb = Builder.create "helper" in
        Builder.store hb ~an:(an 9) (Ir.Imm 900) (Ir.Imm 1);
        Builder.ret hb None;
        Ir.add_func p (Builder.func hb);
        let b = Builder.create "main" in
        let _ =
          Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 3) (fun _ ->
              Builder.call b "helper" [])
        in
        Builder.ret b None;
        Ir.add_func p (Builder.func b);
        let d = deps_of Alias.best p in
        Alcotest.(check bool) "call summary produces edges" true
          (not (Depend.Edge_set.is_empty d.Depend.ld_edges)));
    tc "dynamic collector: RAW across iterations" (fun () ->
        let dyn = Depend.Dynamic.create () in
        let pos1 = { Ir.ip_block = 1; ip_index = 0 } in
        let pos2 = { Ir.ip_block = 1; ip_index = 1 } in
        Depend.Dynamic.new_invocation dyn;
        Depend.Dynamic.access dyn Interp.Write ~pos:pos1 100;
        Depend.Dynamic.begin_iteration dyn;
        Depend.Dynamic.access dyn Interp.Read ~pos:pos2 100;
        check Alcotest.int "one actual edge" 1
          (Depend.Edge_set.cardinal (Depend.Dynamic.actual_edges dyn)));
    tc "dynamic collector: same-iteration conflict is not carried" (fun () ->
        let dyn = Depend.Dynamic.create () in
        let pos1 = { Ir.ip_block = 1; ip_index = 0 } in
        let pos2 = { Ir.ip_block = 1; ip_index = 1 } in
        Depend.Dynamic.new_invocation dyn;
        Depend.Dynamic.access dyn Interp.Write ~pos:pos1 100;
        Depend.Dynamic.access dyn Interp.Read ~pos:pos2 100;
        check Alcotest.int "no carried edge" 0
          (Depend.Edge_set.cardinal (Depend.Dynamic.actual_edges dyn)));
    tc "dynamic collector: invocation reset forgets writers" (fun () ->
        let dyn = Depend.Dynamic.create () in
        let pos = { Ir.ip_block = 1; ip_index = 0 } in
        Depend.Dynamic.new_invocation dyn;
        Depend.Dynamic.access dyn Interp.Write ~pos 100;
        Depend.Dynamic.new_invocation dyn;
        Depend.Dynamic.access dyn Interp.Write ~pos 100;
        check Alcotest.int "no cross-invocation edge" 0
          (Depend.Edge_set.cardinal (Depend.Dynamic.actual_edges dyn)));
    tc "dynamic collector: WAR across iterations" (fun () ->
        let dyn = Depend.Dynamic.create () in
        let pr = { Ir.ip_block = 1; ip_index = 0 } in
        let pw = { Ir.ip_block = 1; ip_index = 1 } in
        Depend.Dynamic.new_invocation dyn;
        Depend.Dynamic.access dyn Interp.Read ~pos:pr 7;
        Depend.Dynamic.begin_iteration dyn;
        Depend.Dynamic.access dyn Interp.Write ~pos:pw 7;
        check Alcotest.int "WAR edge" 1
          (Depend.Edge_set.cardinal (Depend.Dynamic.actual_edges dyn)));
    tc "accuracy helper" (fun () ->
        let e1 =
          Depend.norm_edge
            { Ir.ip_block = 1; ip_index = 0 }
            { Ir.ip_block = 1; ip_index = 1 }
        in
        let e2 =
          Depend.norm_edge
            { Ir.ip_block = 2; ip_index = 0 }
            { Ir.ip_block = 2; ip_index = 1 }
        in
        let static = Depend.Edge_set.of_list [ e1; e2 ] in
        let actual = Depend.Edge_set.singleton e1 in
        check (Alcotest.float 0.001) "half" 0.5
          (Depend.accuracy ~static_edges:static ~actual));
  ]

(* ---- dataflow engine and frontiers -------------------------------------- *)

let engine_tests =
  [
    tc "dominance frontier of a diamond join" (fun () ->
        (* 0 -> 1|2, both -> 3: DF(1) = DF(2) = {3} *)
        let f =
          func_of_edges ~entry:0
            [
              (0, Ir.Br (Ir.Imm 1, 1, 2));
              (1, Ir.Jmp 3);
              (2, Ir.Jmp 3);
              (3, Ir.Ret None);
            ]
        in
        let dom = Dominance.compute (Cfg.of_func f) in
        let df = Dominance.frontiers dom in
        check Alcotest.(list int) "DF(1)" [ 3 ] (df 1);
        check Alcotest.(list int) "DF(2)" [ 3 ] (df 2);
        check Alcotest.(list int) "DF(3) empty" [] (df 3));
    tc "forward set problem reaches a fixpoint" (fun () ->
        let f, _ = sum_loop () in
        let cfg = Cfg.of_func f in
        (* trivial gen/kill: every block generates its own label id *)
        let sol =
          Dataflow.set_problem ~direction:Dataflow.Forward
            ~entry_fact:Dataflow.Int_set.empty
            ~gen_kill:(fun l ->
              (Dataflow.Int_set.singleton l, Dataflow.Int_set.empty))
            cfg
        in
        (* at every block, the fact includes all predecessors' labels *)
        List.iter
          (fun l ->
            List.iter
              (fun p ->
                Alcotest.(check bool)
                  (Fmt.str "L%d flows into L%d" p l)
                  true
                  (Dataflow.Int_set.mem p (sol.Dataflow.fact_in l)))
              (Cfg.predecessors cfg l))
          (Cfg.reachable_blocks cfg));
    tc "backward problem mirrors successors" (fun () ->
        let f, _ = sum_loop () in
        let cfg = Cfg.of_func f in
        let sol =
          Dataflow.set_problem ~direction:Dataflow.Backward
            ~entry_fact:Dataflow.Int_set.empty
            ~gen_kill:(fun l ->
              (Dataflow.Int_set.singleton l, Dataflow.Int_set.empty))
            cfg
        in
        List.iter
          (fun l ->
            List.iter
              (fun s ->
                Alcotest.(check bool)
                  (Fmt.str "L%d flows back into L%d" s l)
                  true
                  (Dataflow.Int_set.mem s (sol.Dataflow.fact_out l)))
              (Cfg.successors cfg l))
          (Cfg.reachable_blocks cfg));
  ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_tier_monotone; prop_carried_subset ]

let () =
  Alcotest.run "analysis"
    [
      ("dominance", dominance_tests);
      ("loops", loops_tests);
      ("dataflow", dataflow_tests);
      ("alias", alias_tests);
      ("induction", induction_tests);
      ("depend", depend_tests);
      ("engine", engine_tests);
      ("properties", props);
    ]
