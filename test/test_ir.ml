open Helix_ir

(* Unit and property tests for the IR substrate: types, builder,
   verifier, memory, CFG and the reference interpreter. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* Build a one-function program computing [body] and returning its
   result operand. *)
let prog_of build =
  let b = Builder.create "main" in
  let ret = build b in
  Builder.ret b (Some ret);
  let p = Ir.create_program () in
  Ir.add_func p (Builder.func b);
  p

let run_ret ?mem p =
  let mem = match mem with Some m -> m | None -> Memory.create () in
  match (Interp.run p mem).Interp.ret with
  | Some v -> v
  | None -> Alcotest.fail "no return value"

let eval_binop op a bv =
  let p =
    prog_of (fun b -> Ir.Reg (Builder.binop b op (Ir.Imm a) (Ir.Imm bv)))
  in
  run_ret p

(* ---- interpreter arithmetic ---------------------------------------- *)

let binop_cases =
  [
    (Ir.Add, 7, 5, 12); (Ir.Sub, 7, 5, 2); (Ir.Mul, 7, 5, 35);
    (Ir.Div, 17, 5, 3); (Ir.Rem, 17, 5, 2); (Ir.Div, 17, 0, 0);
    (Ir.Rem, 17, 0, 0); (Ir.And, 12, 10, 8); (Ir.Or, 12, 10, 14);
    (Ir.Xor, 12, 10, 6); (Ir.Shl, 3, 4, 48); (Ir.Shr, 48, 4, 3);
    (Ir.Shr, -8, 1, -4); (Ir.Eq, 4, 4, 1); (Ir.Eq, 4, 5, 0);
    (Ir.Ne, 4, 5, 1); (Ir.Lt, 3, 4, 1); (Ir.Le, 4, 4, 1);
    (Ir.Gt, 5, 4, 1); (Ir.Ge, 3, 4, 0); (Ir.Min, 3, 9, 3);
    (Ir.Max, 3, 9, 9);
  ]

let arithmetic_tests =
  List.map
    (fun (op, a, b, expect) ->
      tc
        (Fmt.str "binop %a %d %d = %d" Pretty.pp_binop op a b expect)
        (fun () -> check Alcotest.int "result" expect (eval_binop op a b)))
    binop_cases

let unop_tests =
  [
    tc "neg" (fun () ->
        check Alcotest.int "neg" (-5)
          (run_ret (prog_of (fun b -> Ir.Reg (Builder.neg b (Ir.Imm 5))))));
    tc "not" (fun () ->
        check Alcotest.int "not" (lnot 5)
          (run_ret (prog_of (fun b -> Ir.Reg (Builder.bnot b (Ir.Imm 5))))));
  ]

(* ---- library calls -------------------------------------------------- *)

let lib_tests =
  [
    tc "abs" (fun () ->
        check Alcotest.int "abs" 7
          (run_ret
             (prog_of (fun b ->
                  Ir.Reg (Builder.libcall b Ir.Lc_abs [ Ir.Imm (-7) ])))));
    tc "min/max" (fun () ->
        let p =
          prog_of (fun b ->
              let m = Builder.libcall b Ir.Lc_min [ Ir.Imm 3; Ir.Imm 8 ] in
              let x = Builder.libcall b Ir.Lc_max [ Ir.Reg m; Ir.Imm 5 ] in
              Ir.Reg x)
        in
        check Alcotest.int "max(min(3,8),5)" 5 (run_ret p));
    tc "log2 values" (fun () ->
        List.iter
          (fun (n, e) -> check Alcotest.int (Fmt.str "log2 %d" n) e (Interp.ilog2 n))
          [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (1023, 9); (1024, 10) ]);
    tc "isqrt exact" (fun () ->
        List.iter
          (fun n ->
            let s = Interp.isqrt n in
            Alcotest.(check bool)
              (Fmt.str "isqrt %d" n)
              true
              (s * s <= n && (s + 1) * (s + 1) > n))
          [ 0; 1; 2; 3; 4; 15; 16; 17; 99; 100; 10_000; 123_456 ]);
    tc "hash deterministic and spread" (fun () ->
        check Alcotest.int "same" (Interp.mix_hash 42) (Interp.mix_hash 42);
        Alcotest.(check bool)
          "different inputs differ" true
          (Interp.mix_hash 1 <> Interp.mix_hash 2));
    tc "rand deterministic per run" (fun () ->
        let p =
          prog_of (fun b ->
              let a = Builder.libcall b Ir.Lc_rand [] in
              let c = Builder.libcall b Ir.Lc_rand [] in
              let d = Builder.add b (Ir.Reg a) (Ir.Reg c) in
              Ir.Reg d)
        in
        check Alcotest.int "two runs equal" (run_ret p) (run_ret p));
    tc "strcmp equal and differing" (fun () ->
        let mem = Memory.create () in
        List.iteri (fun i v -> Memory.store mem (100 + i) v) [ 1; 2; 3 ];
        List.iteri (fun i v -> Memory.store mem (200 + i) v) [ 1; 2; 4 ];
        let p =
          prog_of (fun b ->
              Ir.Reg
                (Builder.libcall b Ir.Lc_strcmp
                   [ Ir.Imm 100; Ir.Imm 200; Ir.Imm 2 ]))
        in
        check Alcotest.int "prefix equal" 0 (run_ret ~mem p);
        let mem2 = Memory.create () in
        List.iteri (fun i v -> Memory.store mem2 (100 + i) v) [ 1; 2; 3 ];
        List.iteri (fun i v -> Memory.store mem2 (200 + i) v) [ 1; 2; 4 ];
        let p3 =
          prog_of (fun b ->
              Ir.Reg
                (Builder.libcall b Ir.Lc_strcmp
                   [ Ir.Imm 100; Ir.Imm 200; Ir.Imm 3 ]))
        in
        Alcotest.(check bool) "differs" true (run_ret ~mem:mem2 p3 < 0));
    tc "memchr found and missing" (fun () ->
        let mem = Memory.create () in
        List.iteri (fun i v -> Memory.store mem (300 + i) v) [ 9; 8; 7; 6 ];
        let find needle =
          let p =
            prog_of (fun b ->
                Ir.Reg
                  (Builder.libcall b Ir.Lc_memchr
                     [ Ir.Imm 300; Ir.Imm needle; Ir.Imm 4 ]))
          in
          run_ret ~mem:(Memory.copy mem) p
        in
        check Alcotest.int "found at 2" 2 (find 7);
        check Alcotest.int "missing" (-1) (find 42));
  ]

(* ---- builder control flow ------------------------------------------ *)

let control_tests =
  [
    tc "counted loop sums" (fun () ->
        let p =
          prog_of (fun b ->
              let sum = Builder.mov b (Ir.Imm 0) in
              let _ =
                Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 10)
                  (fun i ->
                    let s = Builder.add b (Ir.Reg sum) (Ir.Reg i) in
                    Builder.mov_to b sum (Ir.Reg s))
              in
              Ir.Reg sum)
        in
        check Alcotest.int "sum 0..9" 45 (run_ret p));
    tc "counted loop zero trips" (fun () ->
        let p =
          prog_of (fun b ->
              let sum = Builder.mov b (Ir.Imm 7) in
              let _ =
                Builder.counted_loop b ~from:(Ir.Imm 5) ~below:(Ir.Imm 5)
                  (fun _ -> Builder.mov_to b sum (Ir.Imm 0))
              in
              Ir.Reg sum)
        in
        check Alcotest.int "untouched" 7 (run_ret p));
    tc "nested loops" (fun () ->
        let p =
          prog_of (fun b ->
              let sum = Builder.mov b (Ir.Imm 0) in
              let _ =
                Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 4)
                  (fun _ ->
                    let _ =
                      Builder.counted_loop b ~from:(Ir.Imm 0)
                        ~below:(Ir.Imm 3) (fun _ ->
                          let s = Builder.add b (Ir.Reg sum) (Ir.Imm 1) in
                          Builder.mov_to b sum (Ir.Reg s))
                    in
                    ())
              in
              Ir.Reg sum)
        in
        check Alcotest.int "4*3" 12 (run_ret p));
    tc "while loop" (fun () ->
        let p =
          prog_of (fun b ->
              let x = Builder.mov b (Ir.Imm 100) in
              let _ =
                Builder.while_loop b
                  (fun () -> Builder.gt b (Ir.Reg x) (Ir.Imm 3))
                  (fun () ->
                    let h = Builder.shr b (Ir.Reg x) (Ir.Imm 1) in
                    Builder.mov_to b x (Ir.Reg h))
              in
              Ir.Reg x)
        in
        check Alcotest.int "halving" 3 (run_ret p));
    tc "if_ both arms" (fun () ->
        let branchy c =
          prog_of (fun b ->
              let r = Builder.mov b (Ir.Imm 0) in
              Builder.if_ b (Ir.Imm c)
                (fun () -> Builder.mov_to b r (Ir.Imm 1))
                (fun () -> Builder.mov_to b r (Ir.Imm 2));
              Ir.Reg r)
        in
        check Alcotest.int "then" 1 (run_ret (branchy 1));
        check Alcotest.int "else" 2 (run_ret (branchy 0)));
    tc "calls with args and return" (fun () ->
        let p = Ir.create_program () in
        let cb = Builder.create ~params:[ 0; 1 ] "addmul" in
        let s = Builder.add cb (Ir.Reg 0) (Ir.Reg 1) in
        let m = Builder.mul cb (Ir.Reg s) (Ir.Imm 2) in
        Builder.ret cb (Some (Ir.Reg m));
        Ir.add_func p (Builder.func cb);
        let mb = Builder.create "main" in
        let dst = Builder.fresh mb in
        Builder.call mb ~dst "addmul" [ Ir.Imm 3; Ir.Imm 4 ];
        Builder.ret mb (Some (Ir.Reg dst));
        Ir.add_func p (Builder.func mb);
        Verify.check_program p;
        check Alcotest.int "(3+4)*2" 14 (run_ret p));
    tc "fuel exhaustion raises" (fun () ->
        let p =
          prog_of (fun b ->
              let x = Builder.mov b (Ir.Imm 1) in
              let _ =
                Builder.while_loop b
                  (fun () -> Builder.gt b (Ir.Reg x) (Ir.Imm 0))
                  (fun () -> ())
              in
              Ir.Reg x)
        in
        Alcotest.check_raises "out of fuel" Interp.Out_of_fuel (fun () ->
            ignore (Interp.run ~fuel:1000 p (Memory.create ()))));
  ]

(* ---- memory and layout ---------------------------------------------- *)

let memory_tests =
  [
    tc "default zero" (fun () ->
        check Alcotest.int "uninit" 0 (Memory.load (Memory.create ()) 1234));
    tc "store load roundtrip" (fun () ->
        let m = Memory.create () in
        Memory.store m 10 42;
        check Alcotest.int "load" 42 (Memory.load m 10));
    tc "store zero erases binding" (fun () ->
        let m = Memory.create () in
        Memory.store m 10 42;
        Memory.store m 10 0;
        Alcotest.(check bool) "equal to empty" true
          (Memory.equal m (Memory.create ())));
    tc "hash insensitive to order" (fun () ->
        let m1 = Memory.create () and m2 = Memory.create () in
        Memory.store m1 1 10; Memory.store m1 2 20;
        Memory.store m2 2 20; Memory.store m2 1 10;
        check Alcotest.int "hash" (Memory.hash m1) (Memory.hash m2));
    tc "one word below 2^30 copies in bounded space" (fun () ->
        (* a flat page directory indexed up to 2^30 would grow to 2^20
           entries; the top paged word is the worst case.  Count both
           heaps, since a page is too big for the minor one. *)
        List.iter
          (fun a ->
            let m = Memory.create () in
            Memory.store m a 7;
            let before = Gc.allocated_bytes () in
            ignore (Memory.copy m);
            let words = (Gc.allocated_bytes () -. before) /. 8.0 in
            Alcotest.(check bool)
              (Printf.sprintf "word %d: %.0f words < 2^14" a words)
              true (words < 16384.0))
          [ (1 lsl 30) - 1; (1 lsl 22) - 1 ]);
    tc "layout regions never overlap" (fun () ->
        let l = Memory.Layout.create () in
        let rs =
          List.map (fun i -> Memory.Layout.alloc l (Fmt.str "r%d" i) (i * 13 + 1))
            [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        in
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b ->
                if i < j then
                  Alcotest.(check bool)
                    "disjoint" true
                    (a.Memory.Layout.base + a.Memory.Layout.size
                     <= b.Memory.Layout.base
                    || b.Memory.Layout.base + b.Memory.Layout.size
                       <= a.Memory.Layout.base))
              rs)
          rs);
    tc "site_of_addr" (fun () ->
        let l = Memory.Layout.create () in
        let a = Memory.Layout.alloc l "a" 10 in
        let b = Memory.Layout.alloc l "b" 10 in
        check Alcotest.int "a" a.Memory.Layout.site
          (Memory.Layout.site_of_addr l (a.Memory.Layout.base + 3));
        check Alcotest.int "b" b.Memory.Layout.site
          (Memory.Layout.site_of_addr l b.Memory.Layout.base);
        check Alcotest.int "none" (-1) (Memory.Layout.site_of_addr l 1));
  ]

(* ---- verifier -------------------------------------------------------- *)

let verify_tests =
  [
    tc "rejects branch to missing block" (fun () ->
        let b = Builder.create "main" in
        Builder.jmp b 99;
        Alcotest.(check bool) "ill-formed" false
          (Verify.is_well_formed_func (Builder.func b)));
    tc "rejects undefined register use" (fun () ->
        let b = Builder.create "main" in
        let f = Builder.func b in
        let blk = Ir.block_of_func f 0 in
        blk.Ir.b_instrs <- [ Ir.Mov (0, Ir.Reg 55) ];
        f.Ir.f_next_reg <- 56;
        Alcotest.(check bool) "ill-formed" false (Verify.is_well_formed_func f));
    tc "rejects unknown callee" (fun () ->
        let p =
          prog_of (fun b ->
              Builder.call b "nowhere" [];
              Ir.Imm 0)
        in
        Alcotest.(check bool) "ill-formed" false (Verify.is_well_formed p));
    tc "accepts builder output" (fun () ->
        let p =
          prog_of (fun b ->
              let s = Builder.mov b (Ir.Imm 0) in
              let _ =
                Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 3)
                  (fun i -> Builder.mov_to b s (Ir.Reg i))
              in
              Ir.Reg s)
        in
        Alcotest.(check bool) "well-formed" true (Verify.is_well_formed p));
  ]

(* ---- CFG -------------------------------------------------------------- *)

let cfg_tests =
  [
    tc "succ/pred duality" (fun () ->
        let p =
          prog_of (fun b ->
              let r = Builder.mov b (Ir.Imm 0) in
              let _ =
                Builder.counted_loop b ~from:(Ir.Imm 0) ~below:(Ir.Imm 3)
                  (fun _ -> ())
              in
              Ir.Reg r)
        in
        let f = Ir.main_func p in
        let cfg = Cfg.of_func f in
        List.iter
          (fun l ->
            List.iter
              (fun s ->
                Alcotest.(check bool)
                  (Fmt.str "L%d in preds of L%d" l s)
                  true
                  (List.mem l (Cfg.predecessors cfg s)))
              (Cfg.successors cfg l))
          f.Ir.f_order);
    tc "rpo starts at entry, covers reachable" (fun () ->
        let p =
          prog_of (fun b ->
              let r = Builder.mov b (Ir.Imm 1) in
              Builder.if_then b (Ir.Reg r) (fun () -> ());
              Ir.Reg r)
        in
        let f = Ir.main_func p in
        let cfg = Cfg.of_func f in
        let rpo = Cfg.reverse_postorder cfg in
        check Alcotest.int "entry first" f.Ir.f_entry rpo.(0);
        Array.iter
          (fun l ->
            Alcotest.(check bool) "reachable" true (Cfg.is_reachable cfg l))
          rpo);
    tc "unreachable block excluded" (fun () ->
        let b = Builder.create "main" in
        Builder.ret b (Some (Ir.Imm 0));
        let dead = Builder.fresh_label b in
        Builder.switch_to b dead;
        Builder.ret b None;
        let f = Builder.func b in
        let cfg = Cfg.of_func f in
        Alcotest.(check bool) "dead excluded" false (Cfg.is_reachable cfg dead));
  ]

(* ---- property tests --------------------------------------------------- *)

(* Random arithmetic expression programs: interpreter against an OCaml
   evaluator built alongside. *)
let gen_expr_prog =
  let open QCheck.Gen in
  let ops = [ Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor; Ir.Min; Ir.Max ] in
  let rec build b depth =
    if depth = 0 then
      map (fun n -> ((fun _ -> Ir.Imm n), n)) (int_range (-100) 100)
    else
      let* (fa, va) = build b (depth - 1) in
      let* (fb, vb) = build b (depth - 1) in
      let* op = oneofl ops in
      return
        ( (fun bld ->
            let x = fa bld and y = fb bld in
            Ir.Reg (Builder.binop bld op x y)),
          Interp.eval_binop op va vb )
  in
  build () 4

let prop_interp_matches_eval =
  QCheck.Test.make ~name:"interpreter matches OCaml evaluation" ~count:200
    (QCheck.make gen_expr_prog)
    (fun (build, expected) ->
      let p = prog_of (fun b -> build b) in
      run_ret p = expected)

let prop_isqrt =
  QCheck.Test.make ~name:"isqrt is exact integer sqrt" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun n ->
      let s = Interp.isqrt n in
      s * s <= n && (s + 1) * (s + 1) > n)

let prop_memory_copy_equal =
  QCheck.Test.make ~name:"memory copy is equal, further stores diverge"
    ~count:100
    QCheck.(list (pair (int_range 0 1000) (int_range 1 100)))
    (fun bindings ->
      let m = Memory.create () in
      List.iter (fun (a, v) -> Memory.store m a v) bindings;
      let c = Memory.copy m in
      Memory.equal m c
      &&
      (Memory.store c 5000 1;
       not (Memory.equal m c)))

(* Undo journal: stores hit a small address range (so addresses repeat)
   with a quarter of them zero (so some erase bindings the pre-journal
   image holds). *)
let prop_journal_rollback =
  let stores = QCheck.(list (pair (int_range 0 40) (int_range 0 3))) in
  QCheck.Test.make ~name:"journal rollback restores the image it opened at"
    ~count:300 (QCheck.pair stores stores)
    (fun (before, during) ->
      let m = Memory.create () in
      List.iter (fun (a, v) -> Memory.store m a v) before;
      let at_open = Memory.copy m in
      Memory.open_journal m;
      List.iter (fun (a, v) -> Memory.store m a v) during;
      let journal m =
        let l = ref [] in
        Memory.iter_journal m (fun a old -> l := (a, old) :: !l);
        List.sort compare !l
      in
      let j = journal m in
      let touched_ok =
        List.map fst j = List.sort_uniq compare (List.map fst during)
      in
      let olds_ok =
        List.for_all (fun (a, old) -> old = Memory.load at_open a) j
      in
      Memory.rollback m;
      let restored = Memory.equal m at_open in
      let emptied = journal m = [] in
      Memory.close_journal m;
      List.iter (fun (a, v) -> Memory.store m a v) during;
      let closed_records_nothing =
        journal m = []
        && match Memory.rollback m with
           | () -> false
           | exception Invalid_argument _ -> true
      in
      touched_ok && olds_ok && restored && emptied && closed_records_nothing)

(* Model test of the paged image against a plain table of non-zero
   bindings.  Addresses mix page-crossing low words, negative words and
   words around the paged limit 2^22 and 2^30; a third of the stored
   values are zero, so bindings get erased.  Every load is checked as it
   happens; at the end the image must be [equal] to one rebuilt from the
   model in another order, hash to the model's content hash (the
   formula the oracle has always used), and survive [copy]; journal
   operations are checked against a model journal. *)
type mem_op =
  | M_store of int * int
  | M_load of int
  | M_open
  | M_rollback
  | M_close

let gen_mem_ops =
  let open QCheck.Gen in
  let addr =
    frequency
      [
        (4, int_range 0 3100);
        (1, int_range (-3000) (-1));
        (1, int_range ((1 lsl 22) - 4) ((1 lsl 22) + 4));
        (1, int_range ((1 lsl 30) - 4) ((1 lsl 30) + 4));
        (1, int_range (1 lsl 30) ((1 lsl 30) + 4));
        (1, map (fun k -> max_int - k) (int_range 0 3));
        (1, map (fun k -> min_int + k) (int_range 0 3));
      ]
  in
  list_size (int_range 0 120)
    (frequency
       [
         (8, map2 (fun a v -> M_store (a, v)) addr (int_range 0 2));
         (4, map (fun a -> M_load a) addr);
         (1, return M_open);
         (1, return M_rollback);
         (1, return M_close);
       ])

let show_mem_op = function
  | M_store (a, v) -> Printf.sprintf "store %d %d" a v
  | M_load a -> Printf.sprintf "load %d" a
  | M_open -> "open"
  | M_rollback -> "rollback"
  | M_close -> "close"

let prop_paged_memory_model =
  QCheck.Test.make ~name:"paged memory agrees with a table model" ~count:400
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
       gen_mem_ops)
    (fun ops ->
      let m = Memory.create () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let mload a = Option.value ~default:0 (Hashtbl.find_opt model a) in
      let mset a v =
        if v = 0 then Hashtbl.remove model a else Hashtbl.replace model a v
      in
      let mjournal : (int, int) Hashtbl.t option ref = ref None in
      let journal_agrees () =
        let got = ref [] in
        Memory.iter_journal m (fun a old -> got := (a, old) :: !got);
        let want =
          match !mjournal with
          | None -> []
          | Some j -> Hashtbl.fold (fun a old acc -> (a, old) :: acc) j []
        in
        List.sort compare !got = List.sort compare want
      in
      let step = function
        | M_store (a, v) ->
            (match !mjournal with
            | Some j when not (Hashtbl.mem j a) -> Hashtbl.add j a (mload a)
            | _ -> ());
            mset a v;
            Memory.store m a v;
            Memory.load m a = v
        | M_load a -> Memory.load m a = mload a
        | M_open ->
            mjournal := Some (Hashtbl.create 8);
            Memory.open_journal m;
            true
        | M_close ->
            mjournal := None;
            Memory.close_journal m;
            true
        | M_rollback -> (
            match !mjournal with
            | None -> (
                match Memory.rollback m with
                | () -> false
                | exception Invalid_argument _ -> true)
            | Some j ->
                Hashtbl.iter mset j;
                Hashtbl.reset j;
                Memory.rollback m;
                true)
      in
      let ops_ok = List.for_all (fun op -> step op && journal_agrees ()) ops in
      let rebuilt = Memory.create () in
      List.iter
        (fun (a, v) -> Memory.store rebuilt a v)
        (List.sort compare (Hashtbl.fold (fun a v acc -> (a, v) :: acc) model []));
      let model_hash =
        Hashtbl.fold
          (fun a v acc -> acc lxor (Hashtbl.hash (a, v) * 0x9e3779b1))
          model 0
      in
      let c = Memory.copy m in
      let all_loads_ok =
        Hashtbl.fold (fun a v ok -> ok && Memory.load m a = v) model true
      in
      let differs =
        Memory.store c 7 (Memory.load m 7 + 1);
        (not (Memory.equal m c)) && Memory.load m 7 = mload 7
      in
      ops_ok && all_loads_ok
      && Memory.equal m rebuilt && Memory.equal rebuilt m
      && Memory.hash m = model_hash
      && Memory.hash rebuilt = model_hash
      && differs)

let prop_layout_site_lookup =
  QCheck.Test.make ~name:"layout site lookup agrees with region bounds"
    ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 8) (int_range 1 64))
    (fun sizes ->
      let l = Memory.Layout.create () in
      let regions =
        List.mapi (fun i n -> Memory.Layout.alloc l (Fmt.str "g%d" i) n) sizes
      in
      List.for_all
        (fun r ->
          Memory.Layout.site_of_addr l r.Memory.Layout.base
          = r.Memory.Layout.site)
        regions)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_interp_matches_eval; prop_isqrt; prop_memory_copy_equal;
      prop_journal_rollback; prop_paged_memory_model;
      prop_layout_site_lookup;
    ]

(* ---- pretty printing ------------------------------------------------- *)

let pretty_tests =
  [
    tc "instructions print stably" (fun () ->
        let cases =
          [
            (Ir.Binop (3, Ir.Add, Ir.Reg 1, Ir.Imm 2), "r3 = add r1, 2");
            (Ir.Mov (4, Ir.Reg 1), "r4 = r1");
            (Ir.Wait 2, "wait 2");
            (Ir.Signal 0, "signal 0");
            (Ir.Libcall (5, Ir.Lc_hash, [ Ir.Imm 9 ]), "r5 = lib hash(9)");
          ]
        in
        List.iter
          (fun (ins, expect) ->
            check Alcotest.string expect expect (Pretty.instr_to_string ins))
          cases);
    tc "annotated address prints its facets" (fun () ->
        let an = Ir.annot ~flow:1 ~path:"a[]" ~ty:"int" ~affine:0 7 in
        let s =
          Pretty.instr_to_string
            (Ir.Load (1, { Ir.base = Ir.Imm 64; offset = Ir.Reg 2; annot = an }))
        in
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              (Fmt.str "contains %s" needle)
              true
              (let re = Str.regexp_string needle in
               try ignore (Str.search_forward re s 0); true
               with Not_found -> false))
          [ "site7"; "a[]"; "int"; "load" ]);
    tc "function header prints params" (fun () ->
        let b = Builder.create ~params:[ 0; 1 ] "f" in
        Builder.ret b (Some (Ir.Reg 0));
        let s = Pretty.func_to_string (Builder.func b) in
        Alcotest.(check bool) "has name" true
          (String.length s > 0
          && (let re = Str.regexp_string "func f(" in
              try ignore (Str.search_forward re s 0); true
              with Not_found -> false)));
  ]

let () =
  Alcotest.run "ir"
    [
      ("arithmetic", arithmetic_tests @ unop_tests);
      ("libcalls", lib_tests);
      ("control-flow", control_tests);
      ("memory", memory_tests);
      ("verify", verify_tests);
      ("cfg", cfg_tests);
      ("pretty", pretty_tests);
      ("properties", props);
    ]
