open Helix_hcc
open Helix_workloads

(* Figure 3: predictability of variables removes most register
   communication.  For the loops HELIX-RC selects we compare the naive
   communication set (every carried register plus every shared-memory
   alias class) with what remains after re-computation (only the
   unpredictable registers the compiler demoted to shared cells, plus the
   same memory classes).  The paper reports ~15% remaining, almost all of
   it memory-mediated. *)

type result = {
  naive_reg : int;
  naive_mem : int;
  remaining_reg : int;  (* demoted (unpredictable) registers *)
  remaining_mem : int;
}

let run ?(workloads = Registry.integer) () : result =
  List.fold_left
    (fun acc (pl : Parallel_loop.t) ->
      {
        naive_reg = acc.naive_reg + pl.Parallel_loop.pl_carried_reg_count;
        naive_mem = acc.naive_mem + pl.Parallel_loop.pl_mem_class_count;
        remaining_reg =
          acc.remaining_reg + List.length pl.Parallel_loop.pl_shared_regs;
        remaining_mem = acc.remaining_mem + pl.Parallel_loop.pl_mem_class_count;
      })
    { naive_reg = 0; naive_mem = 0; remaining_reg = 0; remaining_mem = 0 }
    (List.concat
       (Exp_common.Pool.map
          (fun wl -> Hcc.selected_loops (Exp_common.compiled wl Exp_common.V3))
          workloads))

let report (r : result) : Report.t =
  let naive = r.naive_reg + r.naive_mem in
  let remaining = r.remaining_reg + r.remaining_mem in
  let frac x = if naive = 0 then 0.0 else float_of_int x /. float_of_int naive in
  Report.make
    ~title:
      "Figure 3: communication remaining after re-computing predictable \
       variables"
    ~header:[ "quantity"; "count"; "fraction of naive" ]
    [
      [ "naive: registers"; string_of_int r.naive_reg;
        Report.pct (frac r.naive_reg) ];
      [ "naive: memory classes"; string_of_int r.naive_mem;
        Report.pct (frac r.naive_mem) ];
      [ "remaining: registers"; string_of_int r.remaining_reg;
        Report.pct (frac r.remaining_reg) ];
      [ "remaining: memory classes"; string_of_int r.remaining_mem;
        Report.pct (frac r.remaining_mem) ];
      [ "remaining: total"; string_of_int remaining; Report.pct (frac remaining) ];
    ]
    ~notes:
      [ "paper: ~15% of naive communication remains, mostly memory" ]
