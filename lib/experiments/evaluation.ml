open Helix_workloads

(* The paper's evaluation as one table: every figure, in print order,
   with the titled tables it produces.  The helix_rc figure subcommands
   and [all] are generated from [figures]; a table's name is its JSON
   file name, and the quick tables are golden files
   (dune build @test/golden/figures). *)

type figure = {
  name : string;  (* the helix_rc subcommand *)
  doc : string;
  tables : (string * (Workload.t list -> Report.t)) list;
}

(* A figure drawn on the CINT models whatever the workload set. *)
let cint doc = doc ^ "  CINT models only, so --quick changes nothing."

let single name doc tabulate = { name; doc; tables = [ (name, tabulate) ] }

let figures =
  [
    single "fig1"
      "Figure 1: HCCv1 vs HCCv2 speedup on the conventional machine."
      (fun workloads -> Fig1.report (Fig1.run ~workloads ()));
    single "fig2"
      (cint "Figure 2: dependence-analysis accuracy per alias tier.")
      (fun _ -> Fig2.report (Fig2.run ()));
    single "fig3"
      (cint "Figure 3: communication left after re-computing predictable \
             variables.")
      (fun _ -> Fig3.report (Fig3.run ()));
    single "fig4"
      (cint "Figure 4: iteration lengths, sharing distance and consumers \
             per value.")
      (fun _ -> Fig4.report (Fig4.run ()));
    single "table1" "Table 1: parallel-loop coverage per compiler version."
      (fun workloads -> Table1.report (Table1.run ~workloads ()));
    single "fig7" "Figure 7: HCCv2 vs HELIX-RC program speedup."
      (fun workloads -> Fig7.report (Fig7.run ~workloads ()));
    single "fig8"
      (cint "Figure 8: benefits of decoupling each kind of communication.")
      (fun _ -> Fig8.report (Fig8.run ()));
    single "fig9"
      (cint "Figure 9: HCCv3 code on conventional vs ring-cache hardware.")
      (fun _ -> Fig9.report (Fig9.run ()));
    single "fig10" (cint "Figure 10: speedup vs core complexity.")
      (fun _ -> Fig10.report (Fig10.run ()));
    {
      name = "fig11";
      doc =
        cint "Figure 11: sensitivity to core count, link latency, signal \
              bandwidth and node memory.";
      tables =
        List.map
          (fun (table, title, (sweep : ?workloads:_ -> unit -> _)) ->
            (table, fun _ -> Fig11.report ~title (sweep ())))
          [
            ("fig11a", "Figure 11a: core count", Fig11.core_count);
            ("fig11b", "Figure 11b: link latency", Fig11.link_latency);
            ("fig11c", "Figure 11c: signal bandwidth", Fig11.signal_bandwidth);
            ("fig11d", "Figure 11d: node memory size", Fig11.node_memory);
          ];
    };
    single "fig12" "Figure 12: overhead breakdown of HELIX-RC."
      (fun workloads -> Fig12.report (Fig12.run ~workloads ()));
    single "tlp"
      (cint "Section 6.2: TLP vs segment splitting on an abstract machine.")
      (fun _ -> Tlp_study.report (Tlp_study.run ()));
    single "ablations"
      "Design-decision ablations beyond the paper's sweeps.  gzip, vpr and \
       parser only, so --quick changes nothing."
      (fun _ -> Ablations.report (Ablations.run ()));
  ]

let table_names = List.concat_map (fun f -> List.map fst f.tables) figures

let write_json dir table report =
  Out_channel.with_open_text (Filename.concat dir (table ^ ".json"))
    (fun oc ->
      output_string oc (Helix_obs.Json.to_string (Report.to_json report));
      output_char oc '\n')

(* Print [fig]'s tables in order; with [json_dir], write each there too. *)
let run ~json_dir workloads fig =
  List.iter
    (fun (table, tabulate) ->
      let report = tabulate workloads in
      Report.print report;
      Option.iter (fun dir -> write_json dir table report) json_dir)
    fig.tables

(* Every figure, after warming the compile and baseline memo tables
   across the pool so the figures start from cache hits. *)
let run_all ~json_dir workloads =
  Exp_common.precompile workloads;
  List.iter (run ~json_dir workloads) figures
