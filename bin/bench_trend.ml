(* Same-host A/B gate over the repository benchmark.

     bench_trend --old PARENT_DIR --new CHANGE_DIR

   Run from the repository root: the workloads and the end-to-end
   metrics' directions and bounds come from ./BENCHMARK.json.  Each
   directory holds <workload>.jsonl, one perfbench result line per run
   (tools/perf_ab.sh writes them).  Prints one row per (workload,
   end-to-end metric); exits 1 when Trend.compare finds a failure, 2 on
   a usage error. *)

open Helix_experiments

let read path =
  if Sys.file_exists path then
    In_channel.with_open_text path In_channel.input_all
  else ""

let () =
  let old_dir, new_dir =
    match List.tl (Array.to_list Sys.argv) with
    | [ "--old"; o; "--new"; n ] -> (o, n)
    | _ ->
        prerr_endline "usage: bench_trend --old PARENT_DIR --new CHANGE_DIR";
        exit 2
  in
  match Trend.spec_of_string (read "BENCHMARK.json") with
  | Error e ->
      prerr_endline ("bench_trend: ./BENCHMARK.json: " ^ e);
      exit 2
  | Ok spec ->
      (* one line per run; a crashed run's line is reported unreadable *)
      let lines dir w =
        String.split_on_char '\n' (read (Filename.concat dir (w ^ ".jsonl")))
        |> List.filter (fun l -> String.trim l <> "")
      in
      let report =
        Trend.compare spec
          (List.map
             (fun w -> (w, (lines old_dir w, lines new_dir w)))
             spec.Trend.workloads)
      in
      Trend.print report;
      exit (if Trend.failed report then 1 else 0)
