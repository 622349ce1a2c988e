(* Same-host A/B comparator, the pure core of tools/perf_ab.sh.  For
   every end-to-end metric x workload of BENCHMARK.json, it compares the
   perfbench result lines of parent and change runs on one host.  A
   metric fails when the change's median is worse than the parent's by
   more than the metric's relative bound.  Where the parent's own IQR
   (relative to its median) is wider than the bound it is unresolved
   instead, unless every change run is worse than every parent run.  A
   workload also fails on a run that is not [correct], a larger failed
   share of attempted runs than the parent's, or missing or unreadable
   change results.  [print] is the report bin/bench_trend.exe shows. *)

module Json = Helix_obs.Json

type better = Lower | Higher
type metric = { m_name : string; better : better; bound : float }
type spec = { workloads : string list; metrics : metric list }
type run = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}
type verdict = Pass | Unresolved | Fail

type row = {
  workload : string;
  metric : metric;
  base : float;  (** parent median *)
  change : float;  (** change median *)
  iqr : float;  (** parent interquartile range / |parent median| *)
  verdict : verdict;
}

type report = { rows : row list; faults : string list }

let field conv k j =
  match Option.bind (Json.member k j) conv with
  | Some v -> v
  | None -> failwith k

let str = field Json.to_string_opt
let items = field (function Json.List l -> Some l | _ -> None)

let spec_of_string s =
  try
    let j = Json.of_string_exn s in
    let metric m =
      let better = if str "better" m = "lower" then Lower else Higher in
      let bound = field Json.to_float_opt "bound" m in
      { m_name = str "name" m; better; bound }
    in
    Ok
      {
        workloads = List.map (str "name") (items "workloads" j);
        metrics = List.map metric (items "end_to_end" j);
      }
  with Failure e -> Error ("malformed benchmark spec: " ^ e)

let run_of_string s =
  try
    let j = Json.of_string_exn s in
    let value (k, v) = (k, field Json.to_float_opt "value" v) in
    Ok
      {
        correct =
          field (function Json.Bool b -> Some b | _ -> None) "correct" j;
        attempted = field Json.to_int_opt "attempted" j;
        failed = field Json.to_int_opt "failed" j;
        values =
          List.map value
            (field (function Json.Obj kvs -> Some kvs | _ -> None) "metrics" j);
      }
  with Failure e -> Error ("not a result line: " ^ e)

(* Quantile [p] of a non-empty sample, interpolating linearly between
   order statistics. *)
let quantile p xs =
  let a = Array.of_list (List.sort compare xs) in
  let h = p *. float_of_int (Array.length a - 1) in
  let i = int_of_float h in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* [x] relative to [r]: positive is worse, and any worsening of a zero
   reference is infinite. *)
let relative r x =
  if x = 0.0 then 0.0 else if r = 0.0 then infinity else x /. Float.abs r

let compare_metric m ~workload ~base ~change =
  let b = quantile 0.5 base and c = quantile 0.5 change in
  let worse =
    relative b (Float.max 0.0 (if m.better = Lower then c -. b else b -. c))
  in
  let iqr = relative b (quantile 0.75 base -. quantile 0.25 base) in
  let lo = List.fold_left Float.min infinity in
  let hi = List.fold_left Float.max neg_infinity in
  let all_worse =
    if m.better = Lower then lo change > hi base else hi change < lo base
  in
  let verdict =
    if worse <= m.bound then Pass
    else if iqr > m.bound && not all_worse then Unresolved
    else Fail
  in
  { workload; metric = m; base = b; change = c; iqr; verdict }

let failed_share runs =
  let sum f = float_of_int (List.fold_left (fun n r -> n + f r) 0 runs) in
  sum (fun r -> r.failed) /. Float.max 1.0 (sum (fun r -> r.attempted))

(* [results] maps workloads to their (parent lines, change lines). *)
let compare spec results =
  let faults = ref [] in
  let fault fmt = Printf.ksprintf (fun s -> faults := s :: !faults) fmt in
  let runs w side lines =
    let parse l =
      match run_of_string l with
      | Ok r -> Some r
      | Error e ->
          fault "%s: %s run: %s" w side e;
          None
    in
    let rs = List.filter_map parse lines in
    if rs = [] then fault "%s: no %s runs" w side;
    let wrong = List.length (List.filter (fun r -> not r.correct) rs) in
    if wrong > 0 then fault "%s: %d %s run(s) not correct" w wrong side;
    rs
  in
  let workload w =
    let b, c = Option.value ~default:([], []) (List.assoc_opt w results) in
    let base = runs w "parent" b and change = runs w "change" c in
    if failed_share change > failed_share base then
      fault "%s: failed/attempted %.3f, parent %.3f" w (failed_share change)
        (failed_share base);
    let values m =
      List.filter_map (fun r -> List.assoc_opt m.m_name r.values)
    in
    List.filter_map
      (fun m ->
        match (values m base, values m change) with
        | [], _ -> None
        | _, [] ->
            if change <> [] then fault "%s: no %s in change runs" w m.m_name;
            None
        | b, c -> Some (compare_metric m ~workload:w ~base:b ~change:c))
      spec.metrics
  in
  let rows = List.concat_map workload spec.workloads in
  { rows; faults = List.rev !faults }

let failed r =
  r.faults <> [] || List.exists (fun row -> row.verdict = Fail) r.rows

let verdict_name = function
  | Pass -> "ok"
  | Unresolved -> "unresolved"
  | Fail -> "WORSE"

let print r =
  Printf.printf "%-15s %-17s %13s %13s %10s %6s  %s\n" "workload" "metric"
    "parent" "change" "parent-iqr" "bound" "verdict";
  List.iter
    (fun row ->
      Printf.printf "%-15s %-17s %13.6g %13.6g %9.1f%% %5.0f%%  %s\n"
        row.workload row.metric.m_name row.base row.change (100.0 *. row.iqr)
        (100.0 *. row.metric.bound) (verdict_name row.verdict))
    r.rows;
  List.iter (Printf.printf "FAIL %s\n") r.faults;
  print_endline (if failed r then "perf-ab: FAIL" else "perf-ab: pass")
