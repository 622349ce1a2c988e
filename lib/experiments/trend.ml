(* Bench trend comparison: the pure core of the CI perf-regression gate.

   Two artifact directories -- the previous successful run's and the
   current one's -- each hold BENCH_engine.json (simulated cycles per
   host second per engine) and the figure tables dumped by
   HELIX_BENCH_METRICS_DIR.  The gate fails when

   - an engine's cycles/sec dropped by more than [threshold] (default
     10%) against the previous run, or
   - a figure table changed *shape*: different keys, list lengths or
     value types.  Values are allowed to move (they are simulated
     numbers and change whenever the model legitimately changes); the
     shape only changes when a figure gains/loses rows or columns, which
     is never a silent accident.

   Everything here is pure (strings in, findings out) so it can be unit
   tested; the filesystem walking lives in bin/bench_trend.ml. *)

module Json = Helix_obs.Json

type finding = { severity : [ `Fail | `Note ]; message : string }

let fail fmt = Printf.ksprintf (fun m -> { severity = `Fail; message = m }) fmt
let note fmt = Printf.ksprintf (fun m -> { severity = `Note; message = m }) fmt
let failures fs = List.filter (fun f -> f.severity = `Fail) fs

(* ---- engine throughput ---------------------------------------------- *)

let rate_of json engine =
  match Json.member engine json with
  | None -> None
  | Some side ->
      Option.bind (Json.member "cycles_per_sec" side) Json.to_float_opt

(* The engines the build defines, by name. *)
let build_engines =
  List.map Helix_engine.Engine.kind_to_string Helix_engine.Engine.all

(* Each engine the build defines is compared.  One with no baseline is a
   note (the first run after a new engine lands has none); one missing
   from the current run is a failure.  An engine only the previous run
   has, and that the build no longer defines, was removed on purpose: a
   note, so the gate keeps passing after the removal. *)
let compare_engine ?(threshold = 0.10) ~old_json ~new_json () : finding list
    =
  match (Json.of_string old_json, Json.of_string new_json) with
  | Error e, _ -> [ fail "previous BENCH_engine.json unreadable: %s" e ]
  | _, Error e -> [ fail "current BENCH_engine.json unreadable: %s" e ]
  | Ok old_j, Ok new_j ->
      let removed =
        match old_j with
        | Json.Obj kvs ->
            List.filter_map
              (fun (engine, _) ->
                if List.mem engine build_engines || rate_of old_j engine = None
                then None
                else Some (note "%s engine removed from the build" engine))
              kvs
        | _ -> []
      in
      List.concat_map
        (fun engine ->
          match (rate_of old_j engine, rate_of new_j engine) with
          | Some o, Some n ->
              if o > 0.0 && n < o *. (1.0 -. threshold) then
                [
                  fail
                    "%s engine regressed: %.0f -> %.0f cycles/sec (%.1f%% \
                     drop, threshold %.0f%%)"
                    engine o n
                    ((o -. n) /. o *. 100.0)
                    (threshold *. 100.0);
                ]
              else
                [
                  note "%s engine: %.0f -> %.0f cycles/sec" engine o n;
                ]
          | None, Some _ ->
              [ note "%s engine has no baseline yet" engine ]
          | Some _, None ->
              [ fail "%s engine disappeared from BENCH_engine.json" engine ]
          | None, None -> [])
        build_engines
      @ removed

(* ---- figure shape ---------------------------------------------------- *)

(* Structural skeleton: keys, ordering-insensitive, list lengths and
   leaf types, with every numeric/string/bool value erased. *)
let rec shape (j : Json.t) : Json.t =
  match j with
  | Json.Null -> Json.Null
  | Json.Bool _ -> Json.String "bool"
  | Json.Int _ | Json.Float _ -> Json.String "number"
  | Json.String _ -> Json.String "string"
  | Json.List l -> Json.List (List.map shape l)
  | Json.Obj kvs ->
      Json.Obj
        (List.sort
           (fun (a, _) (b, _) -> compare a b)
           (List.map (fun (k, v) -> (k, shape v)) kvs))

let compare_figure ~name ~old_json ~new_json () : finding list =
  match (Json.of_string old_json, Json.of_string new_json) with
  | Error e, _ -> [ fail "%s: previous table unreadable: %s" name e ]
  | _, Error e -> [ fail "%s: current table unreadable: %s" name e ]
  | Ok old_j, Ok new_j ->
      if Json.equal (shape old_j) (shape new_j) then
        [ note "%s: shape unchanged" name ]
      else [ fail "%s: figure shape changed against the previous run" name ]

(* ---- whole-directory comparison -------------------------------------- *)

(* [figures] maps file name to (old contents option, new contents
   option); the engine jsons come separately.  A figure missing from the
   new run is a failure (a table silently vanished); a figure with no
   baseline is a note. *)
let compare_all ?threshold ~engine_old ~engine_new
    ~(figures : (string * (string option * string option)) list) () :
    finding list =
  let engine_findings =
    match (engine_old, engine_new) with
    | None, Some _ -> [ note "no previous BENCH_engine.json; skipping" ]
    | Some _, None -> [ fail "current run produced no BENCH_engine.json" ]
    | None, None -> [ note "no BENCH_engine.json on either side" ]
    | Some o, Some n -> compare_engine ?threshold ~old_json:o ~new_json:n ()
  in
  let figure_findings =
    List.concat_map
      (fun (name, (o, n)) ->
        match (o, n) with
        | None, Some _ -> [ note "%s: no baseline yet" name ]
        | Some _, None -> [ fail "%s: table missing from current run" name ]
        | None, None -> []
        | Some o, Some n -> compare_figure ~name ~old_json:o ~new_json:n ())
      figures
  in
  engine_findings @ figure_findings
