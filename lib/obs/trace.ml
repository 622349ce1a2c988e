(* Ring-buffered structured trace.  The buffer keeps the newest events:
   in a stuck run the interesting window is the one just before the
   watchdog fires, so eviction drops from the front. *)

type event = {
  ev_cycle : int;
  ev_kind : string;
  ev_fields : (string * Json.t) list;
}

type t = {
  buf : event option array;
  mutable head : int;   (* next write slot *)
  mutable count : int;  (* live events, <= capacity *)
  mutable dropped : int;
}

let create ?(capacity = 65536) () =
  let capacity = max 1 capacity in
  { buf = Array.make capacity None; head = 0; count = 0; dropped = 0 }

let capacity t = Array.length t.buf

let emit (t : t option) ~cycle ~kind fields =
  match t with
  | None -> ()
  | Some t ->
      t.buf.(t.head) <- Some { ev_cycle = cycle; ev_kind = kind; ev_fields = fields };
      t.head <- (t.head + 1) mod capacity t;
      if t.count < capacity t then t.count <- t.count + 1
      else t.dropped <- t.dropped + 1

let length t = t.count
let dropped t = t.dropped

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.head <- 0;
  t.count <- 0;
  t.dropped <- 0

let events t =
  let cap = capacity t in
  let start = (t.head - t.count + cap) mod cap in
  List.init t.count (fun i ->
      match t.buf.((start + i) mod cap) with
      | Some e -> e
      | None -> assert false)

(* ---- JSONL ---------------------------------------------------------- *)

let event_to_json (e : event) : Json.t =
  Json.Obj (("c", Json.Int e.ev_cycle) :: ("k", Json.String e.ev_kind) :: e.ev_fields)

let event_of_json (j : Json.t) : (event, string) result =
  match j with
  | Json.Obj fields ->
      let cycle = Option.bind (List.assoc_opt "c" fields) Json.to_int_opt in
      let kind = Option.bind (List.assoc_opt "k" fields) Json.to_string_opt in
      (match (cycle, kind) with
      | Some c, Some k ->
          Ok
            {
              ev_cycle = c;
              ev_kind = k;
              ev_fields =
                List.filter (fun (name, _) -> name <> "c" && name <> "k") fields;
            }
      | _ -> Error "event missing \"c\" or \"k\"")
  | _ -> Error "event is not a JSON object"

let event_of_line line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok j -> event_of_json j

let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (Json.to_string (event_to_json e));
      Buffer.add_char b '\n')
    (events t);
  Buffer.contents b

let write_jsonl t oc = output_string oc (to_jsonl t)

(* ---- typed emitters ------------------------------------------------- *)

(* Each emitter tests for a buffer before it builds its field list: the
   emitters are too large to inline, and the ring calls several of them
   on every message, traced or not. *)

let store_inject t ~cycle ~node ~addr ~value ~seq =
  if Option.is_some t then
    emit t ~cycle ~kind:"store_inject"
      [ ("node", Json.Int node); ("addr", Json.Int addr);
        ("value", Json.Int value); ("seq", Json.Int seq) ]

let signal_inject t ~cycle ~node ~seg ~seq ~barrier =
  if Option.is_some t then
    emit t ~cycle ~kind:"signal_inject"
      [ ("node", Json.Int node); ("seg", Json.Int seg);
        ("seq", Json.Int seq); ("barrier", Json.Int barrier) ]

let inject_blocked t ~cycle ~node ~cls =
  if Option.is_some t then
    emit t ~cycle ~kind:"inject_blocked"
      [ ("node", Json.Int node); ("cls", Json.String cls) ]

let lockstep_hold t ~cycle ~node ~origin ~barrier ~applied =
  if Option.is_some t then
    emit t ~cycle ~kind:"lockstep_hold"
      [ ("node", Json.Int node); ("origin", Json.Int origin);
        ("barrier", Json.Int barrier); ("applied", Json.Int applied) ]

let backpressure t ~cycle ~node ~cls =
  if Option.is_some t then
    emit t ~cycle ~kind:"backpressure"
      [ ("node", Json.Int node); ("cls", Json.String cls) ]

let wait_complete t ~cycle ~core ~seg ~iter =
  if Option.is_some t then
    emit t ~cycle ~kind:"wait_complete"
      [ ("core", Json.Int core); ("seg", Json.Int seg); ("iter", Json.Int iter) ]

let loop_enter t ~cycle ~loop ~trip =
  if Option.is_some t then
    emit t ~cycle ~kind:"loop_enter"
      [ ("loop", Json.Int loop);
        ("trip", match trip with Some k -> Json.Int k | None -> Json.Null) ]

let loop_flush t ~cycle ~loop ~iterations ~span ~flush_latency =
  if Option.is_some t then
    emit t ~cycle ~kind:"loop_flush"
      [ ("loop", Json.Int loop); ("iterations", Json.Int iterations);
        ("span", Json.Int span); ("flush_latency", Json.Int flush_latency) ]

let stuck t ~cycle ~phase =
  if Option.is_some t then
    emit t ~cycle ~kind:"stuck" [ ("phase", Json.String phase) ]

let violation t ~cycle ~loop ~kind:vkind ~detail =
  if Option.is_some t then
    emit t ~cycle ~kind:"violation"
      [ ("loop", Json.Int loop); ("vkind", Json.String vkind);
        ("detail", Json.String detail) ]

let fallback t ~cycle ~loop ~reason ~iterations =
  if Option.is_some t then
    emit t ~cycle ~kind:"fallback"
      [ ("loop", Json.Int loop); ("reason", Json.String reason);
        ("iterations", Json.Int iterations) ]

let oracle_result t ~cycle ~loop ~ok ~detail =
  if Option.is_some t then
    emit t ~cycle ~kind:"oracle_result"
      [ ("loop", Json.Int loop); ("ok", Json.Bool ok);
        ("detail", Json.String detail) ]

let fault t ~cycle ~fclass ~link ~wire ~hop =
  if Option.is_some t then
    emit t ~cycle ~kind:"fault"
      [ ("fclass", Json.String fclass); ("link", Json.Int link);
        ("wire", Json.String wire); ("hop", Json.Int hop) ]

let retransmit t ~cycle ~node ~wire ~count ~attempt =
  if Option.is_some t then
    emit t ~cycle ~kind:"retransmit"
      [ ("node", Json.Int node); ("wire", Json.String wire);
        ("count", Json.Int count); ("attempt", Json.Int attempt) ]

let reknit t ~cycle ~node ~lost_data ~lost_sig =
  if Option.is_some t then
    emit t ~cycle ~kind:"reknit"
      [ ("node", Json.Int node); ("lost_data", Json.Int lost_data);
        ("lost_sig", Json.Int lost_sig) ]
