type kind = Legacy | Event

let all = [ Legacy; Event ]

let kind_of_string = function
  | "legacy" -> Some Legacy
  | "event" -> Some Event
  | _ -> None

let kind_to_string = function Legacy -> "legacy" | Event -> "event"

let never = max_int

type component = {
  cp_name : string;
  cp_tick : cycle:int -> unit;
  cp_next_event : now:int -> int;
  cp_skip : now:int -> cycles:int -> unit;
}

let passive name =
  {
    cp_name = name;
    cp_tick = (fun ~cycle:_ -> ());
    cp_next_event = (fun ~now:_ -> never);
    cp_skip = (fun ~now:_ ~cycles:_ -> ());
  }

type t = {
  knd : kind;
  clock : int ref;
  mutable components : component array;
  mutable scan_start : int;
  mutable n_steps : int;
  mutable n_ff : int;
  mutable n_skipped : int;
}

let create ~kind ~clock () =
  {
    knd = kind;
    clock;
    components = [||];
    scan_start = 0;
    n_steps = 0;
    n_ff = 0;
    n_skipped = 0;
  }

let register t c = t.components <- Array.append t.components [| c |]

exception Active

let step t =
  let cycle = !(t.clock) in
  let comps = t.components in
  for i = 0 to Array.length comps - 1 do
    comps.(i).cp_tick ~cycle
  done;
  t.n_steps <- t.n_steps + 1;
  incr t.clock;
  match t.knd with
  | Legacy -> ()
  | Event -> (
      let now = !(t.clock) in
      (* Find the earliest cycle any component could act on its own.
         Early-exit as soon as someone is active at [now], and start the
         scan at the component that was active last time: activity is
         sticky, so busy phases usually cost a single probe. *)
      let n = Array.length comps in
      let wake = ref max_int in
      try
        for j = 0 to n - 1 do
          let i =
            let i = t.scan_start + j in
            if i >= n then i - n else i
          in
          let e = comps.(i).cp_next_event ~now in
          let e = if e < now then now else e in
          if e = now then begin
            t.scan_start <- i;
            raise Active
          end;
          if e < !wake then wake := e
        done;
        if !wake > now && !wake < max_int then begin
          let k = !wake - now in
          for i = 0 to Array.length comps - 1 do
            comps.(i).cp_skip ~now ~cycles:k
          done;
          t.clock := !wake;
          t.n_ff <- t.n_ff + 1;
          t.n_skipped <- t.n_skipped + k
        end
      with Active -> ())

let kind t = t.knd
let steps t = t.n_steps
let fast_forwards t = t.n_ff
let skipped_cycles t = t.n_skipped
