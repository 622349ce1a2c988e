(* Banked DRAM timing model (DRAMSim2 stand-in).

   Each bank serializes requests: a request arriving at cycle [c] to a busy
   bank queues behind the in-flight one.  Row-buffer locality is modelled
   with a last-row hit discount.  The model returns the completion latency
   for a request; it keeps no request data. *)

type bank = {
  mutable busy_until : int;
  mutable open_row : int;
}

type t = {
  cfg_latency : int;       (* closed-row access latency *)
  row_hit_latency : int;   (* open-row access latency *)
  banks : bank array;
  row_words : int;
  mutable requests : int;
  mutable row_hits : int;
}

let create ~latency ~banks =
  {
    cfg_latency = latency;
    row_hit_latency = Int.max 1 (latency / 3);
    banks = Array.init (Int.max 1 banks) (fun _ -> { busy_until = 0; open_row = -1 });
    row_words = 1024; (* 8KB rows of 8-byte words *)
    requests = 0;
    row_hits = 0;
  }

(* [access t ~cycle addr] returns the total latency (queueing included)
   of a DRAM access issued at [cycle]. *)
let access t ~cycle addr =
  t.requests <- t.requests + 1;
  let row = addr / t.row_words in
  let bank = t.banks.(row mod Array.length t.banks) in
  let service =
    if bank.open_row = row then begin
      t.row_hits <- t.row_hits + 1;
      t.row_hit_latency
    end
    else t.cfg_latency
  in
  let start = Int.max cycle bank.busy_until in
  let finish = start + service in
  bank.busy_until <- finish;
  bank.open_row <- row;
  finish - cycle

let row_hit_rate t =
  if t.requests = 0 then 0.0
  else float_of_int t.row_hits /. float_of_int t.requests
