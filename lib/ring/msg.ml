(* Messages circulating on the ring backbone.

   Every message carries its origin node (circulation stops after a full
   lap) and a global injection sequence number.  Links deliver messages in
   order, which -- together with the compiler-guaranteed unidirectional
   data flow -- gives the "signals move in lockstep with forwarded data"
   property of Section 5.1.  Hop stamps and checksums for the lossy-ring
   fault model are the link layer's business ({!Link}), not the
   message's. *)

type payload =
  | Data of { addr : int; value : int }
  | Sig of { seg : int; barrier : int }
      (* [barrier]: acceptance sequence number of the last data message the
         origin injected before this signal.  A node may not apply or
         forward the signal until it has applied that data -- this is the
         hardware's "signals move in lockstep with forwarded data"
         guarantee (Section 5.1), keeping a shared location unreadable
         before its value arrives even though data and signals travel on
         dedicated wires. *)

type t = {
  payload : payload;
  origin : int;  (* injecting node *)
  seq : int;     (* global injection order *)
}

(* Fills unused queue slots ({!Fifo}); never sent. *)
let dummy = { payload = Data { addr = 0; value = 0 }; origin = -1; seq = -1 }

let is_data m = match m.payload with Data _ -> true | Sig _ -> false

let pp ppf m =
  match m.payload with
  | Data { addr; value } ->
      Format.fprintf ppf "data(a=%d,v=%d,from=%d,#%d)" addr value m.origin m.seq
  | Sig { seg; barrier } ->
      Format.fprintf ppf "sig(seg=%d,b=%d,from=%d,#%d)" seg barrier m.origin
        m.seq
