open Helix_ir

(* Tiered may-alias analysis.

   Reproduces the precision ladder of Figure 2: a base VLLPA-style
   allocation-site analysis, extended with (i) flow sensitivity, (ii)
   path-based location naming, (iii) data-type incompatibility, and (iv)
   standard-library call semantics.  Each memory access in the IR carries a
   static [Ir.mem_annot] recording exactly the information each tier can
   recover; workload generators keep annotations sound by construction
   (dynamically aliasing accesses never carry distinguishing annotations),
   which the integration tests re-check against interpreter traces.

   A tier answers [may_alias a b]: 'false' is a proof of independence. *)

type tier = {
  name : string;
  flow_sensitive : bool;
  path_based : bool;
  type_based : bool;
  libcall_sem : bool;
}

let vllpa =
  { name = "VLLPA"; flow_sensitive = false; path_based = false;
    type_based = false; libcall_sem = false }

let vllpa_flow = { vllpa with name = "+flow sensitive"; flow_sensitive = true }

let vllpa_path = { vllpa_flow with name = "+path based"; path_based = true }

let vllpa_type = { vllpa_path with name = "+data type"; type_based = true }

let vllpa_lib = { vllpa_type with name = "+lib calls"; libcall_sem = true }

(* The ladder in presentation order, least to most precise. *)
let ladder = [ vllpa; vllpa_flow; vllpa_path; vllpa_type; vllpa_lib ]

let best = vllpa_lib

(* May the two annotated accesses touch the same word?
   Unknown sites ([site < 0]) conservatively alias everything. *)
let may_alias (t : tier) (a : Ir.mem_annot) (b : Ir.mem_annot) : bool =
  let open Ir in
  if a.site < 0 || b.site < 0 then true
  else if a.site <> b.site then false
  else if t.flow_sensitive && a.flow >= 0 && b.flow >= 0 && a.flow <> b.flow
  then false
  else if t.path_based && a.path <> "" && b.path <> "" && a.path <> b.path
  then false
  else if t.type_based && a.ty <> "" && b.ty <> "" && a.ty <> b.ty then false
  else true

(* Cross-iteration variant: under a flow-sensitive tier, two affine
   accesses to the same site with equal offsets touch a different address
   on every iteration (the analysis tracks the induction value), so they
   cannot conflict across iterations even though they may refer to the
   same location within one. *)
let may_alias_carried (t : tier) (a : Ir.mem_annot) (b : Ir.mem_annot) : bool
    =
  may_alias t a b
  && not
       (t.flow_sensitive
       && a.Ir.site >= 0
       && a.Ir.site = b.Ir.site
       &&
       match (a.Ir.affine, b.Ir.affine) with
       | Some x, Some y -> x = y
       | _ -> false)

(* Partial order on precision: [t1 <= t2] iff every independence proof of
   t1 is also provable by t2 (t2 at least as precise). *)
let leq t1 t2 =
  (not t1.flow_sensitive || t2.flow_sensitive)
  && (not t1.path_based || t2.path_based)
  && (not t1.type_based || t2.type_based)
  && (not t1.libcall_sem || t2.libcall_sem)

(* -- abstract memory effects of instructions ------------------------- *)

(* What an instruction may read and write, as annotation lists.  Library
   calls are opaque (touch everything) unless the tier models libcall
   semantics, in which case pure calls vanish and read-only calls become
   reads of their argument buffers (whose annotations the call site
   provides via [lib_annots]). *)

type effect_ = {
  e_reads : Ir.mem_annot list;
  e_writes : Ir.mem_annot list;
  e_opaque : bool; (* may touch anything (unknown call) *)
}

let no_effect = { e_reads = []; e_writes = []; e_opaque = false }

let effect_of_instr (t : tier) ?(lib_annots : Ir.mem_annot list = [])
    (ins : Ir.instr) : effect_ =
  match ins with
  | Ir.Load (_, ad) -> { no_effect with e_reads = [ ad.Ir.annot ] }
  | Ir.Store (ad, _) -> { no_effect with e_writes = [ ad.Ir.annot ] }
  | Ir.Libcall (_, lc, _) -> begin
      (* pure math intrinsics (abs, hash, sqrt, ...) are known side-effect
         free to every tier, like compiler builtins; the "+lib calls" tier
         adds semantics for the memory-touching calls *)
      match Ir.libcall_effect lc with
      | Ir.Lib_pure -> no_effect
      | Ir.Lib_private_state | Ir.Lib_reads ->
          if not t.libcall_sem then { no_effect with e_opaque = true }
          else begin
            match Ir.libcall_effect lc with
            | Ir.Lib_pure | Ir.Lib_private_state -> no_effect
            | Ir.Lib_reads -> { no_effect with e_reads = lib_annots }
          end
    end
  | Ir.Call _ -> { no_effect with e_opaque = true }
  | Ir.Binop _ | Ir.Unop _ | Ir.Mov _ | Ir.Wait _ | Ir.Signal _ | Ir.Flush
  | Ir.Nop ->
      no_effect

(* Do two effects conflict (at least one write to a common location)?
   [alias] selects the same-iteration or cross-iteration alias notion. *)
let effects_conflict_with alias (a : effect_) (b : effect_) : bool =
  let touches e = e.e_opaque || e.e_reads <> [] || e.e_writes <> [] in
  let writes e = e.e_opaque || e.e_writes <> [] in
  if not (touches a && touches b && (writes a || writes b)) then false
  else if a.e_opaque || b.e_opaque then true
  else
    let any_pair xs ys =
      List.exists (fun x -> List.exists (fun y -> alias x y) ys) xs
    in
    any_pair a.e_writes b.e_writes
    || any_pair a.e_writes b.e_reads
    || any_pair a.e_reads b.e_writes

let effects_conflict_carried (t : tier) =
  effects_conflict_with (may_alias_carried t)
