open Helix_ir
open Helix_hcc
open Helix_core
open Helix_machine
open Helix_workloads

(* Shared plumbing for the paper's experiments: building, compiling and
   simulating workloads under the different compiler versions and machine
   configurations, with memoization so the bench harness does not repeat
   identical simulations across figures. *)

type version = V1 | V2 | V3

let version_name = function V1 -> "HCCv1" | V2 -> "HCCv2" | V3 -> "HELIX-RC"

let config_of = function
  | V1 -> Hcc_config.v1
  | V2 -> Hcc_config.v2
  | V3 -> Hcc_config.v3

(* ---- host-parallel evaluation pool (OCaml 5 domains) ----------------- *)

(* Independent figure points share no simulator state (each run builds
   its own program, memory and machine), so they can evaluate on
   separate host cores.  [Pool.map] preserves order and re-raises the
   first exception after all domains join.  Jobs come from
   HELIX_BENCH_JOBS or the CLI's [-j]; the default of 1 keeps every
   existing entry point strictly sequential. *)
module Pool = struct
  let env_jobs =
    Helix_obs.Env.get "HELIX_BENCH_JOBS" ~accepted:"a positive integer"
      ~default:1 (Helix_obs.Env.int_at_least 1)

  let jobs_ref = ref env_jobs
  let set_jobs n = jobs_ref := max 1 n
  let jobs () = !jobs_ref

  let map (f : 'a -> 'b) (xs : 'a list) : 'b list =
    (* cap at the host's useful parallelism: extra domains on a small
       host only add GC coordination overhead *)
    let j = min (jobs ()) (Domain.recommended_domain_count ()) in
    let n = List.length xs in
    if j <= 1 || n <= 1 then List.map f xs
    else begin
      let arr = Array.of_list xs in
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let worker () =
        let continue_ = ref true in
        while !continue_ do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then continue_ := false
          else
            results.(i) <-
              Some (try Ok (f arr.(i)) with e -> Error (e, Printexc.get_raw_backtrace ()))
        done
      in
      let spawned = List.init (min j n - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join spawned;
      Array.to_list results
      |> List.map (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)
    end
end

(* ---- memo tables --------------------------------------------------- *)

(* The caches are shared across pool domains; Hashtbl is not
   thread-safe, so every access goes through [memo_lock].  Lookup and
   store are locked separately: two domains may race to compute the
   same key, which costs a duplicate simulation but never corrupts the
   table (both compute identical results). *)
let memo_mutex = Mutex.create ()

let memo_lock f =
  Mutex.lock memo_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock memo_mutex) f

let seq_cache : (string * string, Executor.result) Hashtbl.t =
  Hashtbl.create 16

let compiled_cache : (string * string, Hcc.compiled) Hashtbl.t =
  Hashtbl.create 16

let par_cache : (string * string, Executor.result) Hashtbl.t =
  Hashtbl.create 64

let core_kind_name (c : Mach_config.core_config) =
  Printf.sprintf "%s%d"
    (match c.Mach_config.kind with
    | Mach_config.In_order -> "io"
    | Mach_config.Out_of_order -> "ooo")
    c.Mach_config.width

(* Sequential baseline on one core of [mach]'s core type. *)
let sequential ?(mach = Mach_config.default) (wl : Workload.t) :
    Executor.result =
  let key = (wl.Workload.name, core_kind_name mach.Mach_config.core) in
  match memo_lock (fun () -> Hashtbl.find_opt seq_cache key) with
  | Some r -> r
  | None ->
      let s = wl.Workload.build () in
      let r =
        Helix.run_sequential mach s.Workload.prog (s.Workload.init Workload.Ref)
      in
      memo_lock (fun () -> Hashtbl.replace seq_cache key r);
      r

(* Compile [wl] with [version] targeting [cores]. *)
let compiled ?(cores = 16) (wl : Workload.t) (version : version) :
    Hcc.compiled =
  let key =
    (wl.Workload.name, Printf.sprintf "%s/%d" (version_name version) cores)
  in
  match memo_lock (fun () -> Hashtbl.find_opt compiled_cache key) with
  | Some c -> c
  | None ->
      let s = wl.Workload.build () in
      let c =
        Hcc.compile
          ((config_of version) ~target_cores:cores ())
          s.Workload.prog s.Workload.layout
          ~train_mem:(s.Workload.init Workload.Train)
      in
      (* remember the init function via a fresh build (same deterministic
         data); store compiled only *)
      memo_lock (fun () -> Hashtbl.replace compiled_cache key c);
      c

(* Warm the memo tables for a whole workload registry in parallel before
   a sweep: every (workload, compiler version) pair plus the sequential
   baselines.  Compilation and baseline simulation are independent jobs,
   so they spread over the pool; the figures that follow then hit the
   caches instead of compiling one-by-one inside their own loops.  A
   no-op (beyond the work itself) with 1 job, and safe to call twice --
   already-cached keys are skipped by [compiled]/[sequential]. *)
let precompile ?(cores = 16) ?(versions = [ V1; V2; V3 ]) (wls : Workload.t list)
    : unit =
  let compile_jobs =
    List.concat_map (fun wl -> List.map (fun v -> (wl, v)) versions) wls
  in
  ignore
    (Pool.map (fun (wl, v) -> ignore (compiled ~cores wl v)) compile_jobs);
  ignore (Pool.map (fun wl -> ignore (sequential wl)) wls)

(* Reference-input memory for a compiled program (deterministic rebuild). *)
let ref_mem (wl : Workload.t) : Memory.t =
  let s = wl.Workload.build () in
  s.Workload.init Workload.Ref

(* Parallel run; [tag] distinguishes executor configurations in the memo
   key.  Pass [cache:false] for sweep points used only once. *)
let parallel ?(cache = true) ~(tag : string) (wl : Workload.t)
    (version : version) (exec_cfg : Executor.config) : Executor.result =
  let key =
    ( wl.Workload.name,
      Printf.sprintf "%s/%d/%s" (version_name version)
        exec_cfg.Executor.mach.Mach_config.n_cores tag )
  in
  match
    if cache then memo_lock (fun () -> Hashtbl.find_opt par_cache key)
    else None
  with
  | Some r -> r
  | None ->
      let c =
        compiled ~cores:exec_cfg.Executor.mach.Mach_config.n_cores wl version
      in
      let r = Executor.run ~compiled:c exec_cfg c.Hcc.cp_prog (ref_mem wl) in
      if cache then memo_lock (fun () -> Hashtbl.replace par_cache key r);
      r

(* Canonical executor configurations *)

let conventional_cfg ?(mach = Mach_config.default) ?engine () =
  Executor.default_config ~ring:false ~comm:Executor.fully_coupled ?engine mach

let helix_cfg ?(mach = Mach_config.default) ?trace ?robust ?faults ?engine
    () =
  let cfg =
    Executor.default_config ~ring:true ~comm:Executor.fully_decoupled ?trace
      ?robust ?engine mach
  in
  match faults with
  | None -> cfg
  | Some plan ->
      { cfg with
        Executor.ring_cfg =
          Option.map
            (fun rc -> { rc with Helix_ring.Ring.faults = Some plan })
            cfg.Executor.ring_cfg }

(* Conventional run of a version's code (HCCv1/v2 always run here). *)
let run_conventional wl version =
  parallel ~tag:"conv" wl version (conventional_cfg ())

(* Full HELIX-RC run. *)
let run_helix wl version = parallel ~tag:"helix" wl version (helix_cfg ())

let speedup_of wl (par : Executor.result) =
  Helix.speedup ~seq:(sequential wl) ~par

let geomean = Helix.geomean

(* ---- verification -------------------------------------------------- *)

(* Check a simulated run against the reference interpreter. *)
let verified (wl : Workload.t) (r : Executor.result) : bool =
  let s = wl.Workload.build () in
  let g = Helix.golden_run s.Workload.prog (s.Workload.init Workload.Ref) in
  (Helix.verify g r).Helix.ok
