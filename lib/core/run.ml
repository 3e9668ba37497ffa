(* End-to-end driver: build a workload, compile it under a scheme, produce
   its dynamic trace, replay the trace on a machine of either core, and
   report counters. Every simulation and every division by a baseline's
   cycles in the drivers goes through here. Compilation and tracing are
   cached per (benchmark, scale, compile key): traces depend only on the
   binary, so a single trace serves every WCDL / machine variation of the
   same scheme.

   The cache is domain-safe: entries are published under a mutex, and a
   key being compiled by one worker is marked in-flight so other workers
   block on it instead of compiling the same binary twice. A generation
   counter makes [clear_cache] sound against in-flight compilations: a
   worker that started before the clear refuses to publish its result. *)

open Turnpike_ir
module Pass_pipeline = Turnpike_compiler.Pass_pipeline
module Static_stats = Turnpike_compiler.Static_stats
module Machine_model = Turnpike_arch.Machine_model
module Sim_stats = Turnpike_arch.Sim_stats
module Suite = Turnpike_workloads.Suite

type compiled_run = {
  compiled : Pass_pipeline.t;
  trace : Trace.t;
  final : Interp.state;
}

type result = {
  scheme : string;
  benchmark : string;
  stats : Sim_stats.t;
  static_stats : Static_stats.t;
  trace : Trace.t;
}

let default_scale = 8
let default_fuel = 400_000

(* One record instead of the ?scale ?fuel ?wcdl ?sb_size ?baseline_sb
   sprawl: drivers build variations with [{ params with ... }] and thread
   a single value through compile, simulate and normalize. *)
type params = {
  scale : int;  (* workload scale factor *)
  fuel : int;  (* interpreter step budget *)
  wcdl : int;  (* worst-case detection latency, cycles *)
  sb_size : int;  (* store-buffer entries (compile AND machine) *)
  baseline_sb : int;  (* store-buffer entries of the normalization baseline *)
}

let default_params =
  { scale = default_scale; fuel = default_fuel; wcdl = 10; sb_size = 4; baseline_sb = 4 }

type slot = Ready of compiled_run | In_flight

let cache : (string, slot) Hashtbl.t = Hashtbl.create 64
let cache_mutex = Mutex.create ()
let cache_cond = Condition.create ()
let cache_generation = ref 0 (* guarded by cache_mutex *)

let clear_cache () =
  Mutex.lock cache_mutex;
  incr cache_generation;
  Hashtbl.reset cache;
  (* Wake any worker waiting on an in-flight entry; the key is gone, so it
     will recompile under the new generation. *)
  Condition.broadcast cache_cond;
  Mutex.unlock cache_mutex

let compile_with (p : params) (scheme : Scheme.t) (bench : Suite.entry) =
  let key =
    Printf.sprintf "%s/%d/%d/%s" (Suite.qualified_name bench) p.scale p.fuel
      (Scheme.compile_key scheme ~sb_size:p.sb_size)
  in
  Mutex.lock cache_mutex;
  let rec acquire () =
    match Hashtbl.find_opt cache key with
    | Some (Ready c) -> `Hit c
    | Some In_flight ->
      Condition.wait cache_cond cache_mutex;
      acquire ()
    | None ->
      Hashtbl.replace cache key In_flight;
      `Compute !cache_generation
  in
  let claim = acquire () in
  Mutex.unlock cache_mutex;
  match claim with
  | `Hit c -> c
  | `Compute generation -> (
    let publish outcome =
      Mutex.lock cache_mutex;
      if !cache_generation = generation then begin
        match outcome with
        | Ok c -> Hashtbl.replace cache key (Ready c)
        | Error _ -> Hashtbl.remove cache key
      end;
      Condition.broadcast cache_cond;
      Mutex.unlock cache_mutex
    in
    match
      let prog = bench.Suite.build ~scale:p.scale in
      let opts = Scheme.compile_opts scheme ~sb_size:p.sb_size in
      let compiled = Pass_pipeline.compile ~opts prog in
      let trace, final = Interp.trace_run ~fuel:p.fuel compiled.Pass_pipeline.prog in
      { compiled; trace; final }
    with
    | c ->
      publish (Ok c);
      c
    | exception e ->
      publish (Error e);
      raise e)

let run_on ?tel (p : params) (scheme : Scheme.t) machine (bench : Suite.entry) =
  let c = compile_with p scheme bench in
  let stats = Machine_model.simulate ?tel machine c.trace in
  {
    scheme = scheme.Scheme.name;
    benchmark = Suite.qualified_name bench;
    stats;
    static_stats = c.compiled.Pass_pipeline.stats;
    trace = c.trace;
  }

exception Degenerate_baseline of string

(* An empty trace still simulates one cycle, so the retired-instruction
   count is what exposes it. *)
let overhead ~baseline result =
  if baseline.stats.Sim_stats.cycles = 0 || baseline.stats.Sim_stats.instructions = 0
  then
    raise
      (Degenerate_baseline
         (Printf.sprintf
            "Run.overhead: baseline %s/%s retired no instructions or \
             simulated 0 cycles (empty or truncated trace) while \
             normalizing %s/%s"
            baseline.benchmark baseline.scheme result.benchmark result.scheme))
  else
    float_of_int result.stats.Sim_stats.cycles
    /. float_of_int baseline.stats.Sim_stats.cycles

let normalized_on (p : params) (scheme : Scheme.t) machine ~baseline bench =
  let base =
    run_on { p with sb_size = p.baseline_sb } (Scheme.unprotected scheme) baseline bench
  in
  let r = run_on p scheme machine bench in
  (overhead ~baseline:base r, r)

let in_order (p : params) scheme =
  Machine_model.In_order (Scheme.machine scheme ~wcdl:p.wcdl ~sb_size:p.sb_size)

let run_with ?tel p scheme bench = run_on ?tel p scheme (in_order p scheme) bench

let normalized_with p scheme bench =
  normalized_on p scheme (in_order p scheme)
    ~baseline:(in_order { p with sb_size = p.baseline_sb } (Scheme.unprotected scheme))
    bench
