(** End-to-end driver: build a workload, compile it under a scheme, trace
    it, replay the trace on a machine of either core, and report counters.
    It is the one place the drivers simulate a trace or divide by a
    baseline's cycles, so every overhead shares {!overhead}'s checks.
    Compilation and tracing are cached per (benchmark, scale, compile key):
    traces depend only on the binary, so one trace serves every WCDL /
    machine variation of a scheme.

    The cache is domain-safe and in-flight-latched: concurrent
    {!Turnpike_parallel} workers asking for the same key block until the first
    worker publishes, so a binary is never compiled twice. *)

open Turnpike_ir
module Pass_pipeline = Turnpike_compiler.Pass_pipeline
module Static_stats = Turnpike_compiler.Static_stats
module Sim_stats = Turnpike_arch.Sim_stats
module Machine_model = Turnpike_arch.Machine_model
module Suite = Turnpike_workloads.Suite

type compiled_run = {
  compiled : Pass_pipeline.t;
  trace : Trace.t;
  final : Interp.state;  (** architectural state at end of trace window *)
}

type result = {
  scheme : string;
  benchmark : string;
  stats : Sim_stats.t;
  static_stats : Static_stats.t;
  trace : Trace.t;
}

val default_scale : int
val default_fuel : int

type params = {
  scale : int;  (** workload scale factor (iteration multiplier) *)
  fuel : int;  (** interpreter step budget *)
  wcdl : int;  (** worst-case detection latency in cycles *)
  sb_size : int;  (** store-buffer entries (compile target and machine) *)
  baseline_sb : int;  (** store-buffer entries of the normalization baseline *)
}
(** The complete run configuration as one record. Drivers derive
    variations with [{ params with ... }] instead of threading five
    optional arguments through every call. *)

val default_params : params
(** [scale 8, fuel 400_000, wcdl 10, sb_size 4, baseline_sb 4] — the
    paper's default operating point. *)

val compile_with : params -> Scheme.t -> Suite.entry -> compiled_run

val run_on :
  ?tel:Turnpike_telemetry.sink ->
  params ->
  Scheme.t ->
  Machine_model.t ->
  Suite.entry ->
  result
(** Compile (cached), trace (cached) and simulate on [machine]. Of
    [params] only [scale], [fuel] and [sb_size] are read: the machine
    carries every timing knob. [tel] (default {!Turnpike_telemetry.null})
    receives the simulation's cycle-stamped timeline (see
    {!Machine_model.simulate}); compile spans are not routed here because
    a cache hit would skip them — profile compiles with
    {!Pass_pipeline.compile} directly. *)

val normalized_on :
  params ->
  Scheme.t ->
  Machine_model.t ->
  baseline:Machine_model.t ->
  Suite.entry ->
  float * result
(** Run the scheme on [machine] and its unprotected binary
    ({!Scheme.unprotected}, compiled at [baseline_sb]) on [baseline],
    returning (overhead, result).
    @raise Degenerate_baseline if the baseline is degenerate (see {!overhead}). *)

val run_with :
  ?tel:Turnpike_telemetry.sink -> params -> Scheme.t -> Suite.entry -> result
(** {!run_on} the scheme's in-order machine at [params]' WCDL and SB size. *)

val normalized_with : params -> Scheme.t -> Suite.entry -> float * result
(** {!normalized_on} the scheme's in-order machine, against the baseline
    in-order machine at [baseline_sb].
    @raise Degenerate_baseline if the baseline is degenerate (see {!overhead}). *)

val clear_cache : unit -> unit
(** Drop every cached compile/trace (forcing recompilation on the next
    {!compile_with}) and invalidate in-flight compilations: a worker
    that started compiling before the clear will complete but not publish
    its result. *)

exception Degenerate_baseline of string
(** Raised by {!overhead} when the baseline retired no instructions or
    simulated zero cycles — an empty or truncated trace that would
    otherwise masquerade as a real overhead. The message names both
    runs. *)

val overhead : baseline:result -> result -> float
(** Normalized execution time (the paper's y-axis): cycles divided by the
    baseline run's cycles.
    @raise Degenerate_baseline if the baseline retired no instructions or
    simulated 0 cycles. *)
