(** Cross-layer design-space exploration with Pareto frontiers.

    The explorer walks a {!Design_point.spec} grid — core model,
    store-buffer depth, CLQ size, color-pool width, sensor deployment and
    compiler rung — and scores every point on four objectives (runtime
    overhead, area, dynamic resilience energy, campaign SDC rate), all to
    be minimized. Full-scale timing simulation and CI-stopped fault
    campaigns are expensive, so evaluation runs as successive halving:
    every point is scored under a cheap proxy budget (short traces, few
    faults, wide confidence target), then only the Pareto-best half is
    promoted to the next, costlier budget, until the survivors are scored
    at full scale. The final frontier is the Pareto-optimal set of the
    full-scale survivors, and each frontier point is re-validated by
    re-running its full-scale evaluation and comparing objectives.

    Everything is deterministic at any [--jobs] setting: grid enumeration
    order is fixed ({!Design_point.grid}), parallel fan-out is
    index-ordered ({!Turnpike_parallel}), campaigns use seeded fault lists with
    sequential stopping ({!Turnpike_resilience.Verifier.run_campaign_ci}),
    and halving promotion breaks ties by grid position. *)

module Suite = Turnpike_workloads.Suite

(** {1 Objectives} *)

type objectives = {
  overhead : float;
      (** geomean over the benchmark set of cycles / unprotected-baseline
          cycles on the same core at the same SB depth *)
  area_um2 : float;
      (** resilience hardware area: SB CAM + CLQ RAM + color maps +
          sensor network share of the paper's 1mm{^ 2} die *)
  energy_pj_per_kinstr : float;
      (** mean dynamic energy of the resilience hardware per 1000
          instructions (CAM quarantine traffic vs. RAM fast-release
          lookups) *)
  sdc_rate : float;
      (** pooled silent-data-corruption rate over this point's fault
          campaigns ([0.0] when the budget runs no campaign) *)
  faults : int;  (** faults consumed by the campaigns behind [sdc_rate] *)
}

val objective_vector : objectives -> float array
(** The minimization vector [\[overhead; area; energy; sdc_rate\]] that
    {!Pareto} ranks on ([faults] is bookkeeping, not an objective). *)

(** {1 Evaluation budgets} *)

type budget = {
  label : string;
  scale : int;  (** workload scale of this rung's traces *)
  fuel : int;  (** interpreter step budget of this rung's traces *)
  max_faults : int;
      (** fault supply per campaign; [0] skips campaigns entirely *)
  ci_half_width : float;  (** Wilson-interval stopping target *)
}

val budgets_for : ?faults:int -> ?ci:float -> Run.params -> budget list
(** The default three-rung ladder derived from a full-scale operating
    point: a proxy rung at quarter scale with an eighth of the fuel
    (at least 20k) and a token 8-fault campaign at ±0.25, a mid rung at
    half scale with a quarter of the fuel (at least 40k) and 32 faults at
    ±0.10, and the full-scale rung with up to [faults] (default 64) faults
    CI-stopped at ±[ci] (default 0.05). Each rung is capped at the next
    rung's scale, fuel and fault supply, so these never decrease along
    the ladder. *)

(** {1 Scoring} *)

val default_benches : unit -> Suite.entry list
(** The explorer's benchmark subset: libquan\@2006 (streaming stores),
    mcf\@2006 (pointer chasing) and radix (LIVM/LICM target) — one
    representative per behaviour class, so a grid sweep stays tractable. *)

val score :
  benches:Suite.entry list ->
  budget:budget ->
  seed:int ->
  Design_point.t ->
  objectives
(** Evaluate one design point under one budget: compile each benchmark
    under the point's rung (cached), simulate on the point's
    {!Design_point.machine_model} and its unprotected baseline through
    {!Run.normalized_on}, and run a CI-stopped fault campaign per
    benchmark under the point's {!Design_point.recovery_config}. Identical
    to the batched evaluation {!run} performs — re-scoring a point
    reproduces its objectives bit-for-bit.
    @raise Run.Degenerate_baseline if a benchmark's baseline is degenerate
    (see {!Run.overhead}).
    @raise Failure naming the benchmark and the point if a campaign trace,
    the scheme's trace or its baseline's trace is incomplete at the
    budget's fuel. *)

(** {1 The explorer} *)

type point_result = {
  point : Design_point.t;
  objectives : objectives;  (** from the last budget this point reached *)
  budgets_survived : int;
      (** how many budget rungs evaluated this point (at least 1: the first
          rung scores the whole grid) *)
  budget : string;  (** label of the last budget this point reached *)
  full_scale : bool;  (** reached the final budget rung *)
  on_frontier : bool;  (** member of the full-scale Pareto frontier *)
  forensics : Turnpike_resilience.Forensics.summary option;
      (** attribution rollup of the point's (shared) campaign at the last
          budget it was scored under — populated only when {!run} was
          given [~forensics:true]; kept outside {!objectives} so frontier
          re-validation still compares scalar objectives exactly *)
}

type report = {
  grid_size : int;
  results : point_result list;  (** every grid point, in grid order *)
  frontier : point_result list;  (** Pareto-optimal set, in grid order *)
  evals_per_budget : (string * int) list;
      (** points evaluated at each budget rung, in rung order *)
  full_scale_evals : int;  (** points that reached the final rung *)
  validated : bool;
      (** every frontier point's full-scale re-evaluation reproduced its
          recorded objectives exactly *)
  benches : string list;  (** qualified benchmark names scored over *)
  seed : int;
}

val run :
  ?benches:Suite.entry list ->
  ?budgets:budget list ->
  ?seed:int ->
  ?params:Run.params ->
  ?forensics:bool ->
  spec:Design_point.spec ->
  unit ->
  report
(** Explore [spec]'s grid by successive halving over [budgets] (default
    {!budgets_for}[ params]): score every live point at each rung, keep
    the Pareto-best ceil(n/2) — non-dominated layers first, grid order
    within a layer — and promote them to the next rung. Campaign work is
    shared across points that differ only in axes a campaign cannot
    observe (the core model), and the whole run is deterministic at any
    job count. With [forensics] (default false) every campaign records
    per-fault lifecycles and each {!point_result} carries the attribution
    rollup; sinks never influence outcomes, so scores, promotion and
    validation are unchanged.
    @raise Invalid_argument when [budgets] is empty.
    @raise Run.Degenerate_baseline if a benchmark's baseline is degenerate
    (see {!Run.overhead}).
    @raise Failure if a trace behind any point is incomplete (see
    {!score}). *)
