(* Successive-halving design-space exploration. Scoring is split in two
   deterministic passes per budget rung: timing simulation (through Run,
   on the point's core and its unprotected baseline) fans out over
   (point x benchmark) on the domain pool, while fault campaigns are
   walked sequentially per campaign key (the verifier fans out per fault
   internally — same structure as Experiments.campaign_over, which avoids
   nesting domain pools) and shared across points a campaign cannot
   distinguish (the core model, the color-pool width). *)

module Suite = Turnpike_workloads.Suite
module Sim_stats = Turnpike_arch.Sim_stats
module Cost_model = Turnpike_arch.Cost_model
module Sensor = Turnpike_arch.Sensor
module Clq = Turnpike_arch.Clq
module Recovery = Turnpike_resilience.Recovery
module Injector = Turnpike_resilience.Injector
module Verifier = Turnpike_resilience.Verifier
module Snapshot = Turnpike_resilience.Snapshot
module Forensics = Turnpike_resilience.Forensics
module Trace = Turnpike_ir.Trace

type objectives = {
  overhead : float;
  area_um2 : float;
  energy_pj_per_kinstr : float;
  sdc_rate : float;
  faults : int;
}

let objective_vector o =
  [| o.overhead; o.area_um2; o.energy_pj_per_kinstr; o.sdc_rate |]

type budget = {
  label : string;
  scale : int;
  fuel : int;
  max_faults : int;
  ci_half_width : float;
}

(* Each rung is capped at the next rung's scale, fuel and fault supply,
   so a cheaper rung never spends more than a costlier one: the fuel
   floors would otherwise lift the mid rung above a small full rung. *)
let budgets_for ?faults ?ci (params : Run.params) =
  let below next b =
    {
      b with
      scale = min b.scale next.scale;
      fuel = min b.fuel next.fuel;
      max_faults = min b.max_faults next.max_faults;
    }
  in
  let full =
    {
      label = "full";
      scale = params.Run.scale;
      fuel = params.Run.fuel;
      max_faults = Option.value ~default:64 faults;
      ci_half_width = Option.value ~default:0.05 ci;
    }
  in
  let mid =
    below full
      {
        label = "mid";
        scale = max 1 (params.Run.scale / 2);
        fuel = max 40_000 (params.Run.fuel / 4);
        max_faults = 32;
        ci_half_width = 0.10;
      }
  in
  let proxy =
    below mid
      {
        label = "proxy";
        scale = max 1 (params.Run.scale / 4);
        fuel = max 20_000 (params.Run.fuel / 8);
        max_faults = 8;
        ci_half_width = 0.25;
      }
  in
  [ proxy; mid; full ]

let default_benches () =
  List.filter_map
    (fun (suite, name) -> Suite.find ~suite ~name)
    [
      (Suite.Cpu2006, "libquan");
      (Suite.Cpu2006, "mcf");
      (Suite.Splash3, "radix");
    ]

(* ------------------------------------------------------------------ *)
(* Static area and per-run dynamic energy of a point's hardware. *)

let nregs = 32

let area_um2 (p : Design_point.t) =
  let sb = (Cost_model.store_buffer ~entries:p.Design_point.sb_entries).Cost_model.area_um2 in
  let clq =
    match Design_point.clq_design p with
    | Some (Clq.Compact n) -> (Cost_model.clq ~entries:n).Cost_model.area_um2
    | Some Clq.Ideal | None -> 0.0
  in
  let cmap =
    if p.Design_point.color_bits > 0 then
      (Cost_model.color_maps ~colors:(1 lsl p.Design_point.color_bits) ~nregs ())
        .Cost_model.area_um2
    else 0.0
  in
  let sensor = Sensor.create ~num_sensors:p.Design_point.sensors ~clock_ghz:Design_point.clock_ghz () in
  let sensors =
    Sensor.area_overhead_percent sensor /. 100.0 *. 1.0e6 (* of the 1mm^2 die *)
  in
  sb +. clq +. cmap +. sensors

let dynamic_energy_pj (p : Design_point.t) stats =
  Cost_model.dynamic_energy_pj ~sb_entries:p.Design_point.sb_entries
    ?clq_entries:
      (match Design_point.clq_design p with
      | Some (Clq.Compact n) -> Some n
      | Some Clq.Ideal | None -> None)
    ?colors:
      (if p.Design_point.color_bits > 0 then Some (1 lsl p.Design_point.color_bits)
       else None)
    ~nregs stats

(* ------------------------------------------------------------------ *)
(* Per-budget evaluation. *)

let run_params budget (p : Design_point.t) =
  {
    Run.scale = budget.scale;
    fuel = budget.fuel;
    wcdl = Design_point.wcdl p;
    sb_size = p.Design_point.sb_entries;
    baseline_sb = p.Design_point.sb_entries;
  }

(* A point scored over a trace the fuel cut short would divide two
   windows of unequal work, or count a campaign that never ran. *)
let require_complete ~budget ~what (p : Design_point.t) b (t : Trace.t) =
  if not t.Trace.complete then
    failwith
      (Printf.sprintf
         "Explore: the %s trace of %s (budget %s, scale %d, fuel %d) is \
          incomplete; design point %s cannot be scored"
         what (Suite.qualified_name b) budget.label budget.scale budget.fuel
         (Design_point.id p))

(* Timing + energy of one (point, benchmark) pair: overhead against the
   unprotected baseline of the same core at the same SB depth. Raises
   [Run.Degenerate_baseline] on a degenerate baseline and [Failure] when
   either trace is incomplete. *)
let timing_of ~budget (p : Design_point.t) b =
  let params = run_params budget p in
  let rung = p.Design_point.rung in
  let overhead, r =
    Run.normalized_on params rung (Design_point.machine_model p)
      ~baseline:(Design_point.baseline_model p) b
  in
  require_complete ~budget ~what:rung.Scheme.name p b r.Run.trace;
  require_complete ~budget ~what:"baseline" p b
    (Run.compile_with
       { params with Run.sb_size = params.Run.baseline_sb }
       (Scheme.unprotected rung) b)
      .Run.trace;
  let stats = r.Run.stats in
  ( overhead,
    1000.0 *. dynamic_energy_pj p stats
    /. float_of_int (max 1 stats.Sim_stats.instructions) )

(* A fault campaign only observes the binary (rung, SB depth), the
   functional recovery configuration (CLQ, coloring on/off, WCDL) and the
   trace window — not the core's timing model or the color-pool width.
   Points that agree on this key share one campaign. *)
type campaign_key = {
  rung : Scheme.t;
  sb : int;
  clq_entries : int;
  colored : bool;
  sensors : int;
}

let campaign_key (p : Design_point.t) =
  {
    rung = p.Design_point.rung;
    sb = p.Design_point.sb_entries;
    clq_entries = p.Design_point.clq_entries;
    colored = p.Design_point.color_bits > 0;
    sensors = p.Design_point.sensors;
  }

(* A representative point of the key, for the config lowerings. *)
let key_point k : Design_point.t =
  {
    Design_point.core = Design_point.In_order;
    sb_entries = k.sb;
    clq_entries = k.clq_entries;
    color_bits = (if k.colored then 2 else 0);
    sensors = k.sensors;
    rung = k.rung;
  }

(* Campaigns run on shortened traces (quarter scale of the budget, as the
   resilience experiments do): each fault forks the recovery executor
   from the nearest snapshot, and the verifier's sequential stopping rule
   keeps the consumed fault count deterministic at any job count.
   [point] is the first grid point of the key, named when the campaign
   trace is incomplete. *)
let run_campaign ~budget ~seed ~forensics ~point key b =
  let p = key_point key in
  let bp = run_params budget p in
  let bp = { bp with Run.scale = max 1 (bp.Run.scale / 4) } in
  let c = Run.compile_with bp key.rung b in
  require_complete
    ~budget:{ budget with scale = bp.Run.scale }
    ~what:(key.rung.Scheme.name ^ " campaign") point b c.Run.trace;
  let config = Design_point.recovery_config p ~fuel:Recovery.default_config.Recovery.fuel in
  let plan = Snapshot.record ~config c.Run.compiled in
  let faults = Injector.campaign ~seed ~count:budget.max_faults c.Run.trace in
  let stopping =
    {
      Verifier.half_width = budget.ci_half_width;
      confidence = 0.95;
      batch = max 1 (min 8 budget.max_faults);
      min_faults = min budget.max_faults 16;
    }
  in
  (* With forensics, the same CI loop runs with one lifecycle sink per
     fault: sinks never influence outcomes, so the (sdc, total) pair —
     and therefore promotion and validation — is identical either way. *)
  let ci, records =
    if forensics then
      let records, ci =
        Forensics.campaign_ci ~config ~plan ~stopping ~golden:c.Run.final
          ~compiled:c.Run.compiled faults
      in
      (ci, records)
    else
      ( Verifier.run_campaign_ci ~config ~plan ~stopping ~golden:c.Run.final
          ~compiled:c.Run.compiled faults,
        [] )
  in
  (ci.Verifier.report.Verifier.sdc, ci.Verifier.report.Verifier.total, records)

(* Score every live point under one budget. Two passes: timing on the
   domain pool, then one campaign per distinct key (first-appearance
   order). Returns (point, objectives) in the input (grid) order. *)
let score_batch ?(forensics = false) ~benches ~budget ~seed points =
  let timing =
    Turnpike_parallel.grid ~items:points ~configs:benches (fun p b ->
        timing_of ~budget p b)
  in
  let keys =
    List.fold_left
      (fun acc p ->
        let k = campaign_key p in
        if List.mem_assoc k acc then acc else (k, p) :: acc)
      [] points
    |> List.rev
  in
  let campaigns =
    if budget.max_faults <= 0 then []
    else
      List.map
        (fun (k, point) ->
          let by =
            if not k.rung.Scheme.resilient then (0, 0, [])
            else
              List.fold_left
                (fun (sdc, total, records) b ->
                  let s, t, r = run_campaign ~budget ~seed ~forensics ~point k b in
                  (sdc + s, total + t, records @ r))
                (0, 0, []) benches
          in
          (k, by))
        keys
  in
  (* One attribution rollup per campaign key (shared, like the campaign
     itself, by every point the campaign cannot distinguish). *)
  let rollups =
    List.map
      (fun (k, (_, _, records)) ->
        ( k,
          if forensics && records <> [] then
            Some (Forensics.summarize ~rung:k.rung.Scheme.name records)
          else None ))
      campaigns
  in
  List.map
    (fun (p, by_bench) ->
      let overheads, energies = List.split (List.map snd by_bench) in
      let overhead = Report.geomean overheads in
      let energy = Report.arith_mean energies in
      let sdc, faults =
        match List.assoc_opt (campaign_key p) campaigns with
        | Some (s, t, _) -> (s, t)
        | None -> (0, 0)
      in
      let sdc_rate =
        if faults > 0 then float_of_int sdc /. float_of_int faults else 0.0
      in
      ( p,
        {
          overhead;
          area_um2 = area_um2 p;
          energy_pj_per_kinstr = energy;
          sdc_rate;
          faults;
        },
        Option.join (List.assoc_opt (campaign_key p) rollups) ))
    timing

let score ~benches ~budget ~seed p =
  match score_batch ~benches ~budget ~seed [ p ] with
  | [ (_, o, _) ] -> o
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Successive halving. *)

(* Keep the Pareto-best ceil(n/2) of the scored points: whole
   non-dominated layers first, grid order inside a layer — a total,
   deterministic preference that never depends on evaluation order. *)
let promote scored =
  let k = (List.length scored + 1) / 2 in
  let ranked =
    Pareto.rank ~objectives:(fun (_, o, _) -> objective_vector o) scored
  in
  let indexed = List.mapi (fun i ((p, _, _), layer) -> (i, layer, p)) ranked in
  let by_preference =
    List.stable_sort
      (fun (i, la, _) (j, lb, _) -> if la <> lb then compare la lb else compare i j)
      indexed
  in
  let chosen =
    List.filteri (fun rank _ -> rank < k) by_preference
    |> List.map (fun (i, _, _) -> i)
  in
  List.filteri (fun i _ -> List.mem i chosen) scored
  |> List.map (fun (p, _, _) -> p)

type point_result = {
  point : Design_point.t;
  objectives : objectives;
  budgets_survived : int;
  budget : string;
  full_scale : bool;
  on_frontier : bool;
  forensics : Forensics.summary option;
      (* attribution rollup of the point's (shared) campaign at the last
         budget it was scored under; deliberately OUTSIDE [objectives] so
         frontier re-validation still compares scalar objectives exactly *)
}

type report = {
  grid_size : int;
  results : point_result list;
  frontier : point_result list;
  evals_per_budget : (string * int) list;
  full_scale_evals : int;
  validated : bool;
  benches : string list;
  seed : int;
}

let run ?benches ?budgets ?(seed = 7) ?(params = Run.default_params)
    ?(forensics = false) ~(spec : Design_point.spec) () =
  let benches = match benches with Some bs -> bs | None -> default_benches () in
  let budgets = match budgets with Some bs -> bs | None -> budgets_for params in
  if budgets = [] then invalid_arg "Explore.run: empty budget ladder";
  let points = Design_point.grid spec in
  let nb = List.length budgets in
  (* Latest evaluation of each point, keyed by its id. *)
  let state = Hashtbl.create (List.length points) in
  let evals = ref [] in
  let alive = ref points in
  List.iteri
    (fun bi budget ->
      let scored = score_batch ~forensics ~benches ~budget ~seed !alive in
      evals := (budget.label, List.length scored) :: !evals;
      List.iter
        (fun (p, o, f) ->
          Hashtbl.replace state (Design_point.id p) (o, bi + 1, budget.label, f))
        scored;
      alive :=
        if bi < nb - 1 && List.length scored > 1 then promote scored
        else List.map (fun (p, _, _) -> p) scored)
    budgets;
  let last_budget = List.nth budgets (nb - 1) in
  let survivors =
    List.map
      (fun p ->
        let o, _, _, _ = Hashtbl.find state (Design_point.id p) in
        (p, o))
      !alive
  in
  let frontier_pts =
    Pareto.frontier ~objectives:(fun (_, o) -> objective_vector o) survivors
    |> List.map fst
  in
  let on_frontier p =
    List.exists (fun q -> Design_point.id q = Design_point.id p) frontier_pts
  in
  let result_of p =
    let o, survived, label, forens = Hashtbl.find state (Design_point.id p) in
    {
      point = p;
      objectives = o;
      budgets_survived = survived;
      budget = label;
      full_scale = survived = nb;
      on_frontier = on_frontier p;
      forensics = forens;
    }
  in
  let results = List.map result_of points in
  let frontier = List.filter (fun r -> r.on_frontier) results in
  (* Re-validate the frontier: re-running the full-scale evaluation of a
     frontier point must reproduce its recorded objectives exactly. *)
  let validated =
    List.for_all
      (fun r ->
        score ~benches ~budget:last_budget ~seed r.point = r.objectives)
      frontier
  in
  {
    grid_size = List.length points;
    results;
    frontier;
    evals_per_budget = List.rev !evals;
    full_scale_evals = List.length !alive;
    validated;
    benches = List.map Suite.qualified_name benches;
    seed;
  }
