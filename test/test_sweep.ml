(* Tests for the sweeps and the design-space explorer: Pareto dominance
   on crafted vectors, grid construction, the shared campaign arg spec,
   determinism of the explorer at different job counts, its refusal to
   score a degenerate baseline, and golden CSVs of the figure sweeps and
   drivers. *)

module Pareto = Turnpike.Pareto
module DP = Turnpike.Design_point
module Explore = Turnpike.Explore
module CA = Turnpike.Campaign_args
module E = Turnpike.Experiments
module Run = Turnpike.Run
module Scheme = Turnpike.Scheme

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pareto dominance on crafted vectors. *)

let test_dominates () =
  check "strictly better on every axis" true
    (Pareto.dominates [| 1.0; 1.0 |] [| 2.0; 2.0 |]);
  check "better on one axis, tied on the other" true
    (Pareto.dominates [| 1.0; 2.0 |] [| 2.0; 2.0 |]);
  check "equal points do not dominate" false
    (Pareto.dominates [| 1.0; 2.0 |] [| 1.0; 2.0 |]);
  check "trade-off does not dominate" false
    (Pareto.dominates [| 1.0; 3.0 |] [| 2.0; 2.0 |]);
  check "worse never dominates" false
    (Pareto.dominates [| 2.0; 2.0 |] [| 1.0; 2.0 |]);
  check "single axis: smaller wins" true (Pareto.dominates [| 1.0 |] [| 2.0 |]);
  check "NaN axis blocks domination" false
    (Pareto.dominates [| nan; 1.0 |] [| 2.0; 2.0 |]);
  Alcotest.check_raises "length mismatch rejected"
    (Invalid_argument "Pareto.dominates: objective vectors differ in length")
    (fun () -> ignore (Pareto.dominates [| 1.0 |] [| 1.0; 2.0 |]))

let id_obj (v : float array) = v

let test_frontier () =
  (* (1,3) and (3,1) trade off; (2,2) trades off with both; (4,4) is
     dominated by all of them. *)
  let pts = [ [| 1.0; 3.0 |]; [| 4.0; 4.0 |]; [| 3.0; 1.0 |]; [| 2.0; 2.0 |] ] in
  check "frontier drops only the dominated point" true
    (Pareto.frontier ~objectives:id_obj pts
    = [ [| 1.0; 3.0 |]; [| 3.0; 1.0 |]; [| 2.0; 2.0 |] ]);
  (* Duplicates of a non-dominated point survive together (neither is
     strictly better), and input order is preserved. *)
  let dup = [ [| 1.0; 1.0 |]; [| 1.0; 1.0 |]; [| 2.0; 0.5 |] ] in
  check "equal points both kept" true
    (Pareto.frontier ~objectives:id_obj dup = dup);
  (* Single-axis domination: only the minimum survives. *)
  check "single axis keeps the minimum" true
    (Pareto.frontier ~objectives:id_obj [ [| 3.0 |]; [| 1.0 |]; [| 2.0 |] ]
    = [ [| 1.0 |] ])

let test_rank () =
  let pts = [ [| 1.0; 3.0 |]; [| 4.0; 4.0 |]; [| 3.0; 1.0 |]; [| 2.0; 2.0 |] ] in
  let layers = List.map snd (Pareto.rank ~objectives:id_obj pts) in
  check "non-dominated layer 0, dominated layer 1" true (layers = [ 0; 1; 0; 0 ]);
  let chain = [ [| 3.0 |]; [| 1.0 |]; [| 2.0 |] ] in
  check "total order peels one layer per point" true
    (List.map snd (Pareto.rank ~objectives:id_obj chain) = [ 2; 0; 1 ])

(* ------------------------------------------------------------------ *)
(* Design grids. *)

let test_grid_enumeration () =
  let pts = DP.grid DP.tiny_spec in
  check_int "tiny grid size" 4 (List.length pts);
  (* Cores-major, rungs-minor: the canonical order of explorer artifacts. *)
  check "enumeration order" true
    (List.map DP.id pts
    = [
        "inorder/sb4/clq2/cb2/s300/turnstile"; "inorder/sb4/clq2/cb2/s300/turnpike";
        "ooo/sb4/clq2/cb2/s300/turnstile"; "ooo/sb4/clq2/cb2/s300/turnpike";
      ]);
  check_int "default grid size" 64 (List.length (DP.grid DP.default_spec));
  check_int "wide grid size" 486 (List.length (DP.grid DP.wide_spec));
  check "unknown grid name rejected" true
    (Result.is_error (DP.spec_of_string "nope"))

let test_design_point_lowering () =
  let p =
    {
      DP.core = DP.In_order;
      sb_entries = 8;
      clq_entries = 2;
      color_bits = 2;
      sensors = 300;
      rung = Scheme.turnpike;
    }
  in
  check_int "300 sensors at 2.5GHz is the paper's 10-cycle WCDL" 10 (DP.wcdl p);
  (match DP.machine_model p with
  | DP.Machine_model.In_order m ->
    check_int "sb" 8 m.Scheme.Machine.sb_size;
    check_int "color pool from bits" 4 m.Scheme.Machine.colors;
    check "coloring on" true m.Scheme.Machine.coloring
  | DP.Machine_model.Out_of_order _ -> Alcotest.fail "expected in-order");
  let off = DP.machine_model { p with DP.color_bits = 0 } in
  (match off with
  | DP.Machine_model.In_order m -> check "0 bits disables coloring" false m.Scheme.Machine.coloring
  | DP.Machine_model.Out_of_order _ -> Alcotest.fail "expected in-order");
  let rc = DP.recovery_config p ~fuel:1000 in
  check_int "campaign verify delay is the WCDL" 10
    rc.DP.Recovery.verify_delay;
  check "campaign coloring mirrors bits" true rc.DP.Recovery.coloring

(* ------------------------------------------------------------------ *)
(* Shared campaign arg spec. *)

let test_campaign_args () =
  let t = CA.default in
  (match CA.consume t [ "--seed"; "3"; "rest" ] with
  | Some (t', [ "rest" ]) -> check_int "seed parsed" 3 t'.CA.seed
  | _ -> Alcotest.fail "--seed not consumed");
  (match CA.consume t [ "--ci"; "0.01"; "--batch"; "8" ] with
  | Some (t', rest) ->
    check "ci parsed" true (t'.CA.ci = Some 0.01);
    (match CA.consume t' rest with
    | Some (t'', []) -> check_int "batch parsed" 8 t''.CA.batch
    | _ -> Alcotest.fail "--batch not consumed")
  | _ -> Alcotest.fail "--ci not consumed");
  check "unknown flag left to the caller" true
    (CA.consume t [ "--scale"; "4" ] = None);
  check "no stopping without --ci" true (CA.stopping t = None);
  (match CA.stopping { t with CA.ci = Some 0.02; confidence = 0.9; batch = 16 } with
  | Some s ->
    let module V = Turnpike_resilience.Verifier in
    check "half width" true (s.V.half_width = 0.02);
    check "confidence" true (s.V.confidence = 0.9);
    check_int "batch" 16 s.V.batch
  | None -> Alcotest.fail "expected a stopping rule");
  (try
     ignore (CA.consume t [ "--seed"; "x" ]);
     Alcotest.fail "malformed value accepted"
   with Failure _ -> ())

(* ------------------------------------------------------------------ *)
(* Explorer: determinism across job counts, halving shape, validation. *)

let explore_params = { Run.default_params with Run.scale = 1; fuel = 20_000 }

let run_tiny () =
  Explore.run ~seed:7 ~params:explore_params ~spec:DP.tiny_spec ()

let test_explore_deterministic_across_jobs () =
  let saved = Turnpike_parallel.effective_jobs () in
  Turnpike_parallel.set_default_jobs 1;
  let r1 = run_tiny () in
  Turnpike_parallel.set_default_jobs 4;
  let r4 = run_tiny () in
  Turnpike_parallel.set_default_jobs saved;
  check "reports identical at jobs 1 vs 4" true (r1 = r4);
  (* Byte-level: the rendered CSV artifacts match too. *)
  let render r =
    let path = Filename.temp_file "explore" ".csv" in
    Turnpike.Csv_export.explore_grid ~path r;
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  Alcotest.(check string) "grid CSV bytes identical" (render r1) (render r4)

let test_explore_halving_and_validation () =
  let r = run_tiny () in
  check_int "whole grid scored at the proxy rung" 4
    (List.assoc "proxy" r.Explore.evals_per_budget);
  check_int "half promoted to the mid rung" 2
    (List.assoc "mid" r.Explore.evals_per_budget);
  check_int "one full-scale evaluation" 1 r.Explore.full_scale_evals;
  check "full-scale work bounded by half the grid" true
    (2 * r.Explore.full_scale_evals <= r.Explore.grid_size);
  check "frontier is non-empty" true (r.Explore.frontier <> []);
  check "frontier points reached full scale" true
    (List.for_all (fun p -> p.Explore.full_scale) r.Explore.frontier);
  check "frontier re-validation reproduced objectives" true r.Explore.validated;
  check "sound schemes show no SDC" true
    (List.for_all
       (fun p -> p.Explore.objectives.Explore.sdc_rate = 0.0)
       r.Explore.results);
  (* Promotion is seed-stable: the same seed reproduces the whole report. *)
  check "same seed, same report" true (run_tiny () = r)

let test_explore_score_matches_batch () =
  let r = run_tiny () in
  let budget = List.nth (Explore.budgets_for explore_params) 2 in
  List.iter
    (fun p ->
      let o =
        Explore.score ~benches:(Explore.default_benches ()) ~budget ~seed:7
          p.Explore.point
      in
      check "re-scoring a frontier point is bit-identical" true
        (o = p.Explore.objectives))
    r.Explore.frontier

let test_explore_degenerate_baseline () =
  (* A program that returns at once retires nothing; its empty trace still
     simulates one cycle, which would score every point as overhead 1.0.
     The explorer must refuse to score it. *)
  let halts =
    {
      Turnpike_workloads.Suite.name = "halts";
      suite = Turnpike_workloads.Suite.User;
      description = "returns at once";
      build =
        (fun ~scale:_ ->
          let b = Turnpike_ir.Builder.create "halts" in
          Turnpike_ir.Builder.label b "entry";
          Turnpike_ir.Builder.ret b;
          Turnpike_ir.Builder.finish b);
    }
  in
  check "explorer raises Run.Degenerate_baseline" true
    (match Explore.run ~benches:[ halts ] ~params:explore_params ~spec:DP.tiny_spec () with
    | (_ : Explore.report) -> false
    | exception Run.Degenerate_baseline _ -> true)

let test_explore_truncated_trace () =
  (* At fuel 3000 the traces behind the tiny grid stop short of the
     program's end. Scoring them would divide two fuel-limited windows and
     count a campaign that never ran, so the explorer must refuse. *)
  let params = { Run.default_params with Run.scale = 2; fuel = 3000 } in
  match Explore.run ~params ~spec:DP.tiny_spec () with
  | (_ : Explore.report) -> Alcotest.fail "explorer scored truncated traces"
  | exception Failure msg ->
    let mentions sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
      in
      go 0
    in
    check "names a benchmark" true
      (List.exists
         (fun b -> mentions (Turnpike_workloads.Suite.qualified_name b))
         (Explore.default_benches ()));
    check "names a design point" true
      (List.exists (fun p -> mentions (DP.id p)) (DP.grid DP.tiny_spec));
    check "says the trace is incomplete" true (mentions "incomplete")

let test_explore_ladder_monotone () =
  (* A cheaper rung never spends more than the next one: the fuel floors
     of the proxy and mid rungs must not lift them above a small full
     rung. *)
  List.iter
    (fun (scale, fuel) ->
      let rec go = function
        | (a : Explore.budget) :: (b :: _ as rest) ->
          let where =
            Printf.sprintf "(%d, %d) %s -> %s" scale fuel a.Explore.label
              b.Explore.label
          in
          check ("scale " ^ where) true (a.Explore.scale <= b.Explore.scale);
          check ("fuel " ^ where) true (a.Explore.fuel <= b.Explore.fuel);
          check ("faults " ^ where) true
            (a.Explore.max_faults <= b.Explore.max_faults);
          go rest
        | _ -> ()
      in
      go (Explore.budgets_for { Run.default_params with Run.scale; fuel }))
    [ (1, 20_000); (2, 100_000); (8, 400_000) ]

(* ------------------------------------------------------------------ *)
(* Golden CSVs: fig19/fig20/fig14_15 stay byte-identical to the capture
   committed under test/golden (scale 1, fuel 20000, jobs 1). *)

let golden_params = { Run.default_params with Run.scale = 1; fuel = 20_000 }

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The goldens are declared as test deps (copied next to the executable
   by dune); resolve them relative to the binary so `dune exec
   test/test_main.exe` from the repo root finds them too. *)
let golden_dir =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) "golden";
      "golden"; Filename.concat "test" "golden";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> "golden"

let check_golden name render rows =
  let path = Filename.temp_file name ".csv" in
  render ~path rows;
  let got = read_file path in
  Sys.remove path;
  Alcotest.(check string)
    (name ^ " CSV byte-identical to pre-refactor golden")
    (read_file (Filename.concat golden_dir (name ^ ".csv")))
    got

let test_golden_fig19 () =
  check_golden "fig19" Turnpike.Csv_export.wcdl_sweep (E.fig19 ~params:golden_params ())

let test_golden_fig20 () =
  check_golden "fig20" Turnpike.Csv_export.wcdl_sweep (E.fig20 ~params:golden_params ())

let test_golden_fig14_15 () =
  check_golden "fig14_15" Turnpike.Csv_export.fig14_15
    (E.fig14_15 ~params:golden_params ())

(* ------------------------------------------------------------------ *)
(* Driver pins at scale 1, fuel 400000 (the settings of sim_stats.csv),
   every float written exactly with %h: the motivation comparison, the
   unroll ablation and the tiny design-space exploration (grid and
   Pareto rows). Every trace behind a pinned number must be complete, so
   no pin records a run that did not finish. *)

let pin_params = { Run.default_params with Run.scale = 1; fuel = 400_000 }

let pin_lines name = String.split_on_char '\n' (read_file (Filename.concat golden_dir name))

let check_pin name header rows =
  Alcotest.(check (list string))
    (name ^ " rows equal the pinned golden")
    (pin_lines name)
    ((header :: rows) @ [ "" ])

let incomplete traces =
  List.filter_map
    (fun (label, (t : Turnpike_ir.Trace.t)) ->
      if t.Turnpike_ir.Trace.complete then None else Some label)
    traces

let check_complete what traces =
  Alcotest.(check (list string)) (what ^ ": every trace is complete") [] (incomplete traces)

let scheme_traces (p : Run.params) schemes benches =
  List.concat_map
    (fun (b : Turnpike_workloads.Suite.entry) ->
      List.map
        (fun (s : Scheme.t) ->
          ( Printf.sprintf "%s/%s/fuel%d" (Turnpike_workloads.Suite.qualified_name b)
              s.Scheme.name p.Run.fuel,
            (Run.compile_with p s b).Run.trace ))
        schemes)
    benches

let test_pin_motivation () =
  let rows =
    List.map
      (fun (r : E.motivation_row) ->
        Printf.sprintf "%s,%h,%h" r.E.bench r.E.ooo_overhead r.E.inorder_overhead)
      (E.motivation ~params:pin_params ())
  in
  check_complete "motivation"
    (scheme_traces { pin_params with Run.sb_size = 4 }
       [ Scheme.baseline; Scheme.turnstile ] (E.benchmarks ()));
  check_pin "motivation.csv" "bench,ooo_overhead,inorder_overhead" rows

let unrolled_trace s factor b =
  (Run.compile_with { pin_params with Run.sb_size = 4 } (Scheme.with_unroll s factor) b)
    .Run.trace

let test_pin_unroll () =
  let rows =
    List.concat_map
      (fun (r : E.unroll_row) ->
        List.map
          (fun (f, ts, tp) -> Printf.sprintf "%s,%d,%h,%h" r.E.bench f ts tp)
          r.E.by_factor)
      (E.unroll_ablation ~params:pin_params ())
  in
  check_complete "unroll"
    (List.concat_map
       (fun b ->
         List.concat_map
           (fun f ->
             List.map
               (fun (s : Scheme.t) ->
                 ( Printf.sprintf "%s/%s/unroll%d"
                     (Turnpike_workloads.Suite.qualified_name b) s.Scheme.name f,
                   unrolled_trace s f b ))
               [ Scheme.baseline; Scheme.turnstile; Scheme.turnpike ])
           E.unroll_factors)
       (E.benchmarks ()));
  check_pin "unroll.csv" "bench,factor,turnstile,turnpike" rows

let test_pin_explore () =
  let r = Explore.run ~params:pin_params ~spec:DP.tiny_spec () in
  let row table (pr : Explore.point_result) =
    let o = pr.Explore.objectives in
    String.concat ","
      ((table :: DP.csv_cells pr.Explore.point)
      @ [
          string_of_int pr.Explore.budgets_survived; pr.Explore.budget;
          string_of_bool pr.Explore.full_scale;
          Printf.sprintf "%h" o.Explore.overhead; Printf.sprintf "%h" o.Explore.area_um2;
          Printf.sprintf "%h" o.Explore.energy_pj_per_kinstr;
          Printf.sprintf "%h" o.Explore.sdc_rate; string_of_int o.Explore.faults;
          string_of_bool pr.Explore.on_frontier;
        ])
  in
  check "frontier re-validated" true r.Explore.validated;
  check_complete "explore"
    (List.concat_map
       (fun (bu : Explore.budget) ->
         scheme_traces
           { pin_params with Run.scale = bu.Explore.scale; fuel = bu.Explore.fuel; sb_size = 4 }
           [ Scheme.baseline; Scheme.turnstile; Scheme.turnpike ]
           (Explore.default_benches ()))
       (Explore.budgets_for pin_params));
  check_pin "explore_tiny.csv"
    (String.concat ","
       (("table" :: DP.csv_header)
       @ [
           "budgets_survived"; "budget"; "full_scale"; "overhead"; "area_um2";
           "energy_pj_per_kinstr"; "sdc_rate"; "faults"; "pareto";
         ]))
    (List.map (row "grid") r.Explore.results @ List.map (row "pareto") r.Explore.frontier)

let tests =
  [
    Alcotest.test_case "pareto-dominates" `Quick test_dominates;
    Alcotest.test_case "pareto-frontier" `Quick test_frontier;
    Alcotest.test_case "pareto-rank" `Quick test_rank;
    Alcotest.test_case "grid-enumeration" `Quick test_grid_enumeration;
    Alcotest.test_case "design-point-lowering" `Quick test_design_point_lowering;
    Alcotest.test_case "campaign-args" `Quick test_campaign_args;
    Alcotest.test_case "explore-jobs-deterministic" `Slow
      test_explore_deterministic_across_jobs;
    Alcotest.test_case "explore-halving-validation" `Slow
      test_explore_halving_and_validation;
    Alcotest.test_case "explore-score-matches-batch" `Slow
      test_explore_score_matches_batch;
    Alcotest.test_case "explore-degenerate-baseline" `Quick
      test_explore_degenerate_baseline;
    Alcotest.test_case "explore-truncated-trace" `Quick test_explore_truncated_trace;
    Alcotest.test_case "explore-ladder-monotone" `Quick test_explore_ladder_monotone;
    Alcotest.test_case "golden-fig19" `Slow test_golden_fig19;
    Alcotest.test_case "golden-fig20" `Slow test_golden_fig20;
    Alcotest.test_case "golden-fig14-15" `Slow test_golden_fig14_15;
    Alcotest.test_case "golden-motivation" `Slow test_pin_motivation;
    Alcotest.test_case "golden-unroll" `Slow test_pin_unroll;
    Alcotest.test_case "golden-explore-tiny" `Slow test_pin_explore;
  ]
