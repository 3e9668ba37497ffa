(* Tests for the Parallel work pool and the determinism guarantee of the
   parallel experiment engine: identical figure rows and byte-identical
   CSV output at any job count, with the domain-safe compile/trace cache
   deduplicating work underneath. *)

module Run = Turnpike.Run
module Scheme = Turnpike.Scheme
module E = Turnpike.Experiments
module Injector = Turnpike_resilience.Injector
module Verifier = Turnpike_resilience.Verifier

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool semantics *)

let test_map_orders_results () =
  let tasks = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> (i * 7) + 1) tasks in
  List.iter
    (fun jobs ->
      let got = Turnpike_parallel.map ~jobs (fun i -> (i * 7) + 1) tasks in
      check (Printf.sprintf "ordered at jobs=%d" jobs) true (got = expected))
    [ 1; 2; 4; 9 ]

let test_map_empty_and_singleton () =
  check_int "empty" 0 (Array.length (Turnpike_parallel.map ~jobs:4 succ [||]));
  check "singleton" true (Turnpike_parallel.map ~jobs:4 succ [| 41 |] = [| 42 |])

let test_map_reraises_lowest_index () =
  let boom i = if i mod 3 = 0 then failwith (string_of_int i) else i in
  List.iter
    (fun jobs ->
      match Turnpike_parallel.map ~jobs boom (Array.init 20 (fun i -> i + 1)) with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
        (* Tasks 3, 6, 9... fail; the lowest-indexed failure wins at any
           job count. *)
        Alcotest.(check string)
          (Printf.sprintf "first failure at jobs=%d" jobs)
          "3" msg)
    [ 1; 4 ]

let test_grid_regroups_in_order () =
  let rows =
    Turnpike_parallel.grid ~jobs:4 ~items:[ "a"; "b"; "c" ] ~configs:[ 1; 2 ]
      (fun item c -> Printf.sprintf "%s%d" item c)
  in
  check "grid rows" true
    (rows
    = [ ("a", [ (1, "a1"); (2, "a2") ]); ("b", [ (1, "b1"); (2, "b2") ]);
        ("c", [ (1, "c1"); (2, "c2") ]) ])

let test_default_jobs_setting () =
  let saved = Turnpike_parallel.effective_jobs () in
  Turnpike_parallel.set_default_jobs 3;
  check_int "explicit width" 3 (Turnpike_parallel.effective_jobs ());
  Turnpike_parallel.set_default_jobs 0;
  check "auto width positive" true (Turnpike_parallel.effective_jobs () >= 1);
  Turnpike_parallel.set_default_jobs saved

let test_nested_map_degrades_sequentially () =
  (* A map issued from inside a worker must not spawn another pool; it
     runs sequentially in that worker and still returns ordered results. *)
  let rows =
    Turnpike_parallel.map ~jobs:4
      (fun i ->
        Array.to_list (Turnpike_parallel.map ~jobs:4 (fun j -> (i * 10) + j) [| 0; 1; 2 |]))
      (Array.init 6 (fun i -> i))
  in
  check "nested results ordered" true
    (rows = Array.init 6 (fun i -> [ i * 10; (i * 10) + 1; (i * 10) + 2 ]))

(* ------------------------------------------------------------------ *)
(* The acceptance property: a full-figure sweep produces byte-identical
   CSV rows at --jobs 1 and --jobs 4. *)

let small = { E.default_params with E.scale = 1; fuel = 20_000 }

let sweep_csv ~jobs =
  Run.clear_cache ();
  let saved = Turnpike_parallel.effective_jobs () in
  Turnpike_parallel.set_default_jobs jobs;
  let rows = E.fig19 ~params:small () in
  Turnpike_parallel.set_default_jobs saved;
  let path = Filename.temp_file "turnpike_fig19_" ".csv" in
  Turnpike.Csv_export.wcdl_sweep ~path rows;
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  (rows, contents)

let test_sweep_deterministic_across_jobs () =
  let rows1, csv1 = sweep_csv ~jobs:1 in
  let rows4, csv4 = sweep_csv ~jobs:4 in
  check "structured rows identical" true (rows1 = rows4);
  Alcotest.(check string) "CSV byte-identical at jobs 1 vs 4" csv1 csv4;
  check "header uses wcdl columns" true
    (String.length csv1 > 0
    && String.sub csv1 0 (String.index csv1 '\n') = "benchmark,wcdl10,wcdl20,wcdl30,wcdl40,wcdl50")

let test_parallel_cache_shared () =
  (* Two workers racing on the same compile key get the same physical
     object: the in-flight latch makes the second wait, not recompile. *)
  Run.clear_cache ();
  let bench = List.hd (Turnpike_workloads.Suite.find_by_name "libquan") in
  let results =
    Turnpike_parallel.map ~jobs:4
      (fun _ ->
        Run.compile_with
          { Run.default_params with Run.scale = 1; fuel = 20_000 }
          Scheme.turnpike bench)
      (Array.init 8 (fun i -> i))
  in
  Array.iter
    (fun c -> check "same cached object" true (c == results.(0)))
    results

(* ------------------------------------------------------------------ *)
(* The campaign acceptance property: Verifier.run_campaign produces an
   identical campaign_report at any job count for a fixed seed — the
   per-fault mirror of the fig19 CSV check above. *)

let campaign_fixture () =
  Run.clear_cache ();
  let bench = List.hd (Turnpike_workloads.Suite.find_by_name "libquan") in
  let c =
    Run.compile_with { Run.default_params with scale = 1 } Scheme.turnpike bench
  in
  let faults = Injector.campaign ~seed:5 ~count:16 c.Run.trace in
  (c, faults)

let test_campaign_report_identical_across_jobs () =
  let c, faults = campaign_fixture () in
  let report jobs =
    Verifier.run_campaign ~jobs ~golden:c.Run.final ~compiled:c.Run.compiled faults
  in
  let r1 = report 1 and r4 = report 4 in
  check "campaign_report identical at jobs 1 vs 4" true (r1 = r4);
  check_int "every fault accounted" 16 r1.Verifier.total;
  check_int "campaign is SDC-free" 0 r1.Verifier.sdc

let test_run_one_reduce_composition () =
  (* run_campaign IS map run_one |> reduce: composing the pieces by hand
     must give the same report. *)
  let c, faults = campaign_fixture () in
  let composed =
    List.map
      (Verifier.run_one ~golden:c.Run.final ~compiled:c.Run.compiled)
      faults
    |> Verifier.reduce
  in
  let whole =
    Verifier.run_campaign ~jobs:2 ~golden:c.Run.final ~compiled:c.Run.compiled
      faults
  in
  check "composition equals run_campaign" true (composed = whole)

let test_reduce_empty_campaign () =
  (* No outcomes: every counter zero and the overhead mean guarded to 0.0
     (not a NaN from 0/0). *)
  let rep = Verifier.reduce [] in
  check_int "empty total" 0 rep.Verifier.total;
  check "mean overhead is 0.0, not nan" true
    (rep.Verifier.mean_reexec_overhead = 0.0)

(* ------------------------------------------------------------------ *)
(* CSV robustness: a later row missing a scheme must not raise. *)

let test_ladder_csv_tolerates_missing_scheme () =
  let rows =
    [ { E.bench = "a"; by_scheme = [ ("turnstile", 1.3); ("turnpike", 1.0) ] };
      { E.bench = "b"; by_scheme = [ ("turnstile", 1.2) ] } ]
  in
  let path = Filename.temp_file "turnpike_ladder_" ".csv" in
  Turnpike.Csv_export.ladder ~path rows;
  let ic = open_in path in
  let lines = List.init 3 (fun _ -> input_line ic) in
  close_in ic;
  Sys.remove path;
  check "ladder rows" true
    (lines
    = [ "benchmark,turnstile,turnpike"; "a,1.300000,1.000000"; "b,1.200000,nan" ])

let tests =
  [
    ("map delivers results in task order", `Quick, test_map_orders_results);
    ("map on empty/singleton inputs", `Quick, test_map_empty_and_singleton);
    ("map re-raises lowest-index failure", `Quick, test_map_reraises_lowest_index);
    ("grid regroups per item in order", `Quick, test_grid_regroups_in_order);
    ("default jobs setting", `Quick, test_default_jobs_setting);
    ("nested map degrades to sequential", `Quick, test_nested_map_degrades_sequentially);
    ("fig19 sweep byte-identical at jobs 1 vs 4", `Slow, test_sweep_deterministic_across_jobs);
    ("campaign report identical at jobs 1 vs 4", `Slow, test_campaign_report_identical_across_jobs);
    ("run_one |> reduce composes to run_campaign", `Quick, test_run_one_reduce_composition);
    ("reduce of empty campaign", `Quick, test_reduce_empty_campaign);
    ("racing workers share one compile", `Quick, test_parallel_cache_shared);
    ("ladder CSV tolerates missing scheme", `Quick, test_ladder_csv_tolerates_missing_scheme);
  ]
