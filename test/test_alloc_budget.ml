(* Allocation budgets of the hot layers, in minor-heap words per unit of
   work: a portable signal (unlike wall-clock) that fails on any host if a
   boxed per-event value, a list-based store buffer or a closure per
   instruction creeps back into the interpreter, the recovery executor or
   the timing model. *)

open Turnpike_ir
module Run = Turnpike.Run
module Scheme = Turnpike.Scheme
module Suite = Turnpike_workloads.Suite
module Timing = Turnpike_arch.Timing
module Pass_pipeline = Turnpike_compiler.Pass_pipeline
module Recovery = Turnpike_resilience.Recovery

(* water-sp under Turnpike at scale 2: ~59k events, so the per-call set-up
   (cache arrays, scoreboard, coloring maps) is a small share of the
   budget. *)
let params = { Run.default_params with Run.scale = 2 }

let bench () =
  match Suite.find_by_name "water-sp" with
  | b :: _ -> b
  | [] -> failwith "water-sp not in the suite"

let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

let test_budgets () =
  let c = Run.compile_with params Scheme.turnpike (bench ()) in
  let prog = c.Run.compiled.Pass_pipeline.prog in
  let (trace, st), interp_words =
    minor_words (fun () -> Interp.trace_run ~fuel:params.Run.fuel prog)
  in
  Alcotest.(check bool) "trace complete" true trace.Trace.complete;
  let machine =
    Scheme.machine Scheme.turnpike ~wcdl:params.Run.wcdl ~sb_size:params.Run.sb_size
  in
  let _, timing_words = minor_words (fun () -> Timing.simulate machine trace) in
  let per_step = interp_words /. float_of_int st.Interp.steps in
  let per_event = timing_words /. float_of_int (Trace.length trace) in
  if per_step > 1.0 then
    Alcotest.failf "interp allocates %.2f minor words per step (budget 1)" per_step;
  if per_event > 2.0 then
    Alcotest.failf "timing allocates %.2f minor words per event (budget 2)" per_event

(* A fault-free run of the recovery executor on the same binary: interp
   plus the per-step hooks, region bookkeeping and undo log (~2 words per
   step, most of it the undo log's entries). *)
let test_recovery_budget () =
  let c = Run.compile_with params Scheme.turnpike (bench ()) in
  let outcome, words = minor_words (fun () -> Recovery.run c.Run.compiled) in
  let per_step = words /. float_of_int outcome.Recovery.state.Interp.steps in
  if per_step > 4.0 then
    Alcotest.failf "recovery allocates %.2f minor words per step (budget 4)" per_step

let tests =
  [
    (* The name predates the interp budget's cut from 8 to 1 word per step;
       it is kept so the test's identity stays stable. *)
    Alcotest.test_case "interp <= 8 and timing <= 2 minor words per unit" `Quick test_budgets;
    Alcotest.test_case "recovery <= 4 minor words per step" `Quick test_recovery_budget;
  ]
