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
module Tk = Turnpike_frontend.Tk
module Fuzz = Turnpike_frontend.Fuzz

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

(* The checked pipeline on a fixed kernel set (Fuzz.generate seeds 1..100,
   frontend outside the measurement) under the three schemes: the passes
   and checks share one analysis cache, so a pass that falls back to
   rebuilding its CFG, liveness, dominance or loops, or a liveness that
   allocates per fixpoint iteration, shows up as words per compile.
   Measured 47.7k words per call; the budget adds 9%. Passes that each
   build their own analyses measured 57.5k, and the previous liveness
   (hash tables, fresh sets every iteration) under the shared cache
   52.9k. *)
let compile_budget = 52_000.

let test_compile_budget () =
  let progs =
    List.init 100 (fun i ->
        match Tk.compile_string ~scale:1 (Fuzz.generate ~seed:(i + 1)) with
        | Ok p -> p
        | Error e -> Alcotest.failf "fuzz seed %d: %s" (i + 1) e)
  in
  let schemes = [ Scheme.baseline; Scheme.turnstile; Scheme.turnpike ] in
  let (), words =
    minor_words (fun () ->
        List.iter
          (fun p ->
            List.iter
              (fun s ->
                ignore
                  (Pass_pipeline.compile ~opts:(Scheme.compile_opts s ~sb_size:4)
                     ~check:Pass_pipeline.PerPass p))
              schemes)
          progs)
  in
  let per_call = words /. float_of_int (List.length progs * List.length schemes) in
  if per_call > compile_budget then
    Alcotest.failf "compile allocates %.0f minor words per call (budget %.0f)" per_call
      compile_budget

let tests =
  [
    (* The name predates the interp budget's cut from 8 to 1 word per step;
       it is kept so the test's identity stays stable. *)
    Alcotest.test_case "interp <= 8 and timing <= 2 minor words per unit" `Quick test_budgets;
    Alcotest.test_case "recovery <= 4 minor words per step" `Quick test_recovery_budget;
    Alcotest.test_case "compile <= 52k minor words per call" `Quick test_compile_budget;
  ]
