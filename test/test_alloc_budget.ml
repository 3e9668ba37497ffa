(* Allocation budgets of the two hot layers, in minor-heap words per unit
   of work: a portable signal (unlike wall-clock) that fails on any host
   if a boxed per-event value, a list-based store buffer or a closure per
   instruction creeps back into the interpreter or the timing model. *)

open Turnpike_ir
module Run = Turnpike.Run
module Scheme = Turnpike.Scheme
module Suite = Turnpike_workloads.Suite
module Timing = Turnpike_arch.Timing
module Pass_pipeline = Turnpike_compiler.Pass_pipeline

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
  if per_step > 8.0 then
    Alcotest.failf "interp allocates %.2f minor words per step (budget 8)" per_step;
  if per_event > 2.0 then
    Alcotest.failf "timing allocates %.2f minor words per event (budget 2)" per_event

let tests =
  [ Alcotest.test_case "interp <= 8 and timing <= 2 minor words per unit" `Quick test_budgets ]
