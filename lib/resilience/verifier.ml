(* SDC-freedom verification: compare the observable output of a resilient
   run (with faults injected) against a golden baseline run of the same
   source program. The observable output is the application data segment —
   spill slots and checkpoint storage are implementation details that
   legitimately differ between compilation schemes.

   The campaign is structured as a pure per-fault function [run_one]
   fanned out on the Turnpike_parallel domain pool, followed by a
   deterministic index-ordered reduction [reduce]. Each fault replays the
   whole interpreter under the recovery executor, so this is where the
   pool parallelizes real simulation work; the reduction folds outcomes
   in fault order, so the report (floating-point sums included) is
   bit-identical at any job count. *)

open Turnpike_ir
module Parallel = Turnpike_parallel
module Telemetry = Turnpike_telemetry

type verdict = Match | Mismatch of { addr : int; golden : int; actual : int }

let data_segment_only k = k >= Layout.data_base && k < Layout.spill_base

(* The reported mismatch is the LOWEST-ADDRESS one, not the first found,
   so reports do not depend on table iteration order. *)
let compare_states ~(golden : Interp.state) ~(actual : Interp.state) =
  match Interp.mem_diff ~only:data_segment_only golden actual with
  | None -> Match
  | Some addr ->
    Mismatch
      { addr; golden = Interp.get_mem golden addr; actual = Interp.get_mem actual addr }

type outcome =
  | Recovered of { detections : Recovery.detection list; reexec_overhead : float }
  | Sdc of { detections : Recovery.detection list; mismatch : verdict }
  | Crashed of { reason : string }

type campaign_report = {
  total : int;
  recovered : int;
  sdc : int;
  crashed : int;
  parity_detections : int;
  sensor_detections : int;
  mean_reexec_overhead : float;
      (* mean of (faulted steps / golden steps) - 1 over recovered runs:
         the execution-time cost of rollback and re-execution *)
}

let detection_name = function
  | Recovery.Sensor -> "sensor"
  | Recovery.Parity -> "parity"

(* The campaign-visible classification of one outcome. A [Recovered] run
   with no detection at all means the strike never landed (the fault was
   scheduled past program exit): architecturally masked. Every landed
   strike is detected — by the sensors at the latest — so masked-by-
   derating cannot occur inside the trace. *)
let class_name = function
  | Recovered { detections = []; _ } -> "masked"
  | Recovered _ -> "detected"
  | Sdc _ -> "sdc"
  | Crashed _ -> "crashed"

let run_one ?(config = Recovery.default_config) ?plan ?(tel = Telemetry.null)
    ~golden ~compiled fault =
  let replay () =
    match plan with
    | Some p -> Snapshot.fork ~tel p fault
    | None -> Recovery.run ~fault ~config ~tel compiled
  in
  let classified =
    match replay () with
    | outcome -> (
      let detections = outcome.Recovery.detections in
      match compare_states ~golden ~actual:outcome.Recovery.state with
      | Match ->
        let golden_steps = max 1 golden.Interp.steps in
        Recovered
          {
            detections;
            reexec_overhead =
              (float_of_int outcome.Recovery.state.Interp.steps
              /. float_of_int golden_steps)
              -. 1.0;
          }
      | Mismatch _ as mismatch -> Sdc { detections; mismatch })
    | exception Recovery.Recovery_failed reason ->
      Crashed { reason = "recovery failed: " ^ reason }
    | exception Recovery.Out_of_fuel { recoveries; steps } ->
      (* Keep the recovery count and exhaustion step: a campaign triaging
         crashes needs to tell recovery livelock (many recoveries, steps
         barely past the strike) from a genuinely wedged program. *)
      Crashed
        {
          reason =
            Printf.sprintf "out of fuel at step %d after %d recoveries" steps
              recoveries;
        }
  in
  (* Close the fault's forensic lifecycle with its verdict; [ts] is the
     golden step count, a pure function of the benchmark, so the stream
     stays deterministic. *)
  if Telemetry.enabled tel then
    Telemetry.instant tel ~ts:golden.Interp.steps ~cat:"forensics" "outcome"
      ~args:
        (("class", Telemetry.Str (class_name classified))
        ::
        (match classified with
        | Recovered { detections; reexec_overhead } ->
          [
            ("detections", Telemetry.Int (List.length detections));
            ("reexec_overhead", Telemetry.Float reexec_overhead);
          ]
        | Sdc { detections; mismatch } ->
          ("detections", Telemetry.Int (List.length detections))
          ::
          (match mismatch with
          | Mismatch { addr; golden; actual } ->
            [
              ("addr", Telemetry.Int addr);
              ("golden", Telemetry.Int golden);
              ("actual", Telemetry.Int actual);
            ]
          | Match -> [])
        | Crashed { reason } -> [ ("reason", Telemetry.Str reason) ]));
  classified

(* ------------------------------------------------------------------ *)
(* Machine-readable per-fault outcomes (satellite of [inject --json]). *)

let verdict_to_json = function
  | Match -> "null"
  | Mismatch { addr; golden; actual } ->
    Printf.sprintf "{\"addr\":%d,\"golden\":%d,\"actual\":%d}" addr golden actual

let outcome_to_json o =
  let detections_json ds =
    "[" ^ String.concat "," (List.map (fun d -> "\"" ^ detection_name d ^ "\"") ds)
    ^ "]"
  in
  match o with
  | Recovered { detections; reexec_overhead } ->
    Printf.sprintf
      "{\"class\":\"%s\",\"detections\":%s,\"reexec_overhead\":%.6f}"
      (class_name o) (detections_json detections) reexec_overhead
  | Sdc { detections; mismatch } ->
    Printf.sprintf "{\"class\":\"sdc\",\"detections\":%s,\"mismatch\":%s}"
      (detections_json detections) (verdict_to_json mismatch)
  | Crashed { reason } ->
    Printf.sprintf "{\"class\":\"crashed\",\"reason\":\"%s\"}"
      (Telemetry.Export.escape reason)

let reduce outcomes =
  let recovered = ref 0
  and sdc = ref 0
  and crashed = ref 0
  and parity = ref 0
  and sensor = ref 0
  and reexec_sum = ref 0.0 in
  let count_detections =
    List.iter (function
      | Recovery.Parity -> incr parity
      | Recovery.Sensor -> incr sensor)
  in
  List.iter
    (function
      | Recovered { detections; reexec_overhead } ->
        count_detections detections;
        incr recovered;
        reexec_sum := !reexec_sum +. reexec_overhead
      | Sdc { detections; _ } ->
        count_detections detections;
        incr sdc
      | Crashed _ -> incr crashed)
    outcomes;
  {
    total = List.length outcomes;
    recovered = !recovered;
    sdc = !sdc;
    crashed = !crashed;
    parity_detections = !parity;
    sensor_detections = !sensor;
    mean_reexec_overhead =
      (* Guard against a campaign with no recovered runs: report 0.0, not
         a NaN that would poison every downstream mean. *)
      (if !recovered = 0 then 0.0 else !reexec_sum /. float_of_int !recovered);
  }

let run_campaign ?jobs ?config ?plan ~golden ~compiled faults =
  Parallel.map_list ?jobs (run_one ?config ?plan ~golden ~compiled) faults |> reduce

(* ------------------------------------------------------------------ *)
(* Sequential stopping: stream the seeded fault list in fixed-size batches
   and stop once a Wilson score interval on the SDC rate is narrow enough.
   Everything the stopping decision depends on — batch boundaries, fault
   order, outcome folds — derives from the seeded list, never from
   wall-clock or completion order, so the stopping point and the report
   are identical at any job count. *)

type stopping = {
  half_width : float;
  confidence : float;
  batch : int;
  min_faults : int;
}

let default_stopping =
  { half_width = 0.05; confidence = 0.95; batch = 32; min_faults = 64 }

(* Inverse of the standard normal CDF (Acklam's rational approximation,
   |relative error| < 1.15e-9): deterministic, dependency-free source for
   the z quantile of the requested confidence level. *)
let probit p =
  if not (p > 0.0 && p < 1.0) then invalid_arg "Verifier.probit: p outside (0,1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  and b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  and c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  and d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let poly coeffs x =
    Array.fold_left (fun acc k -> (acc *. x) +. k) 0.0 coeffs
  in
  let p_low = 0.02425 in
  if p < p_low then begin
    let q = sqrt (-2.0 *. log p) in
    poly c q /. ((poly d q *. q) +. 1.0)
  end
  else if p <= 1.0 -. p_low then begin
    let q = p -. 0.5 in
    let r = q *. q in
    poly a r *. q /. ((poly b r *. r) +. 1.0)
  end
  else begin
    let q = sqrt (-2.0 *. log (1.0 -. p)) in
    -.(poly c q) /. ((poly d q *. q) +. 1.0)
  end

let z_of_confidence confidence =
  if not (confidence > 0.0 && confidence < 1.0) then
    invalid_arg "Verifier: confidence must be inside (0,1)";
  probit (1.0 -. ((1.0 -. confidence) /. 2.0))

(* Wilson score interval for a binomial proportion: behaves sensibly at
   p-hat = 0 (the common case: zero SDCs observed), where the Wald
   interval would collapse to width zero and stop immediately. *)
let wilson_interval ~confidence ~positives ~total =
  if total <= 0 then (0.0, 1.0)
  else begin
    let z = z_of_confidence confidence in
    let n = float_of_int total in
    let p = float_of_int positives /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let center = (p +. (z2 /. (2.0 *. n))) /. denom in
    let half =
      z *. sqrt (((p *. (1.0 -. p)) /. n) +. (z2 /. (4.0 *. n *. n))) /. denom
    in
    (Float.max 0.0 (center -. half), Float.min 1.0 (center +. half))
  end

type ci_report = {
  report : campaign_report;
  sdc_rate : float;
  ci_low : float;
  ci_high : float;
  achieved_half_width : float;
  confidence : float;
  batches : int;
  exhausted : bool;
  outcomes : outcome list;
}

let run_campaign_ci ?jobs ?config ?plan ?(stopping = default_stopping)
    ?(tel = Telemetry.null) ?sink_for ~golden ~compiled faults =
  if stopping.batch <= 0 then invalid_arg "Verifier: batch must be positive";
  if not (stopping.half_width > 0.0) then
    invalid_arg "Verifier: half_width must be positive";
  let take n l =
    let rec go n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: tl -> go (n - 1) (x :: acc) tl
    in
    go n [] l
  in
  let run_indexed (i, fault) =
    let tel = match sink_for with Some f -> f i | None -> Telemetry.null in
    run_one ?config ?plan ~tel ~golden ~compiled fault
  in
  let interval outcomes_rev =
    let total = List.length outcomes_rev in
    let positives =
      List.fold_left
        (fun acc o -> match o with Sdc _ -> acc + 1 | _ -> acc)
        0 outcomes_rev
    in
    let low, high =
      wilson_interval ~confidence:stopping.confidence ~positives ~total
    in
    (total, positives, low, high, (high -. low) /. 2.0)
  in
  (* Wilson-CI trajectory: one counter sample per consumed batch, emitted
     by this (sequential) driver after the deterministic fold — observable
     in flight, byte-identical at any job count. *)
  let emit_trajectory ~batches outcomes_rev =
    if Telemetry.enabled tel then begin
      let total, positives, low, high, half = interval outcomes_rev in
      let recovered =
        List.fold_left
          (fun acc o -> match o with Recovered _ -> acc + 1 | _ -> acc)
          0 outcomes_rev
      in
      Telemetry.counter tel ~ts:batches "wilson_trajectory"
        [
          ("batch", Telemetry.Int batches);
          ("consumed", Telemetry.Int total);
          ("sdc", Telemetry.Int positives);
          ("recovered", Telemetry.Int recovered);
          ("ci_low", Telemetry.Float low);
          ("ci_high", Telemetry.Float high);
          ("half_width", Telemetry.Float half);
        ]
    end
  in
  let rec go outcomes_rev consumed batches remaining =
    match remaining with
    | [] -> (outcomes_rev, batches, true)
    | _ ->
      let batch, rest = take stopping.batch remaining in
      let indexed = List.mapi (fun i f -> (consumed + i, f)) batch in
      let results = Parallel.map_list ?jobs run_indexed indexed in
      let outcomes_rev = List.rev_append results outcomes_rev in
      let total, _, _, _, half = interval outcomes_rev in
      emit_trajectory ~batches:(batches + 1) outcomes_rev;
      if total >= stopping.min_faults && half <= stopping.half_width then
        (outcomes_rev, batches + 1, false)
      else go outcomes_rev total (batches + 1) rest
  in
  let outcomes_rev, batches, exhausted = go [] 0 0 faults in
  let total, positives, low, high, half = interval outcomes_rev in
  let outcomes = List.rev outcomes_rev in
  let report = reduce outcomes in
  {
    report;
    sdc_rate =
      (if total = 0 then 0.0 else float_of_int positives /. float_of_int total);
    ci_low = low;
    ci_high = high;
    achieved_half_width = half;
    confidence = stopping.confidence;
    batches;
    exhausted;
    outcomes;
  }
