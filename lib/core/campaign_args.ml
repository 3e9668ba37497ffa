(* The shared argument spec of every campaign-driving entry point:
   turnpike-cli inject, bench resilience and the explorer front ends all
   parse these five knobs through this module, so flag names, defaults and
   doc strings exist exactly once. *)

module Verifier = Turnpike_resilience.Verifier

type t = {
  seed : int;
  faults : int option;
  ci : float option;
  confidence : float;
  batch : int;
  jobs : int option;
  forensics : bool;
}

let default =
  {
    seed = 7;
    faults = None;
    ci = None;
    confidence = 0.95;
    batch = 32;
    jobs = None;
    forensics = false;
  }

let doc_seed = "Campaign seed (fault draws and batch order)."

let doc_faults =
  "Campaign size: number of injected faults (with --ci, the maximum fault \
   supply)."

let doc_ci =
  "Stop when the confidence interval's half-width on the SDC rate reaches \
   WIDTH (e.g. 0.01 for +/- 1%)."

let doc_confidence = "Confidence level of the stopping interval."
let doc_batch = "Faults per sequential batch of the --ci stopping loop."

let doc_jobs =
  "Worker domains (0, the default, means one per CPU; 1 is strictly \
   sequential). Results are identical at any job count."

let doc_forensics =
  "Record the per-fault forensic lifecycle (strike, taint use, detection, \
   rollback, re-execution, reconvergence) and attribute vulnerability to \
   static sites, registers and regions. Output is byte-identical at any \
   --jobs count and across snapshot-forked vs --scratch replay."

let usage =
  "--seed S --faults N --ci W --confidence C --batch B --jobs N --forensics"

let value_of flag convert = function
  | [] -> failwith (Printf.sprintf "%s expects a value" flag)
  | v :: rest -> (
    match convert v with
    | Some x -> (x, rest)
    | None -> failwith (Printf.sprintf "%s expects a number, got %s" flag v))

let consume t = function
  | "--seed" :: rest ->
    let seed, rest = value_of "--seed" int_of_string_opt rest in
    Some ({ t with seed }, rest)
  | "--faults" :: rest ->
    let n, rest = value_of "--faults" int_of_string_opt rest in
    Some ({ t with faults = Some n }, rest)
  | "--ci" :: rest ->
    let w, rest = value_of "--ci" float_of_string_opt rest in
    Some ({ t with ci = Some w }, rest)
  | "--confidence" :: rest ->
    let confidence, rest = value_of "--confidence" float_of_string_opt rest in
    Some ({ t with confidence }, rest)
  | "--batch" :: rest ->
    let batch, rest = value_of "--batch" int_of_string_opt rest in
    Some ({ t with batch }, rest)
  | "--jobs" :: rest ->
    let n, rest = value_of "--jobs" int_of_string_opt rest in
    Some ({ t with jobs = Some n }, rest)
  | "--forensics" :: rest -> Some ({ t with forensics = true }, rest)
  | _ -> None

let apply_jobs t =
  match t.jobs with None -> () | Some n -> Turnpike_parallel.set_default_jobs n

let stopping ?(default = Verifier.default_stopping) t =
  match t.ci with
  | None -> None
  | Some half_width ->
    Some
      {
        default with
        Verifier.half_width;
        confidence = t.confidence;
        batch = t.batch;
      }
