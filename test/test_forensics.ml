(* Tests for the fault-forensics layer: per-fault lifecycle traces
   (strike -> taint use -> detection -> rollback -> re-execution ->
   reconvergence), AVF-style vulnerability attribution, the Wilson
   trajectory counters, and the dropped-checkpoint mutant conviction —
   all byte-identical at any job count. *)

open Turnpike_ir
module Telemetry = Turnpike_telemetry
module Fault = Turnpike_resilience.Fault
module Injector = Turnpike_resilience.Injector
module Verifier = Turnpike_resilience.Verifier
module Snapshot = Turnpike_resilience.Snapshot
module Forensics = Turnpike_resilience.Forensics
module Pass_pipeline = Turnpike_compiler.Pass_pipeline
module Suite = Turnpike_workloads.Suite
module Json = Test_telemetry.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let bench name = List.hd (Suite.find_by_name name)

let small_params =
  { Turnpike.Run.default_params with Turnpike.Run.scale = 1; fuel = 400_000 }

let compiled_of name =
  Turnpike.Run.compile_with small_params Turnpike.Scheme.turnpike (bench name)

let names_of sink =
  List.map (fun (e : Telemetry.event) -> e.Telemetry.name) (Telemetry.events sink)

(* ------------------------------------------------------------------ *)
(* Lifecycle traces *)

let test_lifecycle_event_order () =
  let c = compiled_of "libquan" in
  let sink = Telemetry.create () in
  let fault = Fault.single_bit ~at_step:100 ~reg:3 ~bit:5 in
  let outcome =
    Verifier.run_one ~tel:sink ~golden:c.Turnpike.Run.final
      ~compiled:c.Turnpike.Run.compiled fault
  in
  (match outcome with
  | Verifier.Recovered { detections = _ :: _; _ } -> ()
  | _ -> Alcotest.fail "expected a detected recovery");
  let names = names_of sink in
  let idx n =
    match List.find_index (String.equal n) names with
    | Some i -> i
    | None -> Alcotest.fail (n ^ " event missing")
  in
  check "strike precedes detection" true (idx "strike" < idx "detect");
  check "detection precedes rollback" true (idx "detect" < idx "rollback");
  check "rollback precedes the re-execution span" true
    (idx "rollback" < idx "reexec");
  check "re-execution precedes reconvergence" true
    (idx "reexec" < idx "reconverge");
  check "the verdict closes the stream" true
    (List.nth names (List.length names - 1) = "outcome");
  (* Every lifecycle instant carries static provenance and the dynamic
     fault-free position. *)
  List.iter
    (fun (e : Telemetry.event) ->
      if e.Telemetry.name <> "outcome" && e.Telemetry.name <> "reexec" then begin
        check (e.Telemetry.name ^ " carries func") true
          (List.mem_assoc "func" e.Telemetry.args);
        check (e.Telemetry.name ^ " carries block") true
          (List.mem_assoc "block" e.Telemetry.args);
        check (e.Telemetry.name ^ " carries index") true
          (List.mem_assoc "index" e.Telemetry.args);
        check (e.Telemetry.name ^ " carries pos") true
          (List.mem_assoc "pos" e.Telemetry.args)
      end;
      check (e.Telemetry.name ^ " in the forensics category") true
        (e.Telemetry.cat = "forensics" || e.Telemetry.name = "outcome"))
    (Telemetry.events sink);
  let r = Forensics.record_of ~index:0 ~fault ~outcome sink in
  check "record classifies as detected" true (r.Forensics.clazz = Forensics.Detected);
  check "record distilled a strike site" true (r.Forensics.site <> None);
  check "record distilled the detection kind" true
    (match r.Forensics.detect_kind with
    | Some ("sensor" | "parity") -> true
    | _ -> false);
  check "detection latency is non-negative" true
    (match r.Forensics.detect_latency with Some l -> l >= 0 | None -> false);
  check "rewind is positive" true
    (match r.Forensics.rewind with Some w -> w > 0 | None -> false)

let test_masked_fault_has_no_lifecycle () =
  (* A strike scheduled far past program exit never lands: no lifecycle
     events except the verdict, classified as masked. *)
  let c = compiled_of "libquan" in
  let sink = Telemetry.create () in
  let fault = Fault.single_bit ~at_step:100_000_000 ~reg:3 ~bit:5 in
  let outcome =
    Verifier.run_one ~tel:sink ~golden:c.Turnpike.Run.final
      ~compiled:c.Turnpike.Run.compiled fault
  in
  check "outcome is an undetected recovery" true
    (match outcome with
    | Verifier.Recovered { detections = []; _ } -> true
    | _ -> false);
  check "only the verdict was emitted" true (names_of sink = [ "outcome" ]);
  let r = Forensics.record_of ~index:0 ~fault ~outcome sink in
  check "classified masked" true (r.Forensics.clazz = Forensics.Masked);
  check "no strike site" true (r.Forensics.site = None);
  check "no region" true (r.Forensics.region = None)

(* ------------------------------------------------------------------ *)
(* Attribution math *)

let test_classify_and_vulnerability () =
  let recovered detections =
    Verifier.Recovered { detections; reexec_overhead = 0.0 }
  in
  check "no detection = masked" true
    (Forensics.classify (recovered []) = Forensics.Masked);
  check "detected recovery" true
    (Forensics.classify (recovered [ Turnpike_resilience.Recovery.Sensor ])
    = Forensics.Detected);
  check "crash class" true
    (Forensics.classify (Verifier.Crashed { reason = "x" }) = Forensics.Crashed);
  let c = { Forensics.masked = 1; detected = 5; sdc = 3; crashed = 1 } in
  check_int "total" 10 (Forensics.counts_total c);
  check_int "failures derate masked and detected" 4 (Forensics.failures c);
  check "vulnerability = failures/total" true
    (Float.abs (Forensics.vulnerability c -. 0.4) < 1e-9);
  check "empty bin has zero vulnerability" true
    (Forensics.vulnerability Forensics.zero_counts = 0.0)

(* ------------------------------------------------------------------ *)
(* Campaign determinism *)

let test_campaign_jobs_invariant () =
  let c = compiled_of "libquan" in
  let compiled = c.Turnpike.Run.compiled in
  let golden = c.Turnpike.Run.final in
  let faults = Injector.campaign ~seed:9 ~count:24 c.Turnpike.Run.trace in
  let r1, rep1 = Forensics.campaign ~jobs:1 ~golden ~compiled faults in
  let r4, rep4 = Forensics.campaign ~jobs:4 ~golden ~compiled faults in
  check "campaign reports identical at jobs 1 and 4" true (rep1 = rep4);
  check "records identical at jobs 1 and 4" true (r1 = r4);
  check_str "merged event stream byte-identical at jobs 1 and 4"
    (Telemetry.Export.jsonl (Forensics.merged_events r1))
    (Telemetry.Export.jsonl (Forensics.merged_events r4));
  check "summaries identical" true
    (Forensics.summarize ~rung:"turnpike" r1
    = Forensics.summarize ~rung:"turnpike" r4);
  let s = Forensics.summarize r1 in
  check_int "one record per fault" (List.length faults) s.Forensics.total;
  check_int "class counts partition the campaign" (List.length faults)
    (Forensics.counts_total s.Forensics.by_class);
  check_int "register table covers every fault" (List.length faults)
    (List.fold_left
       (fun acc (row : Forensics.row) ->
         acc + Forensics.counts_total row.Forensics.counts)
       0 s.Forensics.by_register)

let test_campaign_report_matches_verifier () =
  (* Forensic sinks never influence outcomes: the report equals the plain
     campaign's, from scratch and forked from a pilot plan alike. *)
  let c = compiled_of "libquan" in
  let compiled = c.Turnpike.Run.compiled in
  let golden = c.Turnpike.Run.final in
  let faults = Injector.campaign ~seed:9 ~count:24 c.Turnpike.Run.trace in
  let plain = Verifier.run_campaign ~golden ~compiled faults in
  check "scratch: forensics report = plain report" true
    (snd (Forensics.campaign ~golden ~compiled faults) = plain);
  let plan = Snapshot.record compiled in
  check "forked: forensics report = plain report" true
    (snd (Forensics.campaign ~plan ~golden ~compiled faults)
    = Verifier.run_campaign ~plan ~golden ~compiled faults)

let test_wilson_trajectory_jobs_invariant () =
  let c = compiled_of "libquan" in
  let compiled = c.Turnpike.Run.compiled in
  let golden = c.Turnpike.Run.final in
  let faults = Injector.campaign ~seed:5 ~count:200 c.Turnpike.Run.trace in
  let plan = Snapshot.record compiled in
  let stopping =
    { Verifier.half_width = 0.05; confidence = 0.95; batch = 16; min_faults = 32 }
  in
  let run jobs =
    let traj = Telemetry.create ~task:(List.length faults) () in
    let records, ci =
      Forensics.campaign_ci ~jobs ~plan ~stopping ~tel:traj ~golden ~compiled
        faults
    in
    (records, ci, Telemetry.events traj)
  in
  let r1, ci1, t1 = run 1 in
  let r4, ci4, t4 = run 4 in
  check "ci reports identical at jobs 1 and 4" true (ci1 = ci4);
  check "records identical at jobs 1 and 4" true (r1 = r4);
  check_str "trajectory bytes identical at jobs 1 and 4"
    (Telemetry.Export.jsonl t1) (Telemetry.Export.jsonl t4);
  check_int "one counter per consumed batch" ci1.Verifier.batches
    (List.length t1);
  check_int "records cover exactly the consumed prefix"
    ci1.Verifier.report.Verifier.total (List.length r1);
  (* The last trajectory sample is the final report. *)
  let last = List.nth t1 (List.length t1 - 1) in
  check "final sample consumed the whole campaign" true
    (List.assoc_opt "consumed" last.Telemetry.args
    = Some (Telemetry.Int ci1.Verifier.report.Verifier.total));
  check "trajectory samples are wilson counters" true
    (List.for_all
       (fun (e : Telemetry.event) ->
         e.Telemetry.name = "wilson_trajectory"
         && List.mem_assoc "ci_low" e.Telemetry.args
         && List.mem_assoc "ci_high" e.Telemetry.args
         && List.mem_assoc "half_width" e.Telemetry.args)
       t1)

(* ------------------------------------------------------------------ *)
(* Mutant conviction *)

let test_mutant_conviction () =
  (* Ground truth: drop every checkpoint of one recoverable live-in, then
     check the campaign's region attribution ranks an affected region
     first — localization, not just detection. *)
  let prog = (bench "mcf").Suite.build ~scale:2 in
  let opts = Turnpike.Scheme.compile_opts Turnpike.Scheme.turnstile ~sb_size:4 in
  let c = Pass_pipeline.compile ~opts prog in
  match Forensics.drop_checkpoint_mutant c with
  | None -> Alcotest.fail "expected a checkpointed live-in victim"
  | Some (m, victim, affected) ->
    check "victim register is not zero" false (Reg.is_zero victim);
    check "the victim flows into at least one region" true (affected <> []);
    let trace, golden = Interp.trace_run ~fuel:400_000 m.Pass_pipeline.prog in
    check "mutant trace complete" true trace.Trace.complete;
    let faults = Injector.campaign ~seed:11 ~count:40 trace in
    let records, rep = Forensics.campaign ~golden ~compiled:m faults in
    check "campaign convicts the mutant dynamically" true
      (rep.Verifier.sdc + rep.Verifier.crashed > 0);
    let s = Forensics.summarize ~rung:"turnstile+drop-ckpt" records in
    check_int "summary failures match the report"
      (rep.Verifier.sdc + rep.Verifier.crashed)
      (Forensics.failures s.Forensics.by_class);
    (match s.Forensics.by_region with
    | top :: _ ->
      check "top-ranked region is a ground-truth victim region" true
        (List.mem top.Forensics.key (List.map string_of_int affected))
    | [] -> Alcotest.fail "no region attribution")

(* ------------------------------------------------------------------ *)
(* Serialization *)

let test_json_well_formed () =
  let c = compiled_of "libquan" in
  let faults = Injector.campaign ~seed:3 ~count:8 c.Turnpike.Run.trace in
  let records, _ =
    Forensics.campaign ~golden:c.Turnpike.Run.final
      ~compiled:c.Turnpike.Run.compiled faults
  in
  List.iter
    (fun r ->
      let j = Json.parse (Forensics.record_to_json r) in
      check "record carries a class" true
        (Json.str_member "class" j
        = Some (Forensics.clazz_name r.Forensics.clazz));
      check "record embeds the fault draw" true
        (match Json.member "fault" j with
        | Some f ->
          Json.str_member "reg" f <> None && Json.num_member "at_step" f <> None
        | None -> false);
      check "record embeds the verdict" true
        (match Json.member "outcome" j with
        | Some o -> Json.str_member "class" o <> None
        | None -> false))
    records;
  let s = Forensics.summarize ~rung:"turnpike" records in
  let j = Json.parse (Forensics.summary_to_json s) in
  check "summary total round-trips" true (Json.num_member "total" j = Some 8.);
  check "summary names its rung" true (Json.str_member "rung" j = Some "turnpike");
  List.iter
    (fun key ->
      check (key ^ " is a ranked table") true
        (match Json.member key j with
        | Some (Json.List rows) ->
          List.for_all
            (fun row ->
              Json.str_member "key" row <> None
              && Json.num_member "vulnerability" row <> None)
            rows
        | _ -> false))
    [ "by_site"; "by_register"; "by_region" ];
  check "fault JSON parses standalone" true
    (match Json.parse (Fault.to_json (List.hd faults)) with
    | Json.Obj _ -> true
    | _ -> false)

let tests =
  [
    ("lifecycle event order", `Quick, test_lifecycle_event_order);
    ("masked fault has no lifecycle", `Quick, test_masked_fault_has_no_lifecycle);
    ("classify and vulnerability math", `Quick, test_classify_and_vulnerability);
    ("campaign byte-identical across --jobs", `Quick, test_campaign_jobs_invariant);
    ("campaign report = Verifier.run_campaign", `Quick, test_campaign_report_matches_verifier);
    ( "wilson trajectory byte-identical across --jobs",
      `Slow,
      test_wilson_trajectory_jobs_invariant );
    ("drop-ckpt mutant convicted by region ranking", `Slow, test_mutant_conviction);
    ("record and summary JSON well-formed", `Quick, test_json_well_formed);
  ]
