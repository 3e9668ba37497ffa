(* Pinned simulator statistics: every counter the timing models report for
   every suite benchmark, plus digests of the dynamic traces and of one
   telemetry timeline. The timing core and the trace representation may be
   rewritten for speed, but never so that any of these bytes move.

   test/golden/sim_stats.csv holds one CSV row per (benchmark, config), at
   scale 1 and fuel 400000:
   - [trace:<scheme>]: MD5 of the binary's decoded event stream (one
     [Trace.show_event] line per event), for the baseline, turnstile and
     turnpike binaries;
   - [inorder:<scheme>@<wcdl>] / [ooo:<scheme>@<wcdl>]: the full
     [Sim_stats.to_json] of a simulation, followed by the exact (hex) float
     counters that [to_json] rounds to four digits;
   - one [timeline] row: MD5 of the Chrome export of
     [turnpike-cli trace -b libquan --scale 1 --timeline], which pins the
     telemetry-on path including store-buffer release order. *)

open Turnpike_ir
module Run = Turnpike.Run
module Scheme = Turnpike.Scheme
module Suite = Turnpike_workloads.Suite
module Sim_stats = Turnpike_arch.Sim_stats
module Timing = Turnpike_arch.Timing
module Ooo = Turnpike_arch.Ooo_timing

let params = { Run.default_params with Run.scale = 1; fuel = 400_000 }

(* CSV field quoting (RFC 4180): the JSON column contains commas and
   quotes. *)
let quote s =
  if String.contains s ',' || String.contains s '"' then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let row bench config value = String.concat "," [ bench; config; quote value ]

let event_digest (t : Trace.t) =
  let b = Buffer.create 4096 in
  for i = 0 to Trace.length t - 1 do
    Buffer.add_string b (Trace.show_event (Trace.get t i));
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let stats_value (s : Sim_stats.t) =
  Printf.sprintf "%s;clq_mean_populated=%h;sb_mean_occupancy=%h;l1_hit_rate=%h"
    (Sim_stats.to_json s) s.Sim_stats.clq_mean_populated
    s.Sim_stats.sb_mean_occupancy s.Sim_stats.l1_hit_rate

let schemes = [ Scheme.baseline; Scheme.turnstile; Scheme.turnpike ]

(* Every trace must be complete: a truncated trace would pin numbers for
   a run that did not finish. *)
let incomplete = ref []

let bench_rows b =
  let name = Suite.qualified_name b in
  let trace (s : Scheme.t) =
    let t = (Run.compile_with params s b).Run.trace in
    if not t.Trace.complete then incomplete := (name ^ "/" ^ s.Scheme.name) :: !incomplete;
    t
  in
  let traces = List.map (fun s -> (s, trace s)) schemes in
  let trace_of s = List.assq s traces in
  let digests =
    List.map (fun (s, t) -> row name ("trace:" ^ s.Scheme.name) (event_digest t)) traces
  in
  let inorder (s : Scheme.t) wcdl =
    let m = Scheme.machine s ~wcdl ~sb_size:params.Run.sb_size in
    row name
      (Printf.sprintf "inorder:%s@%d" s.Scheme.name wcdl)
      (stats_value (Timing.simulate m (trace_of s)))
  in
  let ooo (s : Scheme.t) cfg wcdl =
    row name
      (Printf.sprintf "ooo:%s@%d" s.Scheme.name wcdl)
      (stats_value (Ooo.simulate cfg (trace_of s)))
  in
  digests
  @ [ inorder Scheme.baseline 10 ]
  @ List.concat_map
      (fun s -> [ inorder s 10; inorder s 50 ])
      [ Scheme.turnstile; Scheme.turnpike ]
  @ [ ooo Scheme.baseline Ooo.default_config 10 ]
  @ List.map
      (fun wcdl -> ooo Scheme.turnstile (Ooo.turnstile_config ~wcdl ()) wcdl)
      [ 10; 50 ]

let timeline_row () =
  let b =
    match Suite.find_by_name "libquan" with
    | b :: _ -> b
    | [] -> failwith "libquan not in the suite"
  in
  let t =
    Turnpike.Timeline.capture ~jobs:1
      ~params:{ Run.default_params with Run.scale = 1 }
      b
  in
  row "libquan" "timeline" (Digest.to_hex (Digest.string (Turnpike.Timeline.chrome t)))

let rows () =
  incomplete := [];
  let rs = List.concat_map bench_rows (Suite.all ()) @ [ timeline_row () ] in
  (rs, List.rev !incomplete)

let header = "bench,config,value"

let golden_path =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) "golden";
      "golden"; Filename.concat "test" "golden";
    ]
  in
  let dir =
    match List.find_opt Sys.file_exists candidates with Some d -> d | None -> "golden"
  in
  Filename.concat dir "sim_stats.csv"

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_sim_stats_golden () =
  let rs, incomplete = rows () in
  Alcotest.(check (list string)) "every pinned trace is complete" [] incomplete;
  let expected = read_lines golden_path in
  Alcotest.(check int) "row count" (List.length expected) (List.length rs + 1);
  Alcotest.(check string) "header" header (List.hd expected);
  List.iter2
    (fun want got -> Alcotest.(check string) "row" want got)
    (List.tl expected) rs

let tests =
  [ Alcotest.test_case "sim-stats golden (36 benchmarks)" `Slow test_sim_stats_golden ]
