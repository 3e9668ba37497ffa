(* Tests for the resilience engine: fault model, injector, the
   region-transactional recovery executor and the SDC verifier — including
   the paper's negative result (Fig 16: checkpoint fast release without
   coloring is unsound). *)

open Turnpike_ir
module Recovery = Turnpike_resilience.Recovery
module Fault = Turnpike_resilience.Fault
module Injector = Turnpike_resilience.Injector
module Verifier = Turnpike_resilience.Verifier
module Snapshot = Turnpike_resilience.Snapshot
module Pass_pipeline = Turnpike_compiler.Pass_pipeline
module Suite = Turnpike_workloads.Suite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bench name = List.hd (Suite.find_by_name name)

let small_params =
  { Turnpike.Run.default_params with Turnpike.Run.scale = 1; fuel = 400_000 }

let compiled_of name =
  Turnpike.Run.compile_with small_params Turnpike.Scheme.turnpike (bench name)

(* ------------------------------------------------------------------ *)
(* Fault model *)

let test_fault_validation () =
  Alcotest.check_raises "zero reg immune"
    (Invalid_argument "Fault.create: the zero register is immune") (fun () ->
      ignore (Fault.create ~at_step:1 ~reg:Reg.zero ~xor_mask:1));
  Alcotest.check_raises "empty mask"
    (Invalid_argument "Fault.create: empty mask") (fun () ->
      ignore (Fault.create ~at_step:1 ~reg:3 ~xor_mask:0));
  Alcotest.check_raises "negative step"
    (Invalid_argument "Fault.create: negative step") (fun () ->
      ignore (Fault.create ~at_step:(-1) ~reg:3 ~xor_mask:1));
  let f = Fault.single_bit ~at_step:5 ~reg:3 ~bit:4 in
  check_int "single bit mask" 16 f.Fault.xor_mask

let test_injector_campaign_targets () =
  let c = compiled_of "libquan" in
  let faults = Injector.campaign ~seed:1 ~count:10 c.Turnpike.Run.trace in
  check_int "requested count" 10 (List.length faults);
  List.iter
    (fun (f : Fault.t) ->
      check "positive step" true (f.Fault.at_step > 0);
      check "never zero reg" false (Reg.is_zero f.Fault.reg))
    faults;
  (* Deterministic in seed. *)
  let again = Injector.campaign ~seed:1 ~count:10 c.Turnpike.Run.trace in
  check "deterministic" true (List.for_all2 Fault.equal faults again)

let test_injector_no_duplicate_faults () =
  (* Regression: the site and bit draws come from correlated [mix seed _]
     streams, so the raw stream repeats (step, reg, bit) triples; the
     campaign must deduplicate while preserving seeded order and still
     deliver the requested count when the trace is big enough. *)
  let c = compiled_of "libquan" in
  List.iter
    (fun seed ->
      let faults = Injector.campaign ~seed ~count:200 c.Turnpike.Run.trace in
      check_int
        (Printf.sprintf "seed %d full count" seed)
        200 (List.length faults);
      let seen = Hashtbl.create 256 in
      List.iter
        (fun (f : Fault.t) ->
          let key = (f.Fault.at_step, f.Fault.reg, f.Fault.xor_mask) in
          check
            (Printf.sprintf "seed %d distinct (%d,%d,%d)" seed f.Fault.at_step
               f.Fault.reg f.Fault.xor_mask)
            false (Hashtbl.mem seen key);
          Hashtbl.replace seen key ())
        faults)
    [ 1; 7; 42; 1234 ];
  (* A request beyond the trace's distinct site/bit space tops up to
     exactly that space, never past it and never with repeats. *)
  let tiny =
    let b = Builder.create "tiny" in
    Builder.label b "entry";
    let r = Builder.fresh_reg b in
    Builder.mov b ~dst:r (Imm 3);
    Builder.add b ~dst:r ~a:r (Imm 1);
    Builder.ret b;
    Builder.finish b
  in
  let opts = Turnpike.Scheme.compile_opts Turnpike.Scheme.turnpike ~sb_size:4 in
  let compiled = Pass_pipeline.compile ~opts tiny in
  let trace, _ = Interp.trace_run compiled.Pass_pipeline.prog in
  let faults = Injector.campaign ~seed:3 ~count:10_000 trace in
  let distinct =
    let t = Hashtbl.create 64 in
    List.iter
      (fun (f : Fault.t) ->
        Hashtbl.replace t (f.Fault.at_step, f.Fault.reg, f.Fault.xor_mask) ())
      faults;
    Hashtbl.length t
  in
  check_int "tiny trace: all distinct" (List.length faults) distinct;
  check "tiny trace: site space exhausted, not exceeded" true
    (List.length faults < 10_000 && List.length faults > 0)

(* ------------------------------------------------------------------ *)
(* Recovery executor *)

let test_no_fault_matches_golden () =
  List.iter
    (fun name ->
      let c = compiled_of name in
      let out = Recovery.run c.Turnpike.Run.compiled in
      check (name ^ " matches") true
        (Verifier.compare_states ~golden:c.Turnpike.Run.final
           ~actual:out.Recovery.state
        = Verifier.Match);
      check_int (name ^ " no recoveries") 0 out.Recovery.recoveries)
    [ "libquan"; "mcf"; "gcc"; "radix" ]

let test_no_fault_turnstile_config () =
  let c = compiled_of "libquan" in
  let out = Recovery.run ~config:Recovery.turnstile_config c.Turnpike.Run.compiled in
  check "turnstile config matches" true
    (Verifier.compare_states ~golden:c.Turnpike.Run.final ~actual:out.Recovery.state
    = Verifier.Match);
  check_int "nothing colored without coloring" 0 out.Recovery.colored_ckpts;
  check_int "nothing fast released without CLQ" 0 out.Recovery.fast_released_stores;
  check "everything quarantined" true (out.Recovery.quarantined_writes > 0)

let test_single_fault_recovers () =
  let c = compiled_of "libquan" in
  let fault = Fault.single_bit ~at_step:500 ~reg:2 ~bit:3 in
  let out = Recovery.run ~fault c.Turnpike.Run.compiled in
  check "recovered" true
    (Verifier.compare_states ~golden:c.Turnpike.Run.final ~actual:out.Recovery.state
    = Verifier.Match);
  check "at least one recovery" true (out.Recovery.recoveries >= 1);
  check_int "one detection" 1 (List.length out.Recovery.detections)

let test_fault_campaigns_sdc_free () =
  (* The headline property: across benchmarks and fault sites, Turnpike
     never silently corrupts output. *)
  List.iter
    (fun name ->
      let c = compiled_of name in
      let faults = Injector.campaign ~seed:11 ~count:12 c.Turnpike.Run.trace in
      let rep =
        Verifier.run_campaign ~golden:c.Turnpike.Run.final
          ~compiled:c.Turnpike.Run.compiled faults
      in
      check_int (name ^ " zero SDC") 0 rep.Verifier.sdc;
      check_int (name ^ " zero crashes") 0 rep.Verifier.crashed;
      check_int (name ^ " all recovered") rep.Verifier.total rep.Verifier.recovered)
    [ "libquan"; "mcf"; "bzip2"; "cactubssn"; "radix"; "hmmer"; "astar"; "gobmk" ]

let test_fault_campaign_turnstile_config () =
  (* The recovery protocol is also sound without any fast release. *)
  let c =
    Turnpike.Run.compile_with small_params Turnpike.Scheme.turnstile (bench "libquan")
  in
  let faults = Injector.campaign ~seed:4 ~count:10 c.Turnpike.Run.trace in
  let rep =
    Verifier.run_campaign ~config:Recovery.turnstile_config
      ~golden:c.Turnpike.Run.final ~compiled:c.Turnpike.Run.compiled faults
  in
  check_int "turnstile zero SDC" 0 rep.Verifier.sdc;
  check_int "turnstile zero crashes" 0 rep.Verifier.crashed

let test_parity_detection_on_address_taint () =
  (* Corrupting a register that is then used as a load base triggers the
     parity/AGU path: detection at the addressing use, before memory is
     touched. Build the pattern explicitly so the strike deterministically
     lands on the pointer. *)
  let b = Builder.create "ptr" in
  Builder.label b "entry";
  let data = Builder.alloc_array b ~len:32 ~init:(fun k -> k * 3) in
  let out = Builder.alloc_array b ~len:1 ~init:(fun _ -> 0) in
  let p = Builder.fresh_reg b and ob = Builder.fresh_reg b in
  Builder.mov b ~dst:p (Imm data);
  Builder.mov b ~dst:ob (Imm out);
  let i = Builder.fresh_reg b and acc = Builder.fresh_reg b in
  Builder.mov b ~dst:i (Imm 0);
  Builder.mov b ~dst:acc (Imm 0);
  Builder.jump b "loop";
  Builder.label b "loop";
  let v = Builder.fresh_reg b in
  Builder.load b ~dst:v ~base:p ();
  Builder.add b ~dst:acc ~a:acc (Reg v);
  Builder.add b ~dst:p ~a:p (Imm Layout.word);
  Builder.add b ~dst:i ~a:i (Imm 1);
  let c = Builder.fresh_reg b in
  Builder.cmp b Instr.Lt ~dst:c ~a:i (Imm 30);
  Builder.branch b ~cond:c ~if_true:"loop" ~if_false:"fin";
  Builder.label b "fin";
  Builder.store b ~src:acc ~base:ob ();
  Builder.ret b;
  let prog = Builder.finish b in
  let opts = Turnpike.Scheme.compile_opts Turnpike.Scheme.turnpike ~sb_size:4 in
  let compiled = Pass_pipeline.compile ~opts prog in
  let trace, golden = Interp.trace_run compiled.Pass_pipeline.prog in
  ignore trace;
  (* Find the physical register used as the loop's load base and strike it
     mid-loop: the very next load must trigger parity detection. *)
  let base_reg =
    let found = ref None in
    Turnpike_ir.Func.iter_blocks
      (fun blk ->
        Array.iter
          (fun ins ->
            match ins with
            | Instr.Load (_, base, _, Instr.App_mem) when !found = None ->
              found := Some base
            | _ -> ())
          blk.Block.body)
      compiled.Pass_pipeline.prog.Prog.func;
    Option.get !found
  in
  let fault = Fault.single_bit ~at_step:60 ~reg:base_reg ~bit:1 in
  let out = Recovery.run ~fault compiled in
  check "parity detection fired" true (List.mem Recovery.Parity out.Recovery.detections);
  check "recovered" true
    (Verifier.compare_states ~golden ~actual:out.Recovery.state = Verifier.Match)

let test_unsafe_ckpt_release_reproduces_fig16 () =
  (* Releasing checkpoints without coloring overwrites the verified
     checkpoint storage; some fault in the campaign must then corrupt the
     output or fail recovery — the corner case of paper Fig 16 that
     motivates hardware coloring. *)
  let c = compiled_of "libquan" in
  let config = { Recovery.default_config with Recovery.coloring = false; unsafe_ckpt_release = true } in
  let faults = Injector.campaign ~seed:2 ~count:40 c.Turnpike.Run.trace in
  let rep =
    Verifier.run_campaign ~config ~golden:c.Turnpike.Run.final
      ~compiled:c.Turnpike.Run.compiled faults
  in
  check "unsafe release corrupts at least one run" true
    (rep.Verifier.sdc + rep.Verifier.crashed > 0)

let test_detection_near_program_end () =
  (* A fault on the very last steps is still detected (the sensors keep
     watching through the final verification windows). *)
  let c = compiled_of "libquan" in
  let len = Trace.length c.Turnpike.Run.trace in
  let fault = Fault.single_bit ~at_step:(len - 3) ~reg:1 ~bit:2 in
  let out = Recovery.run ~fault c.Turnpike.Run.compiled in
  check_int "detected after halt" 1 (List.length out.Recovery.detections);
  check "still matches" true
    (Verifier.compare_states ~golden:c.Turnpike.Run.final ~actual:out.Recovery.state
    = Verifier.Match)

let test_fault_on_dead_register_harmless () =
  let c = compiled_of "libquan" in
  (* Register 30 is a spill scratch; at most steps it is dead. *)
  let fault = Fault.single_bit ~at_step:100 ~reg:30 ~bit:7 in
  let out = Recovery.run ~fault c.Turnpike.Run.compiled in
  check "output intact" true
    (Verifier.compare_states ~golden:c.Turnpike.Run.final ~actual:out.Recovery.state
    = Verifier.Match)

let test_multi_fault_recovery () =
  (* Several well-separated strikes in one run: each is detected and
     recovered independently, and the output stays bit-exact. *)
  let c = compiled_of "libquan" in
  let len = Trace.length c.Turnpike.Run.trace in
  let faults =
    List.filteri
      (fun i _ -> i < 3)
      [ Fault.single_bit ~at_step:(len / 5) ~reg:2 ~bit:4;
        Fault.single_bit ~at_step:(2 * len / 5) ~reg:3 ~bit:9;
        Fault.single_bit ~at_step:(4 * len / 5) ~reg:1 ~bit:1 ]
  in
  let out = Recovery.run ~faults c.Turnpike.Run.compiled in
  check "three detections" true (List.length out.Recovery.detections >= 3);
  check "multi-fault run matches golden" true
    (Verifier.compare_states ~golden:c.Turnpike.Run.final ~actual:out.Recovery.state
    = Verifier.Match)

let test_verifier_mismatch_reporting () =
  let c = compiled_of "libquan" in
  let golden = c.Turnpike.Run.final in
  let actual = Interp.init c.Turnpike.Run.compiled.Pass_pipeline.prog in
  (* Uninitialized run diverges from the golden final state. *)
  match Verifier.compare_states ~golden ~actual with
  | Verifier.Mismatch _ -> ()
  | Verifier.Match -> Alcotest.fail "expected mismatch"

let test_verifier_reports_lowest_address_mismatch () =
  (* With several corrupted words, the report must name the lowest address
     — not whichever Hashtbl iteration happens to visit first. *)
  let f = Func.create ~name:"cmp" ~entry:"a" [ Block.create "a" ] in
  let prog = Prog.create f in
  let golden = Interp.init prog and actual = Interp.init prog in
  let addr k = Layout.data_base + (k * Layout.word) in
  Interp.set_mem golden (addr 9) 1;
  Interp.set_mem actual (addr 9) 6;
  Interp.set_mem golden (addr 2) 5;
  (* addr 2 differs (5 vs 0) and addr 9 differs (1 vs 6). *)
  (match Verifier.compare_states ~golden ~actual with
  | Verifier.Mismatch { addr = a; golden = g; actual = v } ->
    check_int "lowest address reported" (addr 2) a;
    check_int "golden value" 5 g;
    check_int "actual value" 0 v
  | Verifier.Match -> Alcotest.fail "expected mismatch");
  (* Symmetric: the extra word on the ACTUAL side at a lower address. *)
  Interp.set_mem actual (addr 1) 3;
  match Verifier.compare_states ~golden ~actual with
  | Verifier.Mismatch { addr = a; golden = g; actual = v } ->
    check_int "actual-side extra word wins" (addr 1) a;
    check_int "golden side is 0" 0 g;
    check_int "actual side is 3" 3 v
  | Verifier.Match -> Alcotest.fail "expected mismatch"

(* ------------------------------------------------------------------ *)
(* Exit drain, fuel-exhaustion triage, snapshot forking, CI stopping *)

let test_exit_drain_commits_fallback_ckpts () =
  (* At exit every closed-but-unverified region must be drained: under the
     turnstile config every checkpoint is a quarantined fallback whose
     value only reaches the architected (color-0) slot at verification, so
     checkpoints executed within the last verify window of the program are
     observable in memory ONLY if the exit drain runs. The plain
     interpreter writes the color-0 slot at every Ckpt directly — with no
     faults the drained executor must agree on the whole memory,
     checkpoint storage included. *)
  List.iter
    (fun name ->
      let c =
        Turnpike.Run.compile_with small_params Turnpike.Scheme.turnstile
          (bench name)
      in
      let compiled = c.Turnpike.Run.compiled in
      let plain = Interp.run compiled.Pass_pipeline.prog in
      let out = Recovery.run ~config:Recovery.turnstile_config compiled in
      check (name ^ " drained executor memory = plain interpreter") true
        (Interp.mem_equal plain out.Recovery.state))
    [ "libquan"; "radix" ]

let test_fuel_exhaustion_reason_has_triage_fields () =
  (* Satellite: a bare "out of fuel" cannot distinguish recovery livelock
     from a wedged program; the reason must carry the recovery count and
     the exhaustion step. *)
  let c = compiled_of "libquan" in
  let config = { Recovery.default_config with Recovery.fuel = 500 } in
  let fault = Fault.single_bit ~at_step:100 ~reg:3 ~bit:5 in
  match
    Verifier.run_one ~config ~golden:c.Turnpike.Run.final
      ~compiled:c.Turnpike.Run.compiled fault
  with
  | Verifier.Crashed { reason } ->
    let contains s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    (* budget = fuel - steps is a loop invariant, so exhaustion is at
       exactly [fuel] steps here. *)
    check "reason names the exhaustion step" true
      (contains reason "out of fuel at step 500");
    check "reason names the recovery count" true (contains reason "recoveries")
  | Verifier.Recovered _ | Verifier.Sdc _ ->
    Alcotest.fail "expected fuel exhaustion"

let test_snapshot_fork_byte_identical () =
  (* Tentpole differential: for every fault of a seeded campaign, the
     forked-from-snapshot outcome must be byte-identical to the
     from-scratch [run_one] — and campaign reports must agree at any job
     count. *)
  let c = compiled_of "libquan" in
  let compiled = c.Turnpike.Run.compiled in
  let golden = c.Turnpike.Run.final in
  let faults = Injector.campaign ~seed:9 ~count:24 c.Turnpike.Run.trace in
  let fork_matches_scratch (label, config) =
    let plan = Snapshot.record ~config ~every:256 compiled in
    check (label ^ ": pilot run is fault-free sound") true
      (Verifier.compare_states ~golden
         ~actual:(Snapshot.pilot_outcome plan).Recovery.state
      = Verifier.Match);
    List.iteri
      (fun i fault ->
        let scratch = Verifier.run_one ~config ~golden ~compiled fault in
        let forked = Verifier.run_one ~config ~plan ~golden ~compiled fault in
        check (Printf.sprintf "%s: fault %d fork = scratch" label i) true
          (scratch = forked))
      faults;
    let scratch_1 = Verifier.run_campaign ~jobs:1 ~config ~golden ~compiled faults in
    let forked_1 =
      Verifier.run_campaign ~jobs:1 ~config ~plan ~golden ~compiled faults
    in
    let forked_4 =
      Verifier.run_campaign ~jobs:4 ~config ~plan ~golden ~compiled faults
    in
    check (label ^ ": campaign report fork = scratch (jobs 1)") true
      (scratch_1 = forked_1);
    check (label ^ ": campaign report identical at jobs 1 and 4") true
      (forked_1 = forked_4)
  in
  let claims = compiled.Pass_pipeline.claims in
  check "libquan publishes static claims" true
    (claims.Turnpike_compiler.Claims.bypass_stores <> []
    || claims.Turnpike_compiler.Claims.direct_ckpts <> []);
  List.iter fork_matches_scratch
    [
      ("default", Recovery.default_config);
      (* No CLQ and no coloring: snapshots copy neither. *)
      ("turnstile", Recovery.turnstile_config);
      (* The claim tables are shared by the pilot and every fork. *)
      ( "static claims",
        { Recovery.default_config with Recovery.honor_static_claims = true } );
    ]

let test_snapshot_fork_forensic_parity () =
  (* The forensic lifecycle must not observe the replay strategy: a fault
     forked from a pilot snapshot emits exactly the same event bytes as
     the same fault replayed from step 0. (No forensic event fires before
     the strike, and the fork point always precedes it, so the streams
     are identical in full, not merely as suffixes.) *)
  let module Telemetry = Turnpike_telemetry in
  let c = compiled_of "libquan" in
  let compiled = c.Turnpike.Run.compiled in
  let golden = c.Turnpike.Run.final in
  let faults = Injector.campaign ~seed:9 ~count:24 c.Turnpike.Run.trace in
  let plan = Snapshot.record ~every:256 compiled in
  let landed = ref 0 in
  List.iteri
    (fun i fault ->
      let s_sink = Telemetry.create ~task:i () in
      let f_sink = Telemetry.create ~task:i () in
      let scratch = Verifier.run_one ~tel:s_sink ~golden ~compiled fault in
      let forked = Verifier.run_one ~tel:f_sink ~plan ~golden ~compiled fault in
      check (Printf.sprintf "fault %d outcome fork = scratch" i) true
        (scratch = forked);
      Alcotest.(check string)
        (Printf.sprintf "fault %d forensic bytes fork = scratch" i)
        (Telemetry.Export.jsonl (Telemetry.events s_sink))
        (Telemetry.Export.jsonl (Telemetry.events f_sink));
      if
        List.exists
          (fun (e : Telemetry.event) -> e.Telemetry.name = "strike")
          (Telemetry.events s_sink)
      then incr landed)
    faults;
  check "campaign exercises landed strikes" true (!landed > 0)

let test_snapshot_fork_byte_identical_unsound_config () =
  (* The differential must also hold when outcomes are NOT all recoveries:
     the Fig-16 unsafe-release config yields SDCs and recovery failures,
     and forks must reproduce those byte-for-byte too. *)
  let c = compiled_of "libquan" in
  let compiled = c.Turnpike.Run.compiled in
  let golden = c.Turnpike.Run.final in
  let config =
    {
      Recovery.default_config with
      Recovery.coloring = false;
      unsafe_ckpt_release = true;
    }
  in
  let faults = Injector.campaign ~seed:2 ~count:40 c.Turnpike.Run.trace in
  let plan = Snapshot.record ~config ~every:256 compiled in
  let interesting = ref 0 in
  List.iteri
    (fun i fault ->
      let scratch = Verifier.run_one ~config ~golden ~compiled fault in
      let forked = Verifier.run_one ~config ~plan ~golden ~compiled fault in
      (match scratch with
      | Verifier.Sdc _ | Verifier.Crashed _ -> incr interesting
      | Verifier.Recovered _ -> ());
      check
        (Printf.sprintf "unsound fault %d fork = scratch" i)
        true (scratch = forked))
    faults;
  check "campaign exercises non-recovered outcomes" true (!interesting > 0)

let test_ci_stopping_deterministic () =
  (* Same seed and CI target must give the identical stopping point and
     report at any job count; a zero-SDC campaign stops once the Wilson
     interval on 0/n is narrow enough. *)
  let c = compiled_of "libquan" in
  let compiled = c.Turnpike.Run.compiled in
  let golden = c.Turnpike.Run.final in
  let faults = Injector.campaign ~seed:5 ~count:400 c.Turnpike.Run.trace in
  let plan = Snapshot.record compiled in
  let stopping =
    { Verifier.half_width = 0.05; confidence = 0.95; batch = 16; min_faults = 32 }
  in
  let a = Verifier.run_campaign_ci ~jobs:1 ~plan ~stopping ~golden ~compiled faults in
  let b = Verifier.run_campaign_ci ~jobs:4 ~plan ~stopping ~golden ~compiled faults in
  check "ci report identical at jobs 1 and 4" true (a = b);
  check "stopped before exhausting the supply" false a.Verifier.exhausted;
  check "interval reached the target" true
    (a.Verifier.achieved_half_width <= stopping.Verifier.half_width);
  check_int "consumed a whole number of batches"
    (a.Verifier.batches * stopping.Verifier.batch)
    a.Verifier.report.Verifier.total;
  check "zero SDC rate" true (a.Verifier.sdc_rate = 0.0);
  check "interval covers the rate" true
    (a.Verifier.ci_low <= a.Verifier.sdc_rate
    && a.Verifier.sdc_rate <= a.Verifier.ci_high);
  (* Wilson sanity at zero positives: the lower bound is 0 and the upper
     bound is strictly positive. *)
  check "lower bound 0" true (a.Verifier.ci_low = 0.0);
  check "upper bound positive" true (a.Verifier.ci_high > 0.0)

(* ------------------------------------------------------------------ *)
(* QCheck: randomized single faults always recover. *)

let prop_random_faults_recover =
  QCheck.Test.make ~name:"random single-bit faults recover (libquan)" ~count:25
    QCheck.(pair (int_range 10 4000) (int_range 0 40))
    (fun (step, bit) ->
      let c = compiled_of "libquan" in
      let reg = 1 + (step mod 6) in
      let fault = Fault.single_bit ~at_step:step ~reg ~bit in
      let out = Recovery.run ~fault c.Turnpike.Run.compiled in
      Verifier.compare_states ~golden:c.Turnpike.Run.final ~actual:out.Recovery.state
      = Verifier.Match)

let prop_random_faults_recover_histogram =
  QCheck.Test.make ~name:"random single-bit faults recover (radix)" ~count:15
    QCheck.(pair (int_range 10 3000) (int_range 0 40))
    (fun (step, bit) ->
      let c = compiled_of "radix" in
      let reg = 1 + (step mod 8) in
      let fault = Fault.single_bit ~at_step:step ~reg ~bit in
      let out = Recovery.run ~fault c.Turnpike.Run.compiled in
      Verifier.compare_states ~golden:c.Turnpike.Run.final ~actual:out.Recovery.state
      = Verifier.Match)

let prop_executor_matches_interp_no_fault =
  (* With no faults injected, the region-transactional executor (with all
     of quarantine, CLQ fast release and coloring active) must be
     observationally identical to the plain interpreter over random
     kernels. *)
  QCheck.Test.make ~name:"no-fault executor = interpreter (random kernels)" ~count:15
    QCheck.(triple (int_range 1 40) (int_range 8 50) (int_range 1 3))
    (fun (seed, iters, ways) ->
      let prog = Turnpike_workloads.Templates.stream_store ~seed ~iters ~ways () in
      let opts = Turnpike.Scheme.compile_opts Turnpike.Scheme.turnpike ~sb_size:4 in
      let compiled = Turnpike_compiler.Pass_pipeline.compile ~opts prog in
      let golden = Interp.run ~fuel:2_000_000 compiled.Pass_pipeline.prog in
      let out = Recovery.run compiled in
      Verifier.compare_states ~golden ~actual:out.Recovery.state = Verifier.Match)

let qcheck =
  List.map QCheck_alcotest.to_alcotest
    [ prop_random_faults_recover; prop_random_faults_recover_histogram;
      prop_executor_matches_interp_no_fault ]

let tests =
  [
    ("fault validation", `Quick, test_fault_validation);
    ("injector campaign targets", `Quick, test_injector_campaign_targets);
    ("injector emits no duplicate faults", `Quick, test_injector_no_duplicate_faults);
    ("exit drain commits fallback ckpts", `Quick, test_exit_drain_commits_fallback_ckpts);
    ( "fuel exhaustion reason has triage fields",
      `Quick,
      test_fuel_exhaustion_reason_has_triage_fields );
    ("snapshot fork byte-identical", `Slow, test_snapshot_fork_byte_identical);
    ("snapshot fork forensic parity", `Slow, test_snapshot_fork_forensic_parity);
    ( "snapshot fork byte-identical (unsound config)",
      `Slow,
      test_snapshot_fork_byte_identical_unsound_config );
    ("CI stopping deterministic", `Slow, test_ci_stopping_deterministic);
    ("no-fault matches golden", `Quick, test_no_fault_matches_golden);
    ("no-fault turnstile config", `Quick, test_no_fault_turnstile_config);
    ("single fault recovers", `Quick, test_single_fault_recovers);
    ("fault campaigns SDC-free", `Slow, test_fault_campaigns_sdc_free);
    ("turnstile-config campaign SDC-free", `Quick, test_fault_campaign_turnstile_config);
    ("parity detection on address taint", `Quick, test_parity_detection_on_address_taint);
    ("unsafe release reproduces Fig 16", `Quick, test_unsafe_ckpt_release_reproduces_fig16);
    ("detection near program end", `Quick, test_detection_near_program_end);
    ("fault on dead register harmless", `Quick, test_fault_on_dead_register_harmless);
    ("multi-fault recovery", `Quick, test_multi_fault_recovery);
    ("verifier mismatch reporting", `Quick, test_verifier_mismatch_reporting);
    ( "verifier reports lowest-address mismatch",
      `Quick,
      test_verifier_reports_lowest_address_mismatch );
  ]
  @ qcheck
