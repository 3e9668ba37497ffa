(* Tests for the static resilience soundness checker (turnpike.analysis).

   Three layers:
   - framework units: diagnostic ordering/identity, per-pass attribution;
   - hand-built negative programs that each check must reject;
   - the differential oracle: three compiler-bug mutants that the analyzer
     must flag statically AND that a fault-injection campaign must convict
     dynamically (SDC or crash on at least one fault) — the checker's
     verdicts have teeth, not just opinions. *)

open Turnpike_ir
module Analysis = Turnpike_analysis
module Diag = Turnpike_analysis.Diag
module Context = Turnpike_analysis.Context
module Registry = Turnpike_analysis.Registry
module PP = Turnpike_compiler.Pass_pipeline
module Claims = Turnpike_compiler.Claims
module Suite = Turnpike_workloads.Suite
module Recovery = Turnpike_resilience.Recovery
module Verifier = Turnpike_resilience.Verifier
module Injector = Turnpike_resilience.Injector
module Telemetry = Turnpike_telemetry

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let r1 = Reg.phys 1
let r2 = Reg.phys 2
let r3 = Reg.phys 3

let blk ?(term = Block.Ret) label body =
  Block.create ~body:(Array.of_list body) ~term label

let mkfunc ?(entry = "entry") blocks = Func.create ~name:"t" ~entry blocks

let mkctx ?entry_defined ?recovery_exprs ?claims ?sb_size ?clq_entries
    ?rbb_size ?(resilient = true) f =
  Context.make ?entry_defined ?recovery_exprs ?claims ?sb_size ?clq_entries
    ?rbb_size ~resilient f

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let errors ds = List.filter (fun d -> d.Diag.severity = Diag.Error) ds
let warns ds = List.filter (fun d -> d.Diag.severity = Diag.Warn) ds

let has_error ~check:c ~containing ds =
  List.exists
    (fun d ->
      d.Diag.severity = Diag.Error
      && String.equal d.Diag.check c
      && contains ~affix:containing d.Diag.message)
    ds

(* ------------------------------------------------------------------ *)
(* Framework units *)

let test_diag_order_and_identity () =
  let d ?block ?instr ?pass sev msg =
    Diag.make ~check:"c" ~severity:sev ~func:"f" ?block ?instr ?pass msg
  in
  let a = d ~block:"b1" ~instr:2 Diag.Warn "w" in
  let b = d ~block:"b1" ~instr:2 Diag.Error "e" in
  let c = d ~block:"b2" Diag.Info "i" in
  let sorted = Diag.sort [ c; a; b; a ] in
  check_int "duplicate dropped" 3 (List.length sorted);
  check "most severe first at same site" true
    ((List.nth sorted 0).Diag.severity = Diag.Error);
  check "severity lattice ordered" true (Diag.Info < Diag.Warn && Diag.Warn < Diag.Error);
  check "max severity" true (Diag.max_severity sorted = Some Diag.Error);
  check_int "error count" 1 (Diag.error_count sorted);
  (* Identity ignores pass provenance: the same finding after a different
     pass is the same finding. *)
  check_str "key ignores pass" (Diag.key a) (Diag.key (Diag.with_pass (Some "regalloc") a));
  check "json has fixed shape" true
    (contains ~affix:"\"check\":\"c\",\"severity\":\"error\"" (Diag.to_json b));
  check_str "escape" "a\\\"b\\\\c" (Diag.json_escape "a\"b\\c")

let test_registry_fresh_attribution () =
  let d pass msg =
    Diag.make ~check:"c" ~severity:Diag.Error ~func:"f" ?pass msg
  in
  let seen = Hashtbl.create 8 in
  let first = Registry.fresh ~seen [ d None "x"; d None "y" ] in
  check_int "initial run reports all" 2 (List.length first);
  (* Same findings after a pass: already attributed, not fresh. *)
  let again = Registry.fresh ~seen [ d (Some "regalloc") "x"; d (Some "regalloc") "y" ] in
  check_int "re-reported findings are not fresh" 0 (List.length again);
  let newer = Registry.fresh ~seen [ d (Some "scheduling") "x"; d (Some "scheduling") "z" ] in
  check_int "only the new finding survives" 1 (List.length newer);
  check "new finding keeps its pass" true
    ((List.hd newer).Diag.pass = Some "scheduling");
  check_int "registry covers all eight checks" 8 (List.length Registry.names)

(* ------------------------------------------------------------------ *)
(* Hand-built negative programs, one per check *)

let test_wellformed_rejects () =
  (* Dangling terminator target: structural error, and no crash from the
     unbuildable CFG. *)
  let f = mkfunc [ blk ~term:(Block.Jump "nowhere") "entry" [] ] in
  let ds = Registry.run_whole (mkctx ~resilient:false f) in
  check "dangling label flagged" true
    (has_error ~check:"wellformed" ~containing:"unknown label" ds);
  (* Virtual register after regalloc. *)
  let f = mkfunc [ blk "entry" [ Instr.Mov (Reg.virt 0, Instr.Imm 1) ] ] in
  let ds = Analysis.Wellformed.run (mkctx ~resilient:false f) in
  check "virtual register flagged" true
    (has_error ~check:"wellformed" ~containing:"virtual register" ds);
  (* Physical register outside the machine file. *)
  let f = mkfunc [ blk "entry" [ Instr.Mov (Reg.phys 40, Instr.Imm 1) ] ] in
  let ds = Analysis.Wellformed.run (mkctx ~resilient:false f) in
  check "out-of-file register flagged" true
    (has_error ~check:"wellformed" ~containing:"machine file" ds);
  (* Use before any definition: a warning (the interpreter reads 0). *)
  let f =
    mkfunc [ blk "entry" [ Instr.Binop (Instr.Add, r1, r2, Instr.Imm 1) ] ]
  in
  let ds = Analysis.Wellformed.run (mkctx ~resilient:false f) in
  check "use-before-def warned" true
    (List.exists
       (fun d -> contains ~affix:"before any definition" d.Diag.message)
       (warns ds));
  (* And the clean variant is clean. *)
  let f =
    mkfunc
      [ blk "entry" [ Instr.Mov (r2, Instr.Imm 3); Instr.Binop (Instr.Add, r1, r2, Instr.Imm 1) ] ]
  in
  check_int "clean block has no findings" 0
    (List.length (Analysis.Wellformed.run (mkctx ~resilient:false f)))

let test_regions_view_rejects () =
  (* Boundary not at instruction 0. *)
  let f =
    mkfunc [ blk "entry" [ Instr.Mov (r1, Instr.Imm 1); Instr.Boundary 0 ] ]
  in
  let rv = Context.regions (mkctx f) in
  check "mid-block boundary flagged" true
    (has_error ~check:"regions" ~containing:"start of its block" rv.Analysis.Regions_view.diags
    || List.length (errors rv.Analysis.Regions_view.diags) > 0);
  (* A join block inside a region (two predecessors, no boundary). *)
  let f =
    mkfunc
      [
        blk ~term:(Block.Branch (r1, "a", "b")) "entry"
          [ Instr.Boundary 0; Instr.Mov (r1, Instr.Imm 1) ];
        blk ~term:(Block.Jump "join") "a" [];
        blk ~term:(Block.Jump "join") "b" [];
        blk "join" [];
      ]
  in
  let rv = Context.regions (mkctx f) in
  check "boundary-less join flagged" true
    (List.length (errors rv.Analysis.Regions_view.diags) > 0)

let test_recoverability_rejects () =
  let two_regions extra =
    mkfunc
      [
        blk ~term:(Block.Jump "next")
          "entry"
          ([ Instr.Boundary 0; Instr.Mov (r1, Instr.Imm 5) ] @ extra);
        blk "next" [ Instr.Boundary 1; Instr.Binop (Instr.Add, r2, r1, Instr.Imm 1) ];
      ]
  in
  (* r1 is defined in region 0, live into region 1, never checkpointed. *)
  let ds = Analysis.Recoverability.run (mkctx (two_regions [])) in
  check "uncovered live-in flagged" true
    (has_error ~check:"recoverability" ~containing:"no checkpoint covers it" ds);
  (* Checkpointing it fixes the program. *)
  let ds = Analysis.Recoverability.run (mkctx (two_regions [ Instr.Ckpt r1 ])) in
  check_int "checkpointed live-in accepted" 0 (List.length ds);
  (* A recovery expression without slot dependences also fixes it. *)
  let ds =
    Analysis.Recoverability.run
      (mkctx ~recovery_exprs:[ (r1, Recovery_expr.Const 5) ] (two_regions []))
  in
  check_int "constant recovery expression accepted" 0 (List.length ds);
  (* But an expression reading an uncovered slot does not. *)
  let ds =
    Analysis.Recoverability.run
      (mkctx ~recovery_exprs:[ (r1, Recovery_expr.Slot r1) ] (two_regions []))
  in
  check "expression over uncovered slot flagged" true
    (has_error ~check:"recoverability" ~containing:"not covered" ds)

let test_war_rejects () =
  (* One region; a load at [8] precedes a store to [8] (WAR) while a store
     to [16] is independent. *)
  let f =
    mkfunc
      [
        blk "entry"
          [
            Instr.Boundary 0;
            Instr.Load (r1, Reg.zero, 8, Instr.App_mem);
            Instr.Store (r1, Reg.zero, 8, Instr.App_mem);
            Instr.Store (r1, Reg.zero, 16, Instr.App_mem);
          ];
      ]
  in
  let indep = Analysis.War.independent_set (mkctx f) in
  check "aliased store is not independent" false (List.mem ("entry", 2) indep);
  check "disjoint store is independent" true (List.mem ("entry", 3) indep);
  let claims sites = { Context.no_claims with Context.bypass_stores = sites } in
  let ds = Analysis.War.run (mkctx ~claims:(claims [ ("entry", 2) ]) f) in
  check "bogus bypass claim flagged" true
    (has_error ~check:"war-bypass" ~containing:"WAR hazard" ds);
  let ds = Analysis.War.run (mkctx ~claims:(claims [ ("entry", 1) ]) f) in
  check "claim on a non-store flagged" true
    (has_error ~check:"war-bypass" ~containing:"does not name a store" ds);
  let ds = Analysis.War.run (mkctx ~claims:(claims [ ("entry", 3) ]) f) in
  check_int "correct claim accepted (nothing missed)" 0 (List.length ds)

let test_capacity_rejects () =
  let store off = Instr.Store (r1, Reg.zero, off, Instr.App_mem) in
  (* Five stores in one region against a 4-entry SB: commit deadlock. *)
  let f =
    mkfunc
      [
        blk "entry"
          ([ Instr.Boundary 0; Instr.Mov (r1, Instr.Imm 1) ]
          @ List.map store [ 0; 8; 16; 24; 32 ]);
      ]
  in
  let ds = Analysis.Capacity.run (mkctx ~sb_size:4 f) in
  check "SB overflow flagged" true
    (has_error ~check:"capacity" ~containing:"commit deadlock" ds);
  (* Direct-release claim on a checkpoint inside a loop. *)
  let f =
    mkfunc
      [
        blk ~term:(Block.Jump "loop") "entry"
          [ Instr.Boundary 0; Instr.Mov (r1, Instr.Imm 4) ];
        blk ~term:(Block.Branch (r1, "loop", "out")) "loop"
          [
            Instr.Boundary 1;
            Instr.Binop (Instr.Sub, r1, r1, Instr.Imm 1);
            Instr.Ckpt r1;
          ];
        blk "out" [ Instr.Boundary 2; store 0 ];
      ]
  in
  let claims = { Context.no_claims with Context.direct_ckpts = [ ("loop", 2) ] } in
  let ds = Analysis.Capacity.run (mkctx ~claims f) in
  check "loop-resident direct release flagged" true
    (has_error ~check:"capacity" ~containing:"inside a loop" ds);
  (* Claim on a non-checkpoint site. *)
  let claims = { Context.no_claims with Context.direct_ckpts = [ ("loop", 1) ] } in
  let ds = Analysis.Capacity.run (mkctx ~claims f) in
  check "claim on non-checkpoint flagged" true
    (has_error ~check:"capacity" ~containing:"does not name a checkpoint" ds);
  (* Nonsensical machine: a 0-entry compact CLQ. *)
  let ds = Analysis.Capacity.run (mkctx ~clq_entries:0 f) in
  check "empty CLQ flagged" true
    (has_error ~check:"capacity" ~containing:"CLQ configured" ds)

let test_schedule_rejects () =
  let load = Instr.Load (r1, Reg.zero, 8, Instr.App_mem) in
  let store = Instr.Store (r1, Reg.zero, 8, Instr.App_mem) in
  let mov = Instr.Mov (r2, Instr.Imm 7) in
  let before = mkfunc [ blk "entry" [ load; store; mov ] ] in
  (* Swapping the dependent load/store pair must be rejected... *)
  let after = mkfunc [ blk "entry" [ store; load; mov ] ] in
  let ds = Analysis.Schedule.run ~before (mkctx ~resilient:false after) in
  check "dependent reorder flagged" true
    (has_error ~check:"sched-deps" ~containing:"reordered dependent" ds);
  (* ...moving the independent mov is fine... *)
  let after = mkfunc [ blk "entry" [ mov; load; store ] ] in
  check_int "independent reorder accepted" 0
    (List.length (Analysis.Schedule.run ~before (mkctx ~resilient:false after)));
  (* ...and dropping an instruction changes the multiset. *)
  let after = mkfunc [ blk "entry" [ load; store ] ] in
  let ds = Analysis.Schedule.run ~before (mkctx ~resilient:false after) in
  check "dropped instruction flagged" true
    (has_error ~check:"sched-deps" ~containing:"multiset" ds)

(* ------------------------------------------------------------------ *)
(* Pipeline integration: one declared pass list, per-pass provenance *)

let test_pass_list_single_source () =
  check "baseline pipeline is regalloc only" true
    (PP.pass_names PP.baseline_opts = [ "regalloc" ]);
  check "turnstile adds partitioning and metadata" true
    (PP.pass_names PP.turnstile_opts
    = [ "regalloc"; "partition_and_checkpoint"; "region_metadata" ]);
  check "pair-check passes are declared pass names" true
    (List.for_all
       (fun p -> List.mem p (PP.pass_names PP.turnpike_opts))
       Registry.pair_passes);
  (* Telemetry spans use exactly the declared names. *)
  let tel = Telemetry.create () in
  let prog = (List.hd (Suite.find_by_name "mcf")).Suite.build ~scale:1 in
  ignore (PP.compile ~opts:PP.turnpike_opts ~tel prog);
  let span_names =
    List.filter_map
      (fun (e : Telemetry.event) ->
        if e.Telemetry.cat = "compiler" then Some e.Telemetry.name else None)
      (Telemetry.events tel)
  in
  List.iter
    (fun n -> check ("span " ^ n ^ " is a declared pass") true (List.mem n span_names))
    (PP.pass_names PP.turnpike_opts)

let test_perpass_clean_on_shipped () =
  let prog = (List.hd (Suite.find_by_name "libquan")).Suite.build ~scale:1 in
  let c = PP.compile ~opts:PP.turnpike_opts ~check:PP.PerPass prog in
  check_int "no errors on a shipped workload" 0 (Diag.error_count c.PP.diags);
  check "diagnostics carry pass provenance" true
    (List.for_all
       (fun d ->
         match d.Diag.pass with
         | None -> true
         | Some p -> List.mem p (PP.pass_names PP.turnpike_opts))
       c.PP.diags)

let test_perpass_matches_full_recheck_on_suite () =
  (* The incremental engine (facet invalidation + context reuse) must
     report exactly what the forced full re-check reports, on every
     shipped workload. *)
  List.iter
    (fun b ->
      let prog = b.Suite.build ~scale:1 in
      let diags check = (PP.compile ~opts:PP.turnpike_opts ~check prog).PP.diags in
      check (Suite.qualified_name b ^ ": per-pass = full re-check") true
        (diags PP.PerPass = diags PP.PerPassFull))
    (Suite.all ())

(* ------------------------------------------------------------------ *)
(* Differential oracle: analyzer verdict vs fault-injection ground truth *)

let bench name = List.hd (Suite.find_by_name name)

let compile_bench scheme name =
  let prog = (bench name).Suite.build ~scale:2 in
  PP.compile ~opts:(Turnpike.Scheme.compile_opts scheme ~sb_size:4) prog

let convicted ?config c =
  let trace, golden = Interp.trace_run ~fuel:400_000 c.PP.prog in
  check "mutant trace complete" true trace.Trace.complete;
  let faults = Injector.campaign ~seed:11 ~count:40 trace in
  let rep = Verifier.run_campaign ?config ~golden ~compiled:c faults in
  rep.Verifier.sdc + rep.Verifier.crashed

(* Mutants edit the compiled function in place, so the analyses cached
   during compilation are dropped before the audit. *)
let mutant_errors ~pass c =
  let ctx = PP.analysis_context ~pass c in
  Context.invalidate ctx Analysis.Facet.all;
  errors (Registry.run_whole ctx)

let test_mutant_dropped_checkpoint () =
  (* A buggy "pruning" that deletes checkpoints without recording recovery
     expressions. Statically: a recoverability error. Dynamically: restarts
     restore a stale value — SDC. *)
  let c = compile_bench Turnpike.Scheme.turnstile "mcf" in
  let f = c.PP.prog.Prog.func in
  let def_count r =
    Func.fold_instrs
      (fun acc i -> if List.mem r (Instr.defs i) then acc + 1 else acc)
      0 f
  in
  let victim =
    Array.to_list c.PP.regions
    |> List.concat_map (fun (ri : PP.region_info) ->
           if ri.PP.id > 0 then ri.PP.live_in else [])
    |> List.find (fun r ->
           def_count r > 0
           && Func.fold_instrs
                (fun acc i -> if Instr.equal i (Instr.Ckpt r) then acc + 1 else acc)
                0 f
              > 0)
  in
  Func.iter_blocks
    (fun b ->
      b.Block.body <-
        Array.of_list
          (List.filter
             (fun i -> not (Instr.equal i (Instr.Ckpt victim)))
             (Array.to_list b.Block.body)))
    f;
  (* Checkpoint sites moved: the pipeline's claims are stale; the mutant
     models a compiler that lost them too. *)
  let c = { c with PP.claims = Claims.empty } in
  let errs = mutant_errors ~pass:"pruning" c in
  check "analyzer rejects the dropped checkpoint" true
    (has_error ~check:"recoverability" ~containing:"no checkpoint covers it" errs);
  check "provenance names the buggy pass" true
    (List.for_all (fun d -> d.Diag.pass = Some "pruning") errs);
  check "campaign convicts the mutant" true (convicted c > 0)

let test_mutant_bogus_bypass_claim () =
  (* A buggy WAR analysis that claims a store with an earlier in-region
     aliasing load. Statically: a war-bypass error. Dynamically (claims
     honored): rollback replays the load against the released store — SDC. *)
  let c = compile_bench Turnpike.Scheme.turnpike "radix" in
  let f = c.PP.prog.Prog.func in
  let indep = Analysis.War.independent_set (PP.analysis_context c) in
  let bogus = ref [] in
  Func.iter_blocks
    (fun b ->
      Array.iteri
        (fun i ins ->
          if Instr.is_store ins && not (List.mem (b.Block.label, i) !bogus)
             && not (List.mem (b.Block.label, i) indep)
          then bogus := (b.Block.label, i) :: !bogus)
        b.Block.body)
    f;
  check "radix has a WAR-unsafe store to miscast" true (!bogus <> []);
  let claims =
    {
      c.PP.claims with
      Claims.bypass_stores =
        List.sort_uniq compare (!bogus @ c.PP.claims.Claims.bypass_stores);
    }
  in
  let c = { c with PP.claims = claims } in
  let errs = mutant_errors ~pass:"region_metadata" c in
  check "analyzer rejects the bogus bypass claim" true
    (has_error ~check:"war-bypass" ~containing:"WAR hazard" errs);
  let config = { Recovery.default_config with Recovery.honor_static_claims = true } in
  check "campaign convicts the mutant" true (convicted ~config c > 0)

let test_mutant_loop_direct_release () =
  (* A buggy coloring/claim pass that direct-releases loop-resident
     checkpoints: each iteration overwrites the only verified slot, so a
     rollback restores a too-new value (the paper's Fig 16 hazard).
     Statically: a capacity error. Dynamically (claims honored): SDC. *)
  let c = compile_bench Turnpike.Scheme.turnpike "hmmer" in
  let f = c.PP.prog.Prog.func in
  let cfg = Cfg.build f in
  let self_reachable label =
    let rec go visited = function
      | [] -> false
      | l :: rest ->
        if String.equal l label then true
        else if List.mem l visited then go visited rest
        else go (l :: visited) (Cfg.successors cfg l @ rest)
    in
    go [] (Cfg.successors cfg label)
  in
  let bogus = ref [] in
  Func.iter_blocks
    (fun b ->
      if self_reachable b.Block.label then
        Array.iteri
          (fun i ins ->
            match ins with
            | Instr.Ckpt _ -> bogus := (b.Block.label, i) :: !bogus
            | _ -> ())
          b.Block.body)
    f;
  check "hmmer has loop-resident checkpoints to miscast" true (!bogus <> []);
  let claims =
    {
      c.PP.claims with
      Claims.direct_ckpts =
        List.sort_uniq compare (!bogus @ c.PP.claims.Claims.direct_ckpts);
    }
  in
  let c = { c with PP.claims = claims } in
  let errs = mutant_errors ~pass:"region_metadata" c in
  check "analyzer rejects the loop direct-release" true
    (has_error ~check:"capacity" ~containing:"inside a loop" errs);
  let config = { Recovery.default_config with Recovery.honor_static_claims = true } in
  check "campaign convicts the mutant" true (convicted ~config c > 0)

let test_mutant_corrupt_recovery_expr () =
  (* A buggy pruning that publishes recovery expressions reading the slot
     of a clobbered (multiply-defined) register: the slot has no stable
     value, so the reconstruction is garbage. Statically: the independent
     expression re-derivation raises a recoverability error. Dynamically
     (claims honored): every rollback that consults the expression
     restores a wrong value — SDC. *)
  let c = compile_bench Turnpike.Scheme.turnpike "libquan" in
  let f = c.PP.prog.Prog.func in
  check "libquan publishes recovery expressions to corrupt" true
    (Hashtbl.length c.PP.recovery_exprs > 0);
  let def_count = Hashtbl.create 16 in
  Func.iter_blocks
    (fun b ->
      Array.iter
        (Instr.iter_defs (fun r ->
             Hashtbl.replace def_count r
               (1 + Option.value (Hashtbl.find_opt def_count r) ~default:0)))
        b.Block.body)
    f;
  let clobbered =
    Hashtbl.fold (fun r n acc -> if n > 1 then r :: acc else acc) def_count []
    |> List.sort Reg.compare |> List.hd
  in
  let victims =
    Hashtbl.fold (fun r e acc -> (r, e) :: acc) c.PP.recovery_exprs []
  in
  List.iter
    (fun (r, e) ->
      Hashtbl.replace c.PP.recovery_exprs r
        (Recovery_expr.Op (Instr.Add, e, Recovery_expr.Slot clobbered)))
    victims;
  let errs = mutant_errors ~pass:"pruning" c in
  check "analyzer rejects the clobbered-operand expression" true
    (has_error ~check:"recoverability" ~containing:"multiple definitions" errs);
  check "provenance names the buggy pass" true
    (List.for_all (fun d -> d.Diag.pass = Some "pruning") errs);
  let config = { Recovery.default_config with Recovery.honor_static_claims = true } in
  check "campaign convicts the mutant" true (convicted ~config c > 0)

(* ------------------------------------------------------------------ *)
(* Coverage: the full grid is clean and the lint report is deterministic *)

let test_full_grid_clean_and_deterministic () =
  let schemes = Turnpike.Scheme.baseline :: Turnpike.Scheme.ladder in
  let report ~jobs =
    Turnpike.Lint.run ~per_pass:true ~scale:2 ~jobs ~schemes (Suite.all ())
  in
  let rep1 = report ~jobs:1 in
  check_int "full grid covers benchmarks x ladder" (36 * 9)
    (List.length rep1.Turnpike.Lint.entries);
  check_int "zero errors across every workload and rung" 0 rep1.Turnpike.Lint.errors;
  check_int "zero warnings across every workload and rung" 0
    rep1.Turnpike.Lint.warnings;
  let rep4 = report ~jobs:4 in
  check_str "lint JSON is byte-identical at any job count"
    (Turnpike.Lint.to_json rep1) (Turnpike.Lint.to_json rep4)

(* ------------------------------------------------------------------ *)

let tests =
  [
    Alcotest.test_case "diag ordering and identity" `Quick test_diag_order_and_identity;
    Alcotest.test_case "registry fresh attribution" `Quick test_registry_fresh_attribution;
    Alcotest.test_case "wellformed rejections" `Quick test_wellformed_rejects;
    Alcotest.test_case "regions-view rejections" `Quick test_regions_view_rejects;
    Alcotest.test_case "recoverability rejections" `Quick test_recoverability_rejects;
    Alcotest.test_case "war-bypass rejections" `Quick test_war_rejects;
    Alcotest.test_case "capacity rejections" `Quick test_capacity_rejects;
    Alcotest.test_case "schedule-deps rejections" `Quick test_schedule_rejects;
    Alcotest.test_case "declared pass list single source" `Quick test_pass_list_single_source;
    Alcotest.test_case "per-pass clean on shipped workload" `Quick test_perpass_clean_on_shipped;
    Alcotest.test_case "per-pass = full re-check on the suite" `Quick
      test_perpass_matches_full_recheck_on_suite;
    Alcotest.test_case "mutant: dropped checkpoint" `Quick test_mutant_dropped_checkpoint;
    Alcotest.test_case "mutant: bogus WAR-bypass claim" `Quick test_mutant_bogus_bypass_claim;
    Alcotest.test_case "mutant: loop direct-release claim" `Quick test_mutant_loop_direct_release;
    Alcotest.test_case "mutant: corrupted recovery expression" `Quick
      test_mutant_corrupt_recovery_expr;
    Alcotest.test_case "full grid clean + deterministic lint" `Quick
      test_full_grid_clean_and_deterministic;
  ]
