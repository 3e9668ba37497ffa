let () =
  Alcotest.run "turnpike"
    [
      ("ir", Test_ir.tests);
      ("ir-internals", Test_ir_internals.tests);
      ("interp-diff", Test_interp_diff.tests);
      ("arch", Test_arch.tests);
      ("compiler", Test_compiler.tests);
      ("analysis", Test_analysis.tests);
      ("recovery-codegen", Test_recovery_codegen.tests);
      ("resilience", Test_resilience.tests);
      ("forensics", Test_forensics.tests);
      ("vuln", Test_vuln.tests);
      ("workloads", Test_workloads.tests);
      ("frontend", Test_frontend.tests);
      ("core", Test_core.tests);
      ("sweep", Test_sweep.tests);
      ("parallel", Test_parallel.tests);
      ("telemetry", Test_telemetry.tests);
      ("api", Test_api_surface.tests);
      ("sim-golden", Test_sim_golden.tests);
      ("alloc-budget", Test_alloc_budget.tests);
      ("pass-cache", Test_pass_cache.tests);
    ]
