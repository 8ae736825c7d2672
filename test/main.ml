let () =
  Alcotest.run "otter"
    [
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("resolve", Test_resolve.suite);
      ("ssa", Test_ssa.suite);
      ("infer", Test_infer.suite);
      ("dump", Test_dump.suite);
      ("lower", Test_lower.suite);
      ("peephole", Test_peephole.suite);
      ("passes", Test_passes.suite);
      ("comm", Test_comm.suite);
      ("sim", Test_sim.suite);
      ("coll", Test_coll.suite);
      ("faults", Test_faults.suite);
      ("recovery", Test_recovery.suite);
      ("runtime", Test_runtime.suite);
      ("dist", Test_dist.suite);
      ("fmtutil", Test_fmtutil.suite);
      ("vm", Test_vm.suite);
      ("tcode", Test_tcode.suite);
      ("interp", Test_interp.suite);
      ("mpi", Test_mpi.suite);
      ("codegen", Test_codegen.suite);
      ("builtins", Test_builtins.suite);
      ("apps", Test_apps.suite);
      ("golden", Test_golden.suite);
      ("load", Test_load.suite);
      ("corpus", Test_corpus.suite);
      ("fuzz", Test_fuzz.suite);
      ("baseline", Test_baseline.suite);
    ]
