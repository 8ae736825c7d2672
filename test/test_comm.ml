(* Communication-optimizer tests: golden-IR checks for the three
   rewrites (broadcast batching, reduction fusion, transpose
   elimination), their dependence and barrier limits, and a
   message-count regression gate over the paper applications. *)

module Ir = Spmd.Ir

let t name f = Alcotest.test_case name `Quick f
let prog ?(vars = []) b = { Ir.p_vars = vars; p_body = b; p_funcs = [] }
let stat st k = List.assoc k st

(* --- broadcast batching ------------------------------------------------- *)

let test_batches_broadcasts_past_locals () =
  (* Lowering interleaves each broadcast with the scalar copy consuming
     it; the pass must look past the copies and still coalesce. *)
  let b =
    [
      Ir.Ibcast ("ML_tmp1", "A", [ Ir.Sconst 1.; Ir.Sconst 1. ]);
      Ir.Iscalar ("x", Ir.Svar "ML_tmp1");
      Ir.Ibcast ("ML_tmp2", "A", [ Ir.Sconst 2.; Ir.Sconst 1. ]);
      Ir.Iscalar ("y", Ir.Svar "ML_tmp2");
    ]
  in
  let p', st = Spmd.Comm.run (prog b) in
  Alcotest.(check int) "batched" 2 (stat st "broadcasts-batched");
  match p'.Ir.p_body with
  | [
   Ir.Ibcast_batch ([ ("ML_tmp1", _); ("ML_tmp2", _) ], "A");
   Ir.Iscalar ("x", _);
   Ir.Iscalar ("y", _);
  ] ->
      ()
  | _ -> Alcotest.fail "expected one batch followed by the sunk consumers"

let test_no_batch_across_matrices () =
  let b =
    [
      Ir.Ibcast ("ML_tmp1", "A", [ Ir.Sconst 1.; Ir.Sconst 1. ]);
      Ir.Ibcast ("ML_tmp2", "B", [ Ir.Sconst 1.; Ir.Sconst 1. ]);
    ]
  in
  let _, st = Spmd.Comm.run (prog b) in
  Alcotest.(check int) "nothing batched" 0 (stat st "broadcasts-batched")

let test_no_batch_across_barrier () =
  (* A print between the broadcasts fixes the output order: the run
     must stop at it. *)
  let b =
    [
      Ir.Ibcast ("ML_tmp1", "A", [ Ir.Sconst 1.; Ir.Sconst 1. ]);
      Ir.Iprint ("ML_tmp1", Ir.Pscalar (Ir.Svar "ML_tmp1"));
      Ir.Ibcast ("ML_tmp2", "A", [ Ir.Sconst 2.; Ir.Sconst 1. ]);
    ]
  in
  let _, st = Spmd.Comm.run (prog b) in
  Alcotest.(check int) "nothing batched" 0 (stat st "broadcasts-batched")

let test_independent_local_hoists () =
  (* A local touching neither broadcast may move before the batch. *)
  let b =
    [
      Ir.Ibcast ("ML_tmp1", "A", [ Ir.Sconst 1.; Ir.Sconst 1. ]);
      Ir.Iscalar ("k", Ir.Sconst 7.);
      Ir.Ibcast ("ML_tmp2", "A", [ Ir.Sconst 2.; Ir.Sconst 1. ]);
    ]
  in
  let p', st = Spmd.Comm.run (prog b) in
  Alcotest.(check int) "batched" 2 (stat st "broadcasts-batched");
  match p'.Ir.p_body with
  | [ Ir.Iscalar ("k", _); Ir.Ibcast_batch ([ _; _ ], "A") ] -> ()
  | _ -> Alcotest.fail "independent local should hoist above the batch"

(* --- reduction fusion --------------------------------------------------- *)

let test_fuses_mixed_reductions () =
  (* sum, mean, dot and norm all combine by summation: one vector
     allreduce carries all four partials. *)
  let b =
    [
      Ir.Ilib { dst = "s"; fn = Ir.Lreduce_all Ir.Rsum; args = [ "A" ] };
      Ir.Iscalar ("x", Ir.Svar "s");
      Ir.Ilib { dst = "m"; fn = Ir.Lreduce_all Ir.Rmean; args = [ "A" ] };
      Ir.Ilib { dst = "d"; fn = Ir.Ldot; args = [ "A"; "B" ] };
      Ir.Ilib { dst = "n"; fn = Ir.Lnorm; args = [ "B" ] };
    ]
  in
  let p', st = Spmd.Comm.run (prog b) in
  Alcotest.(check int) "fused" 4 (stat st "reductions-fused");
  match p'.Ir.p_body with
  | [
   Ir.Ireduce_fused
     [
       ("s", Ir.Fsum "A");
       ("m", Ir.Fmean "A");
       ("d", Ir.Fdot ("A", "B"));
       ("n", Ir.Fnorm "B");
     ];
   Ir.Iscalar ("x", _);
  ] ->
      ()
  | _ -> Alcotest.fail "expected a single four-slot fused allreduce"

let test_no_fuse_of_non_sum_kinds () =
  (* max combines by comparison: it cannot ride a Sum allreduce. *)
  let b =
    [
      Ir.Ilib { dst = "s"; fn = Ir.Lreduce_all Ir.Rsum; args = [ "A" ] };
      Ir.Ilib { dst = "m"; fn = Ir.Lreduce_all Ir.Rmax; args = [ "A" ] };
    ]
  in
  let _, st = Spmd.Comm.run (prog b) in
  Alcotest.(check int) "nothing fused" 0 (stat st "reductions-fused")

let test_dependence_blocks_fusion () =
  (* The CG pattern: the second dot reads a matrix rebuilt from the
     first dot's result, so the two must stay separate collectives. *)
  let b =
    [
      Ir.Ilib { dst = "a"; fn = Ir.Ldot; args = [ "r"; "r" ] };
      Ir.Iconstruct { dst = "r"; kind = Ir.Czeros; args = [ Ir.Svar "a" ] };
      Ir.Ilib { dst = "b"; fn = Ir.Ldot; args = [ "r"; "r" ] };
    ]
  in
  let p', st = Spmd.Comm.run (prog b) in
  Alcotest.(check int) "nothing fused" 0 (stat st "reductions-fused");
  match p'.Ir.p_body with
  | [ Ir.Ilib { fn = Ir.Ldot; _ }; Ir.Iconstruct _; Ir.Ilib { fn = Ir.Ldot; _ } ]
    ->
      ()
  | _ -> Alcotest.fail "dependent reductions must keep their order"

let test_fuses_inside_loop_body () =
  let body =
    [
      Ir.Ilib { dst = "s1"; fn = Ir.Lreduce_all Ir.Rsum; args = [ "A" ] };
      Ir.Iscalar ("x", Ir.Svar "s1");
      Ir.Ilib { dst = "s2"; fn = Ir.Lreduce_all Ir.Rsum; args = [ "B" ] };
    ]
  in
  let loop = Ir.Ifor ("i", Ir.Sconst 1., None, Ir.Sconst 3., body) in
  let p', st = Spmd.Comm.run (prog [ loop ]) in
  Alcotest.(check int) "fused" 2 (stat st "reductions-fused");
  match p'.Ir.p_body with
  | [ Ir.Ifor (_, _, _, _, [ Ir.Ireduce_fused [ _; _ ]; Ir.Iscalar _ ]) ] -> ()
  | _ -> Alcotest.fail "fusion should apply inside loop bodies"

(* --- transpose elimination ---------------------------------------------- *)

let test_transpose_matmul_becomes_matmul_t () =
  let b =
    [
      Ir.Ilib { dst = "ML_tmp1"; fn = Ir.Ltranspose; args = [ "A" ] };
      Ir.Ilib { dst = "C"; fn = Ir.Lmatmul; args = [ "ML_tmp1"; "B" ] };
      Ir.Iprint ("C", Ir.Pmat "C");
    ]
  in
  let p', st = Spmd.Comm.run (prog b) in
  Alcotest.(check int) "rewritten" 1 (stat st "matmuls-detransposed");
  match p'.Ir.p_body with
  | [ Ir.Ilib { dst = "C"; fn = Ir.Lmatmul_t; args = [ "A"; "B" ] }; Ir.Iprint _ ]
    ->
      ()
  | _ -> Alcotest.fail "single-use temporary transpose should disappear"

let test_multi_use_transpose_is_kept () =
  (* The transpose result has a second reader: the multiply still skips
     the redistribution, but the transpose must survive. *)
  let b =
    [
      Ir.Ilib { dst = "ML_tmp1"; fn = Ir.Ltranspose; args = [ "A" ] };
      Ir.Ilib { dst = "C"; fn = Ir.Lmatmul; args = [ "ML_tmp1"; "B" ] };
      Ir.Iprint ("ML_tmp1", Ir.Pmat "ML_tmp1");
    ]
  in
  let p', st = Spmd.Comm.run (prog b) in
  Alcotest.(check int) "rewritten" 1 (stat st "matmuls-detransposed");
  match p'.Ir.p_body with
  | [
   Ir.Ilib { dst = "ML_tmp1"; fn = Ir.Ltranspose; args = [ "A" ] };
   Ir.Ilib { dst = "C"; fn = Ir.Lmatmul_t; args = [ "A"; "B" ] };
   Ir.Iprint _;
  ]
    ->
      ()
  | _ -> Alcotest.fail "multi-use transpose must be kept"

let test_self_multiply_not_rewritten () =
  (* C = A' * A': both operands are the transpose; the pattern does not
     apply. *)
  let b =
    [
      Ir.Ilib { dst = "ML_tmp1"; fn = Ir.Ltranspose; args = [ "A" ] };
      Ir.Ilib { dst = "C"; fn = Ir.Lmatmul; args = [ "ML_tmp1"; "ML_tmp1" ] };
    ]
  in
  let _, st = Spmd.Comm.run (prog b) in
  Alcotest.(check int) "not rewritten" 0 (stat st "matmuls-detransposed")

(* --- end to end through the driver -------------------------------------- *)

let test_o2_pipeline_applies_comm () =
  (* Two same-matrix broadcasts and two independent reductions survive
     the earlier passes and reach the comm pass intact. *)
  let src =
    "A = rand(8,1); B = rand(8,1);\n\
     x = A(1,1); y = A(2,1);\n\
     s = sum(A); n = norm(B);\n\
     disp(x + y + s + n)\n"
  in
  let c = Otter.compile ~opt:Spmd.Pass.O2 ~validate:true src in
  let comm =
    List.find (fun (r : Spmd.Pass.record) -> r.pass = "comm") c.passes
  in
  Alcotest.(check bool)
    "batched something" true
    (stat comm.detail "broadcasts-batched" >= 2);
  Alcotest.(check bool)
    "fused something" true
    (stat comm.detail "reductions-fused" >= 2);
  (* and the optimized program still matches the interpreter *)
  let mm =
    Otter.verify_list
      (Otter.config ~tol:1e-9 ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:4
         ~capture:[ "x"; "y"; "s"; "n" ] ())
      c
  in
  Alcotest.(check int) "verifies" 0 (List.length mm)

(* --- message-count regression gate -------------------------------------- *)

(* Simulated message counts for the paper applications at scale 5,
   P = 4, Meiko CS-2, -O2 -- recorded when the comm pass landed.  The
   optimizer may only ever lower these. *)
let message_baselines =
  [ ("cg", 1440); ("ocean", 70); ("nbody", 193); ("tc", 76) ]

let test_message_counts_never_regress () =
  List.iter
    (fun (a : Apps.Scripts.app) ->
      let c = Otter.compile ~opt:Spmd.Pass.O2 (a.source 5) in
      let o =
        Otter.outcome_exn
          (Otter.run
             (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:4 ())
             c)
      in
      let msgs = o.Exec.State.report.Mpisim.Sim.messages in
      let baseline = List.assoc a.key message_baselines in
      if msgs > baseline then
        Alcotest.failf "%s: %d messages at P=4, baseline %d" a.key msgs
          baseline)
    Apps.Scripts.apps

let test_o2_beats_o1_on_messages () =
  (* The headline claim: -O2 sends fewer messages than -O1 on most of
     the applications (cg's in-loop reductions are dependence-limited
     and tc has no fusable collectives, so "most" is 2 of 4). *)
  let better =
    List.filter
      (fun (a : Apps.Scripts.app) ->
        let msgs opt =
          let c = Otter.compile ~opt (a.source 5) in
          (Otter.outcome_exn
             (Otter.run
                (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:4 ())
                c))
            .Exec.State.report
            .Mpisim.Sim.messages
        in
        msgs Spmd.Pass.O2 < msgs Spmd.Pass.O1)
      Apps.Scripts.apps
  in
  Alcotest.(check bool)
    "fewer messages on at least two apps" true
    (List.length better >= 2)

let test_apps_verify_on_every_machine_at_o2 () =
  (* Cross-machine spot check: the comm rewrites are machine-independent
     and exact, so every model verifies against the interpreter. *)
  List.iter
    (fun (a : Apps.Scripts.app) ->
      let c = Otter.compile ~opt:Spmd.Pass.O2 (a.source 3) in
      List.iter
        (fun machine ->
          let p = min 4 machine.Mpisim.Machine.max_procs in
          let mm =
            Otter.verify_list
              (Otter.config ~tol:1e-6 ~machine ~nprocs:p ~capture:a.capture ())
              c
          in
          if mm <> [] then
            Alcotest.failf "%s on %s P=%d: %s" a.key
              machine.Mpisim.Machine.name p
              (String.concat "; "
                 (List.map
                    (fun m -> m.Otter.variable ^ ": " ^ m.Otter.detail)
                    mm)))
        Mpisim.Machine.all)
    Apps.Scripts.apps

let suite =
  [
    t "batches broadcasts past locals" test_batches_broadcasts_past_locals;
    t "no batch across matrices" test_no_batch_across_matrices;
    t "no batch across barrier" test_no_batch_across_barrier;
    t "independent local hoists" test_independent_local_hoists;
    t "fuses mixed reductions" test_fuses_mixed_reductions;
    t "no fuse of non-sum kinds" test_no_fuse_of_non_sum_kinds;
    t "dependence blocks fusion" test_dependence_blocks_fusion;
    t "fuses inside loop body" test_fuses_inside_loop_body;
    t "transpose+matmul becomes matmul_t"
      test_transpose_matmul_becomes_matmul_t;
    t "multi-use transpose is kept" test_multi_use_transpose_is_kept;
    t "self multiply not rewritten" test_self_multiply_not_rewritten;
    t "O2 pipeline applies comm" test_o2_pipeline_applies_comm;
    t "message counts never regress" test_message_counts_never_regress;
    t "O2 beats O1 on messages" test_o2_beats_o1_on_messages;
    t "apps verify on every machine at O2"
      test_apps_verify_on_every_machine_at_o2;
  ]
