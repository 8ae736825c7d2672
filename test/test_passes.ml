(* Middle-end pass framework tests: the pass manager, the IR
   validator, and the global dataflow passes (LICM, GRE, copy
   propagation + liveness DCE, constructor folding). *)

module Ir = Spmd.Ir
module Ty = Analysis.Ty

let t name f = Alcotest.test_case name `Quick f

(* A program wrapper for unit-level blocks.  [vars] is the variable
   table the validator checks names against. *)
let prog ?(vars = []) b = { Ir.p_vars = vars; p_body = b; p_funcs = [] }

(* --- LICM --------------------------------------------------------------- *)

let test_licm_hoists_invariant_broadcast () =
  (* for i = 1:3  { b = A(1,1); c(i) = b }  --  the broadcast is
     invariant and its destination is used only by the setelem. *)
  let body =
    [
      Ir.Ibcast ("b", "A", [ Ir.Sconst 1.; Ir.Sconst 1. ]);
      Ir.Isetelem ("c", [ Ir.Svar "i" ], Ir.Svar "b");
    ]
  in
  let loop = Ir.Ifor ("i", Ir.Sconst 1., None, Ir.Sconst 3., body) in
  let p', st = Spmd.Licm.run (prog [ loop ]) in
  Alcotest.(check int) "hoisted" 1 (List.assoc "hoisted" st);
  match p'.Ir.p_body with
  | [ Ir.Ibcast ("b", "A", _); Ir.Ifor (_, _, _, _, [ Ir.Isetelem _ ]) ] -> ()
  | _ -> Alcotest.fail "broadcast should move above the loop unguarded"

let test_licm_guards_symbolic_trip_count () =
  (* for i = 1:n the loop may run zero times: the hoisted code must be
     wrapped in the back ends' exact trip test. *)
  let body =
    [
      Ir.Ibcast ("b", "A", [ Ir.Sconst 1.; Ir.Sconst 1. ]);
      Ir.Isetelem ("c", [ Ir.Svar "i" ], Ir.Svar "b");
    ]
  in
  let loop = Ir.Ifor ("i", Ir.Sconst 1., None, Ir.Svar "n", body) in
  let p', st = Spmd.Licm.run (prog [ loop ]) in
  Alcotest.(check int) "hoisted" 1 (List.assoc "hoisted" st);
  match p'.Ir.p_body with
  | [ Ir.Iif ([ (_, [ Ir.Ibcast ("b", "A", _) ]) ], []); Ir.Ifor _ ] -> ()
  | _ -> Alcotest.fail "hoist out of a maybe-zero-trip loop must be guarded"

let test_licm_never_hoists_rand () =
  (* rand draws are sequence-numbered: hoisting one out of a loop
     changes every later draw on the replicated stream. *)
  let body =
    [
      Ir.Iconstruct { dst = "r"; kind = Ir.Crand; args = [ Ir.Sconst 2. ] };
      Ir.Isetelem ("c", [ Ir.Svar "i" ], Ir.Svar "r");
    ]
  in
  let loop = Ir.Ifor ("i", Ir.Sconst 1., None, Ir.Sconst 3., body) in
  let _, st = Spmd.Licm.run (prog [ loop ]) in
  Alcotest.(check int) "nothing hoisted" 0 (List.assoc "hoisted" st)

let test_licm_respects_loop_varying_operands () =
  (* b = A(1,1) is variant because the loop body redefines A. *)
  let body =
    [
      Ir.Ibcast ("b", "A", [ Ir.Sconst 1.; Ir.Sconst 1. ]);
      Ir.Isetelem ("A", [ Ir.Svar "i" ], Ir.Svar "b");
    ]
  in
  let loop = Ir.Ifor ("i", Ir.Sconst 1., None, Ir.Sconst 3., body) in
  let _, st = Spmd.Licm.run (prog [ loop ]) in
  Alcotest.(check int) "nothing hoisted" 0 (List.assoc "hoisted" st)

(* --- GRE ---------------------------------------------------------------- *)

let test_gre_reuses_transpose () =
  let b =
    [
      Ir.Ilib { dst = "t1"; fn = Ir.Ltranspose; args = [ "A" ] };
      Ir.Ilib { dst = "t2"; fn = Ir.Ltranspose; args = [ "A" ] };
      Ir.Iprint ("t2", Ir.Pmat "t2");
    ]
  in
  let p', st = Spmd.Gre.run (prog b) in
  Alcotest.(check int) "reused" 1 (List.assoc "reused" st);
  match p'.Ir.p_body with
  | [
   Ir.Ilib { dst = "t1"; fn = Ir.Ltranspose; args = [ "A" ] };
   Ir.Icopy ("t2", "t1");
   Ir.Iprint _;
  ] ->
      ()
  | _ -> Alcotest.fail "second transpose should become a copy"

let test_gre_scalar_result_uses_scalar_copy () =
  let b =
    [
      Ir.Ilib { dst = "s1"; fn = Ir.Lreduce_all Ir.Rsum; args = [ "A" ] };
      Ir.Ilib { dst = "s2"; fn = Ir.Lreduce_all Ir.Rsum; args = [ "A" ] };
      Ir.Iprint ("s2", Ir.Pscalar (Ir.Svar "s2"));
    ]
  in
  let p', st = Spmd.Gre.run (prog b) in
  Alcotest.(check int) "reused" 1 (List.assoc "reused" st);
  match p'.Ir.p_body with
  | [
   Ir.Ilib { fn = Ir.Lreduce_all _; _ };
   Ir.Iscalar ("s2", Ir.Svar "s1");
   Ir.Iprint _;
  ] ->
      ()
  | _ -> Alcotest.fail "scalar-valued reuse should be a scalar assignment"

let test_gre_killed_by_operand_redefinition () =
  let b =
    [
      Ir.Ilib { dst = "t1"; fn = Ir.Ltranspose; args = [ "A" ] };
      Ir.Icopy ("A", "B");
      Ir.Ilib { dst = "t2"; fn = Ir.Ltranspose; args = [ "A" ] };
    ]
  in
  let _, st = Spmd.Gre.run (prog b) in
  Alcotest.(check int) "no reuse" 0 (List.assoc "reused" st)

let test_gre_killed_by_conditional_redefinition () =
  (* A write to the operand in one arm of an if kills the fact. *)
  let b =
    [
      Ir.Ilib { dst = "t1"; fn = Ir.Ltranspose; args = [ "A" ] };
      Ir.Iif ([ (Ir.Svar "c", [ Ir.Icopy ("A", "B") ]) ], []);
      Ir.Ilib { dst = "t2"; fn = Ir.Ltranspose; args = [ "A" ] };
    ]
  in
  let _, st = Spmd.Gre.run (prog b) in
  Alcotest.(check int) "no reuse" 0 (List.assoc "reused" st)

let test_gre_facts_die_at_loop_exit () =
  (* A fact established inside a loop body must not survive it: the
     loop may run zero times. *)
  let b =
    [
      Ir.Ifor
        ( "i",
          Ir.Sconst 1.,
          None,
          Ir.Svar "n",
          [
            Ir.Ilib { dst = "t1"; fn = Ir.Ltranspose; args = [ "A" ] };
            Ir.Isetelem ("C", [ Ir.Svar "i" ], Ir.Svar "x");
          ] );
      Ir.Ilib { dst = "t2"; fn = Ir.Ltranspose; args = [ "A" ] };
    ]
  in
  let _, st = Spmd.Gre.run (prog b) in
  Alcotest.(check int) "no reuse" 0 (List.assoc "reused" st)

(* --- copy propagation + liveness DCE ------------------------------------ *)

let test_copyprop_forwards_through_temp () =
  let b =
    [
      Ir.Ilib { dst = "ML_tmp1"; fn = Ir.Ltranspose; args = [ "A" ] };
      Ir.Icopy ("ML_tmp2", "ML_tmp1");
      Ir.Iprint ("x", Ir.Pmat "ML_tmp2");
    ]
  in
  let p', st = Spmd.Copyprop.run (prog b) in
  Alcotest.(check bool) "forwarded" true (List.assoc "forwarded" st >= 1);
  Alcotest.(check bool) "copy removed" true (List.assoc "removed" st >= 1);
  match p'.Ir.p_body with
  | [ Ir.Ilib { dst = "ML_tmp1"; fn = Ir.Ltranspose; args = [ "A" ] }; Ir.Iprint ("x", Ir.Pmat "ML_tmp1") ]
    ->
      ()
  | _ -> Alcotest.fail "print should read the transpose result directly"

let test_copyprop_facts_killed_by_loops () =
  (* s aliases x only until the loop redefines x. *)
  let b =
    [
      Ir.Iscalar ("s", Ir.Svar "x");
      Ir.Iwhile
        ( Ir.Svar "c",
          [
            Ir.Iscalar ("x", Ir.Sconst 2.);
            Ir.Isetelem ("A", [ Ir.Svar "s" ], Ir.Svar "x");
          ] );
    ]
  in
  let p', _ = Spmd.Copyprop.run (prog ~vars:[ ("s", Ty.real_scalar); ("x", Ty.real_scalar); ("A", Ty.real_matrix) ] b) in
  match p'.Ir.p_body with
  | [ Ir.Iscalar ("s", Ir.Svar "x"); Ir.Iwhile (_, [ _; Ir.Isetelem (_, [ Ir.Svar "s" ], _) ]) ] -> ()
  | _ -> Alcotest.fail "the loop body must keep reading s, not x"

let test_dce_removes_dead_named_variable () =
  (* Unlike the peephole sweep, liveness DCE reaches named variables --
     but only ones absent from the variable table (e.g. renamed away);
     table variables stay live at exit. *)
  let b =
    [
      Ir.Ilib { dst = "dead"; fn = Ir.Ltranspose; args = [ "A" ] };
      Ir.Iprint ("x", Ir.Pscalar (Ir.Sconst 1.));
    ]
  in
  let p', st = Spmd.Copyprop.run (prog ~vars:[ ("A", Ty.real_matrix) ] b) in
  Alcotest.(check int) "removed" 1 (List.assoc "removed" st);
  Alcotest.(check int) "one inst left" 1 (List.length p'.Ir.p_body)

let test_dce_keeps_table_variables () =
  let b = [ Ir.Ilib { dst = "kept"; fn = Ir.Ltranspose; args = [ "A" ] } ] in
  let vars = [ ("A", Ty.real_matrix); ("kept", Ty.real_matrix) ] in
  let _, st = Spmd.Copyprop.run (prog ~vars b) in
  Alcotest.(check int) "nothing removed" 0 (List.assoc "removed" st)

let test_dce_keeps_rand_and_load () =
  let b =
    [
      Ir.Iconstruct { dst = "ML_tmp1"; kind = Ir.Crandn; args = [ Ir.Sconst 2. ] };
      Ir.Iload { dst = "ML_tmp2"; file = "data.mat" };
      Ir.Iprint ("x", Ir.Pscalar (Ir.Sconst 1.));
    ]
  in
  let _, st = Spmd.Copyprop.run (prog b) in
  Alcotest.(check int) "nothing removed" 0 (List.assoc "removed" st)

(* --- fold-construct ----------------------------------------------------- *)

let test_fold_eye_into_elementwise () =
  (* A = B + n*eye(n): the eye constructor folds into the fused loop. *)
  let src = "n = 6; B = ones(n); A = B + n*eye(n); disp(sum(sum(A)))" in
  let c = Otter.compile src in
  let has_eye_construct = ref false in
  Ir.iter_insts
    (fun i ->
      match i with
      | Ir.Iconstruct { kind = Ir.Ceye; _ } -> has_eye_construct := true
      | _ -> ())
    c.Otter.prog.Ir.p_body;
  Alcotest.(check bool) "eye constructor folded away" false !has_eye_construct;
  (* golden: the fused loop now reads the diagonal indicator *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "dump shows eye[i]" true
    (contains (Otter.dump_ir c) "eye[i]");
  (* and the fold is semantics-preserving *)
  let oi =
    Otter.outcome_exn
      (Otter.run
         (Otter.config ~engine:Otter.Config.Einterp
            ~machine:Mpisim.Machine.workstation ~nprocs:1 ())
         c)
  in
  let op =
    Otter.outcome_exn
      (Otter.run
         (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:4 ())
         c)
  in
  Alcotest.(check string) "same output" oi.Exec.State.output op.Exec.State.output

let test_fold_skips_multi_use_temp () =
  (* The temp is consumed twice: the matrix must be materialized. *)
  let b =
    [
      Ir.Iconstruct
        { dst = "ML_tmp1"; kind = Ir.Ceye; args = [ Ir.Sconst 4. ] };
      Ir.Ielem
        { dst = "X"; model = "B"; expr = Ir.Ebin (Mlang.Ast.Add, Ir.Emat "B", Ir.Emat "ML_tmp1") };
      Ir.Ielem
        { dst = "Y"; model = "B"; expr = Ir.Ebin (Mlang.Ast.Mul, Ir.Emat "B", Ir.Emat "ML_tmp1") };
    ]
  in
  let _, st = Spmd.Fold.run (prog b) in
  Alcotest.(check int) "nothing folded" 0 (List.assoc "folded" st)

(* --- validator ---------------------------------------------------------- *)

let test_validator_accepts_all_apps_at_O2 () =
  List.iter
    (fun (a : Apps.Scripts.app) ->
      let c = Otter.compile ~validate:true (a.Apps.Scripts.source 3) in
      Alcotest.(check (list string))
        (a.Apps.Scripts.name ^ " validates")
        []
        (Spmd.Validate.check c.Otter.prog))
    Apps.Scripts.apps

let test_validator_flags_use_before_def () =
  let p =
    prog
      ~vars:[ ("x", Ty.real_matrix); ("y", Ty.real_matrix) ]
      [ Ir.Icopy ("y", "x"); Ir.Iprint ("y", Ir.Pmat "y") ]
  in
  (* x is in the table but never defined before its use *)
  Alcotest.(check bool) "flagged" true (Spmd.Validate.check p <> [])

let test_validator_flags_unknown_variable () =
  let p = prog ~vars:[ ("x", Ty.real_matrix) ] [ Ir.Icopy ("ghost", "x") ] in
  Alcotest.(check bool) "flagged" true (Spmd.Validate.check p <> [])

let test_validator_flags_break_outside_loop () =
  let p = prog [ Ir.Ibreak ] in
  Alcotest.(check bool) "flagged" true (Spmd.Validate.check p <> [])

(* --- pass manager ------------------------------------------------------- *)

let test_pipeline_runs_passes_in_order () =
  let src = Apps.Scripts.cg ~n:16 ~iters:3 () in
  let c = Otter.compile ~validate:true src in
  Alcotest.(check (list string))
    "O2 pipeline order"
    (Spmd.Pass.level_passes Spmd.Pass.O2)
    (List.map (fun (r : Spmd.Pass.record) -> r.Spmd.Pass.pass) c.Otter.passes)

let test_unknown_pass_rejected () =
  let raised =
    try
      ignore (Otter.compile ~passes:[ "peephole"; "nosuch" ] "x = 1; disp(x)");
      false
    with Spmd.Pass.Unknown_pass "nosuch" -> true
  in
  Alcotest.(check bool) "Unknown_pass" true raised

let test_O0_compiles_without_passes () =
  let c = Otter.compile ~opt:Spmd.Pass.O0 "x = 1; disp(x)" in
  Alcotest.(check int) "no records" 0 (List.length c.Otter.passes);
  Alcotest.(check string) "table" "passes: none (O0)" (Otter.pass_table [])

(* --- optimization levels agree ------------------------------------------ *)

let fuzz_corpus_dir = lazy (Testutil.find_up "test/corpus/fuzz")

let test_fuzz_corpus_replays_at_O0 () =
  (* every regression script must also pass with the middle end off:
     catches bugs that an optimization accidentally papers over. *)
  match Lazy.force fuzz_corpus_dir with
  | None -> ()
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".m")
      |> List.sort compare
      |> List.iter (fun f ->
             let src = Testutil.read_file (Filename.concat dir f) in
             match Otter.compile ~opt:Spmd.Pass.O0 ~validate:true src with
             | exception Spmd.Lower.Unsupported _ ->
                 () (* interpreter-only script (e.g. matrix growth) *)
             | exception Mlang.Source.Error _
               when String.starts_with ~prefix:"% expect: compile-error" src ->
                 () (* a script the front end rejects by design *)
             | c ->
                 let oi =
                   Otter.outcome_exn
                     (Otter.run
                        (Otter.config ~engine:Otter.Config.Einterp
                           ~machine:Mpisim.Machine.workstation ~nprocs:1 ())
                        c)
                 in
                 let op =
                   Otter.outcome_exn
                     (Otter.run
                        (Otter.config ~machine:Mpisim.Machine.meiko_cs2
                           ~nprocs:3 ())
                        c)
                 in
                 Alcotest.(check string)
                   (f ^ ": O0 output agrees")
                   oi.Exec.State.output op.Exec.State.output)

let test_apps_identical_at_every_level () =
  (* O0, O1 and O2 builds of each paper app print the same thing. *)
  List.iter
    (fun (a : Apps.Scripts.app) ->
      let outputs =
        List.map
          (fun opt ->
            let c =
              Otter.compile ~opt ~validate:true (a.Apps.Scripts.source 3)
            in
            (Otter.outcome_exn
               (Otter.run
                  (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:4 ())
                  c))
              .Exec.State.output)
          [ Spmd.Pass.O0; Spmd.Pass.O1; Spmd.Pass.O2 ]
      in
      match outputs with
      | [ o0; o1; o2 ] ->
          Alcotest.(check string) (a.Apps.Scripts.name ^ ": O0=O1") o0 o1;
          Alcotest.(check string) (a.Apps.Scripts.name ^ ": O1=O2") o1 o2
      | _ -> assert false)
    Apps.Scripts.apps

(* Every library call is an availability key: [A'*B] computed twice
   (a transposed multiply after comm) is computed once. *)
let test_gre_reuses_matmul_t () =
  let c =
    Otter.compile ~passes:[ "peephole"; "comm"; "gre" ]
      "A = rand(4,4);\nB = rand(4,4);\nC = A'*B;\nD = A'*B;\ndisp(C);\ndisp(D);\n"
  in
  let n = ref 0 in
  Ir.iter_insts
    (function Ir.Ilib { fn = Ir.Lmatmul_t; _ } -> incr n | _ -> ())
    c.Otter.prog.Ir.p_body;
  Alcotest.(check int) "one transposed multiply" 1 !n

(* [sort] gathers its operand, so the compile report counts it as a
   communicating library call. *)
let test_report_counts_sort () =
  let c = Otter.compile "v = rand(1,16);\ns = sort(v);\n" in
  Alcotest.(check bool) "sort is communication" true
    (Testutil.contains (Otter.report c)
       "1 run-time library calls (communication)")

(* An [Ilib] operand list must fit its call. *)
let test_validator_flags_lib_arity () =
  let p =
    prog
      ~vars:[ ("A", Ty.real_matrix); ("C", Ty.real_matrix) ]
      [
        Ir.Iconstruct { dst = "A"; kind = Ir.Czeros; args = [ Ir.Sconst 2. ] };
        Ir.Ilib { dst = "C"; fn = Ir.Lmatmul; args = [ "A" ] };
      ]
  in
  match Spmd.Validate.check p with
  | [ e ] ->
      Alcotest.(check bool) "names the call" true (Testutil.contains e "matmul")
  | errs -> Alcotest.failf "expected one error, got %d" (List.length errs)

let suite =
  [
    t "licm hoists invariant broadcast" test_licm_hoists_invariant_broadcast;
    t "licm guards symbolic trip count" test_licm_guards_symbolic_trip_count;
    t "licm never hoists rand" test_licm_never_hoists_rand;
    t "licm respects loop-varying operands"
      test_licm_respects_loop_varying_operands;
    t "gre reuses transpose" test_gre_reuses_transpose;
    t "gre scalar reuse" test_gre_scalar_result_uses_scalar_copy;
    t "gre killed by redefinition" test_gre_killed_by_operand_redefinition;
    t "gre killed by conditional redefinition"
      test_gre_killed_by_conditional_redefinition;
    t "gre facts die at loop exit" test_gre_facts_die_at_loop_exit;
    t "gre reuses matmul_t" test_gre_reuses_matmul_t;
    t "report counts sort" test_report_counts_sort;
    t "copyprop forwards through temp" test_copyprop_forwards_through_temp;
    t "copyprop facts killed by loops" test_copyprop_facts_killed_by_loops;
    t "dce removes dead unnamed variable" test_dce_removes_dead_named_variable;
    t "dce keeps table variables" test_dce_keeps_table_variables;
    t "dce keeps rand and load" test_dce_keeps_rand_and_load;
    t "fold eye into element-wise loop" test_fold_eye_into_elementwise;
    t "fold skips multi-use temp" test_fold_skips_multi_use_temp;
    t "validator accepts apps at O2" test_validator_accepts_all_apps_at_O2;
    t "validator flags use before def" test_validator_flags_use_before_def;
    t "validator flags unknown variable" test_validator_flags_unknown_variable;
    t "validator flags break outside loop"
      test_validator_flags_break_outside_loop;
    t "validator flags library call arity" test_validator_flags_lib_arity;
    t "pipeline runs passes in order" test_pipeline_runs_passes_in_order;
    t "unknown pass rejected" test_unknown_pass_rejected;
    t "O0 compiles without passes" test_O0_compiles_without_passes;
    t "fuzz corpus replays at O0" test_fuzz_corpus_replays_at_O0;
    t "apps identical at every opt level" test_apps_identical_at_every_level;
  ]
