(* Peephole optimizer tests (paper pass 6). *)

module Ir = Spmd.Ir
module P = Spmd.Peephole

let t name f = Alcotest.test_case name `Quick f

let opt_block b =
  let stats = P.fresh_stats () in
  let prog = { Ir.p_vars = []; p_body = b; p_funcs = [] } in
  let prog = P.optimize ~stats prog in
  (prog.Ir.p_body, stats)

let test_copy_forwarding () =
  let b =
    [
      Ir.Ilib { dst = "ML_tmp1"; fn = Ir.Lmatmul; args = [ "a"; "b" ] };
      Ir.Icopy ("c", "ML_tmp1");
      Ir.Iprint ("c", Ir.Pmat "c");
    ]
  in
  let b', stats = opt_block b in
  Alcotest.(check int) "forwarded" 1 stats.P.copies_forwarded;
  match b' with
  | [ Ir.Ilib { dst = "c"; fn = Ir.Lmatmul; args = [ "a"; "b" ] }; Ir.Iprint _ ] -> ()
  | _ -> Alcotest.fail "matmul should write c directly"

let test_copy_forwarding_in_place_elementwise () =
  (* x = x + 1: in-place element-wise update is safe to forward. *)
  let b =
    [
      Ir.Ielem
        {
          dst = "ML_tmp1";
          model = "x";
          expr = Ir.Ebin (Mlang.Ast.Add, Ir.Emat "x", Ir.Escalar (Ir.Sconst 1.));
        };
      Ir.Icopy ("x", "ML_tmp1");
      Ir.Iprint ("x", Ir.Pmat "x");
    ]
  in
  let b', stats = opt_block b in
  Alcotest.(check int) "forwarded" 1 stats.P.copies_forwarded;
  match b' with
  | [ Ir.Ielem { dst = "x"; _ }; Ir.Iprint _ ] -> ()
  | _ -> Alcotest.fail "element-wise loop should write x in place"

let test_no_forwarding_when_operand_read_by_library_call () =
  (* q = matmul(A, q) is NOT safe in place: the copy must stay. *)
  let b =
    [
      Ir.Ilib { dst = "ML_tmp1"; fn = Ir.Lmatmul; args = [ "A"; "q" ] };
      Ir.Icopy ("q", "ML_tmp1");
      Ir.Iprint ("q", Ir.Pmat "q");
    ]
  in
  let b', _ = opt_block b in
  match b' with
  | [
   Ir.Ilib { dst = "ML_tmp1"; fn = Ir.Lmatmul; args = [ "A"; "q" ] };
   Ir.Icopy ("q", "ML_tmp1");
   Ir.Iprint _;
  ]
    ->
      ()
  | _ -> Alcotest.fail "copy into an operand of the call must remain"

let test_no_forwarding_when_temp_reused () =
  let b =
    [
      Ir.Ilib { dst = "ML_tmp1"; fn = Ir.Lmatmul; args = [ "a"; "b" ] };
      Ir.Icopy ("c", "ML_tmp1");
      Ir.Iprint ("t", Ir.Pmat "ML_tmp1");
    ]
  in
  let b', stats = opt_block b in
  Alcotest.(check int) "not forwarded" 0 stats.P.copies_forwarded;
  Alcotest.(check int) "length unchanged" 3 (List.length b')

let test_broadcast_reuse () =
  let b =
    [
      Ir.Ibcast ("ML_tmp1", "a", [ Ir.Sconst 2.; Ir.Sconst 3. ]);
      Ir.Ibcast ("ML_tmp2", "a", [ Ir.Sconst 2.; Ir.Sconst 3. ]);
      Ir.Iprint ("x", Ir.Pscalar (Ir.Sbin (Mlang.Ast.Add, Ir.Svar "ML_tmp1", Ir.Svar "ML_tmp2")));
    ]
  in
  let b', stats = opt_block b in
  Alcotest.(check int) "one reuse" 1 stats.P.broadcasts_reused;
  match b' with
  | [ Ir.Ibcast _; Ir.Iscalar ("ML_tmp2", Ir.Svar "ML_tmp1"); Ir.Iprint _ ] -> ()
  | _ -> Alcotest.fail "second broadcast should become a scalar copy"

let test_different_broadcasts_not_merged () =
  let b =
    [
      Ir.Ibcast ("ML_tmp1", "a", [ Ir.Sconst 2.; Ir.Sconst 3. ]);
      Ir.Ibcast ("ML_tmp2", "a", [ Ir.Sconst 3.; Ir.Sconst 2. ]);
      Ir.Iprint ("x", Ir.Pscalar (Ir.Sbin (Mlang.Ast.Add, Ir.Svar "ML_tmp1", Ir.Svar "ML_tmp2")));
    ]
  in
  let _, stats = opt_block b in
  Alcotest.(check int) "no reuse" 0 stats.P.broadcasts_reused

let test_transpose_collapse () =
  let b =
    [
      Ir.Ilib { dst = "ML_tmp1"; fn = Ir.Ltranspose; args = [ "a" ] };
      Ir.Ilib { dst = "b"; fn = Ir.Ltranspose; args = [ "ML_tmp1" ] };
      Ir.Iprint ("b", Ir.Pmat "b");
    ]
  in
  let b', stats = opt_block b in
  Alcotest.(check int) "collapsed" 1 stats.P.transposes_collapsed;
  match b' with
  | [ Ir.Icopy ("b", "a"); Ir.Iprint _ ] -> ()
  | _ -> Alcotest.fail "a'' should collapse to a copy"

let test_shift_combining () =
  let b =
    [
      Ir.Ilib { dst = "ML_tmp1"; fn = Ir.Lshift (Ir.Sconst 2.); args = [ "v" ] };
      Ir.Ilib { dst = "w"; fn = Ir.Lshift (Ir.Sconst 3.); args = [ "ML_tmp1" ] };
      Ir.Iprint ("w", Ir.Pmat "w");
    ]
  in
  let b', stats = opt_block b in
  Alcotest.(check int) "combined" 1 stats.P.shifts_combined;
  match b' with
  | [
   Ir.Ilib
     {
       dst = "w";
       fn = Ir.Lshift (Ir.Sbin (Mlang.Ast.Add, Ir.Sconst 2., Ir.Sconst 3.));
       args = [ "v" ];
     };
   _;
  ] ->
      ()
  | _ -> Alcotest.fail "shift of shift should combine offsets"

let test_dead_code_removal () =
  let b =
    [
      Ir.Iconstruct { dst = "ML_tmp1"; kind = Ir.Czeros; args = [ Ir.Sconst 4. ] };
      Ir.Iscalar ("x", Ir.Sconst 1.);
      Ir.Iprint ("x", Ir.Pscalar (Ir.Svar "x"));
    ]
  in
  let b', stats = opt_block b in
  Alcotest.(check int) "dead removed" 1 stats.P.dead_removed;
  Alcotest.(check int) "length" 2 (List.length b')

let test_user_variables_never_removed () =
  let b =
    [
      Ir.Iconstruct { dst = "unused_user_var"; kind = Ir.Czeros; args = [ Ir.Sconst 4. ] };
      Ir.Iprint ("x", Ir.Pscalar (Ir.Sconst 1.));
    ]
  in
  let _, stats = opt_block b in
  Alcotest.(check int) "kept" 0 stats.P.dead_removed

let test_effects_never_removed () =
  let b =
    [ Ir.Isetelem ("a", [ Ir.Sconst 1. ], Ir.Sconst 5.); Ir.Ibreak ] in
  let b', _ = opt_block b in
  Alcotest.(check int) "length" 2 (List.length b')

let test_nested_blocks_optimized () =
  let inner =
    [
      Ir.Ilib { dst = "ML_tmp1"; fn = Ir.Lmatmul; args = [ "a"; "b" ] };
      Ir.Icopy ("c", "ML_tmp1");
      Ir.Iprint ("c", Ir.Pmat "c");
    ]
  in
  let b = [ Ir.Ifor ("i", Ir.Sconst 1., None, Ir.Sconst 3., inner) ] in
  let _, stats = opt_block b in
  Alcotest.(check int) "forwarded inside loop" 1 stats.P.copies_forwarded

let test_end_to_end_cg_copies () =
  (* On the CG script, all element-wise temporaries forward into the
     target variables. *)
  let src = Apps.Scripts.cg ~n:16 ~iters:3 () in
  let p = Analysis.Resolve.run (Mlang.Parser.parse_program src) in
  let info = Analysis.Infer.program p in
  let raw = Spmd.Lower.lower_program info p in
  let stats = P.fresh_stats () in
  let opt = P.optimize ~stats raw in
  Alcotest.(check bool) "several copies forwarded" true
    (stats.P.copies_forwarded >= 4);
  (* and the optimized program has fewer instructions *)
  let rec count (b : Ir.block) =
    List.fold_left
      (fun acc i ->
        acc + 1
        +
        match i with
        | Ir.Iif (bs, e) ->
            List.fold_left (fun a (_, blk) -> a + count blk) 0 bs + count e
        | Ir.Iwhile (_, blk) | Ir.Ifor (_, _, _, _, blk) -> count blk
        | _ -> 0)
      0 b
  in
  Alcotest.(check bool) "program shrank" true
    (count opt.Ir.p_body < count raw.Ir.p_body)

(* The transpose, shift and broadcast rules fire on MATLAB source, not
   only on hand-built IR: the corpus script holds one instance of each. *)
let test_rules_fire_on_source () =
  match Testutil.find_up "test/corpus/fuzz/peephole_rules.m" with
  | None -> () (* sandboxed without sources: nothing to check *)
  | Some file ->
      let c = Otter.compile ~opt:Spmd.Pass.O1 (Testutil.read_file file) in
      let r =
        List.find (fun (r : Spmd.Pass.record) -> r.pass = "peephole") c.passes
      in
      List.iter
        (fun rule ->
          Alcotest.(check int) rule 1 (List.assoc rule r.Spmd.Pass.detail))
        [ "transposes-collapsed"; "shifts-combined"; "broadcasts-reused" ]

let suite =
  [
    t "copy forwarding" test_copy_forwarding;
    t "in-place element-wise forwarding" test_copy_forwarding_in_place_elementwise;
    t "no in-place forwarding for library calls"
      test_no_forwarding_when_operand_read_by_library_call;
    t "no forwarding when temp reused" test_no_forwarding_when_temp_reused;
    t "broadcast reuse" test_broadcast_reuse;
    t "different broadcasts kept" test_different_broadcasts_not_merged;
    t "transpose of transpose" test_transpose_collapse;
    t "shift of shift" test_shift_combining;
    t "dead temporary removal" test_dead_code_removal;
    t "user variables never removed" test_user_variables_never_removed;
    t "effectful instructions kept" test_effects_never_removed;
    t "nested blocks" test_nested_blocks_optimized;
    t "CG end to end" test_end_to_end_cg_copies;
    t "rules fire on MATLAB source" test_rules_fire_on_source;
  ]
