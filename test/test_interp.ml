(* Reference-interpreter tests: full MATLAB-subset semantics including
   the dynamic features the compiler restricts (matrix concatenation,
   section assignment, for-over-matrix), plus the cost models, plus
   differential agreement with the VM on random element-wise programs. *)

open Testutil

let t name f = Alcotest.test_case name `Quick f

let value src name = interp_value src name

let test_dynamic_semantics () =
  check_close "concat rows" 21.
    (value "a = [1, 2, 3];\nb = [4, 5, 6];\nM = [a; b];\ns = sum(sum(M));" "s");
  check_close "concat of vectors" 10.
    (value "u = [1; 2];\nv = [3; 4];\nw = [u; v];\ns = sum(w);" "s");
  check_close "section assignment" 100.
    (value "v = zeros(10, 1);\nv(1:5) = 20;\ns = sum(v);" "s");
  check_close "section assignment from vector" 6.
    (value "v = zeros(5, 1);\nv(2:4) = [1; 2; 3];\ns = sum(v);" "s");
  check_close "matrix condition true" 1.
    (value "A = ones(2, 2);\nif A\n x = 1;\nelse\n x = 0;\nend" "x");
  check_close "matrix condition false" 0.
    (value "A = ones(2, 2);\nA(1, 2) = 0;\nif A\n x = 1;\nelse\n x = 0;\nend" "x");
  check_close "for over row vector" 6.
    (value "s = 0;\nfor x = [1, 2, 3]\n s = s + x;\nend" "s");
  check_close "for over matrix iterates columns" 3.
    (value "n = 0;\nfor col = ones(2, 3)\n n = n + 1;\nend" "n")

let test_matlab_quirks () =
  (* 1x1 results behave as scalars *)
  check_close "1x1 matmul is scalar" 32.
    (value "u = [1, 2, 3];\nv = [4; 5; 6];\ns = u * v;\nx = s + 0;" "x");
  (* linear indexing of matrices is column-major *)
  check_close "column-major linear index" 3.
    (value "A = [1, 2; 3, 4];\nx = A(2);" "x");
  check_close "end is numel for linear" 4.
    (value "A = [1, 2; 3, 4];\nx = A(end);" "x");
  check_close "empty range" 0. (value "v = 5:1;\ns = sum(v) + numel(v);" "s")

let test_string_handling () =
  let out, _ = run_interp "x = 'hello';\ndisp(x)" in
  Alcotest.(check string) "string variable" "hello\n" out;
  let out, _ = run_interp "fprintf('%s world %d\\n', 'cruel', 7);" in
  Alcotest.(check string) "string format" "cruel world 7\n" out

let test_display_format () =
  let out, _ = run_interp "x = 2.5" in
  Alcotest.(check string) "scalar display" "x = 2.5\n" out;
  let out, _ = run_interp "A = eye(2)" in
  Alcotest.(check string) "matrix display"
    "A =\n       1.0000     0.0000\n       0.0000     1.0000\n" out

(* Operands whose shapes disagree only at run time (n grows in a loop)
   are a run-time error, as in tcode, and the tensor case: no
   Invalid_argument escapes the interpreter. *)
let test_nonconformant_is_runtime_error () =
  let grow = "n = 1;\nfor k = 1:4\n  n = n + 1;\nend\n" in
  List.iter
    (fun (what, expr, msg) ->
      match run_interp (grow ^ "x = " ^ expr ^ ";\n") with
      | exception Interp.Eval.Runtime_error m ->
          Alcotest.(check string) what msg m
      | _ -> Alcotest.failf "%s: expected a run-time error" what)
    [
      ("plus", "ones(n, 1) + ones(3, 1)", "nonconformant operands (5x1 vs 3x1)");
      ( "two-argument max",
        "max(ones(n, 1), ones(3, 1))",
        "nonconformant operands (5x1 vs 3x1)" );
      ("matmul", "ones(2, n) * ones(3, 2)", "inner dimensions disagree (2x5 * 3x2)");
      ( "tensor plus",
        "zeros(n, 2, 2) + zeros(3, 2, 2)",
        "nonconformant operands (5x2x2 vs 3x2x2)" );
    ]

let test_cost_model_ordering () =
  (* On every benchmark, modeled times order: interpreter slowest. *)
  let src = Apps.Scripts.cg ~n:48 ~iters:5 () in
  let c = compile src in
  let machine = Mpisim.Machine.workstation in
  let time engine =
    (Otter.outcome_exn
       (Otter.run (Otter.config ~engine ~machine ~nprocs:1 ()) c))
      .Exec.State.report
      .Mpisim.Sim.makespan
  in
  let ti = time Otter.Config.Einterp in
  let tm = time Otter.Config.Ematcom in
  let to1 = time Otter.Config.Etcode in
  Alcotest.(check bool) "interpreter slower than matcom" true (ti > tm);
  Alcotest.(check bool) "interpreter slower than otter" true (ti > to1);
  Alcotest.(check bool) "sane ratio" true (ti /. to1 > 2. && ti /. to1 < 20.)

let test_interpreter_dispatch_dominates_scalar_loops () =
  (* A scalar loop is far more interpreter-hostile than a vector op of
     the same flop count -- the paper's motivation for vectorizing. *)
  let machine = Mpisim.Machine.workstation in
  let scalar_loop =
    compile "s = 0;\nfor i = 1:10000\n  s = s + i;\nend"
  in
  let vector_op = compile "v = 1:10000;\ns = sum(v);" in
  let ratio c =
    let time engine =
      (Otter.outcome_exn
         (Otter.run (Otter.config ~engine ~machine ~nprocs:1 ()) c))
        .Exec.State.report
        .Mpisim.Sim.makespan
    in
    time Otter.Config.Einterp /. time Otter.Config.Etcode
  in
  Alcotest.(check bool) "loops pay more interpretive overhead" true
    (ratio scalar_loop > 2. *. ratio vector_op)

(* The sequential baselines come back in the executor's shape:
   [Otter.interpret]'s output and captures, one attempt, and a one-rank
   report whose makespan and compute time are the modeled time. *)
let test_baselines_in_run_shape () =
  let src = "v = 1:10;\ns = sum(v);\nfprintf('%g\\n', s);\n" in
  List.iter
    (fun engine ->
      let cfg =
        Otter.config ~engine ~machine:Mpisim.Machine.workstation ~nprocs:1
          ~capture:[ "s"; "v" ] ()
      in
      let o = Otter.interpret cfg (Otter.compile_frontend src) in
      let rc = Otter.run cfg (compile src) in
      let r = Otter.outcome_exn rc and t = o.Interp.Eval.time in
      let rep = r.Exec.State.report in
      let name = Otter.Config.engine_name engine in
      Alcotest.(check bool) (name ^ ": one attempt, one report") true
        (rc.Exec.State.r_attempts = 1 && rc.Exec.State.r_reports = [ rep ]);
      Alcotest.(check bool) (name ^ ": output and captures") true
        (o.Interp.Eval.output = r.Exec.State.output
        && o.Interp.Eval.captures = r.Exec.State.captures);
      Alcotest.(check bool) (name ^ ": one rank, at the modeled time") true
        (rep.Mpisim.Sim.makespan = t && rep.compute_time = t
        && rep.per_rank_clock = [| t |]);
      check Alcotest.int (name ^ ": counters") 0
        (rep.messages + rep.bytes + rep.drops + rep.dups + rep.delayed
       + rep.stalls + rep.retries + rep.acks + rep.kills + rep.sched_picks))
    [ Otter.Config.Einterp; Otter.Config.Ematcom ]

(* Differential testing: random element-wise scripts must agree between
   the interpreter and the 4-CPU compiled run. *)
let gen_script : string QCheck.Gen.t =
  let open QCheck.Gen in
  let vec = oneofl [ "a"; "b"; "c" ] in
  let scalar_expr = oneofl [ "2"; "0.5"; "k"; "-1" ] in
  let rec expr n =
    if n <= 0 then vec
    else
      frequency
        [
          (4, vec);
          ( 4,
            map3
              (fun op x y -> Printf.sprintf "(%s %s %s)" x op y)
              (oneofl [ "+"; "-"; ".*"; "./"; ".^"; "<"; ">=" ])
              (expr (n / 2)) (expr (n / 2)) );
          ( 2,
            map2
              (fun s x -> Printf.sprintf "(%s .* %s)" s x)
              scalar_expr (expr (n - 1)) );
          (1, map (Printf.sprintf "abs(%s)") (expr (n - 1)));
          (1, map (Printf.sprintf "sqrt(abs(%s))") (expr (n - 1)));
          (1, map (Printf.sprintf "circshift(%s, 2)") (expr (n - 1)));
          (1, map (Printf.sprintf "circshift(%s, -5)") (expr (n - 1)));
          (1, map (Printf.sprintf "cumsum(%s)") (expr (n - 1)));
          (1, map (Printf.sprintf "(%s')'") (expr (n - 1)));
          ( 1,
            map2
              (fun x y -> Printf.sprintf "min(%s, %s)" x y)
              (expr (n / 2)) (expr (n / 2)) );
          ( 1,
            map
              (fun x -> Printf.sprintf "(%s + sum(%s) ./ 17)" x x)
              (expr (n - 1)) );
        ]
  in
  map
    (fun e ->
      Printf.sprintf
        "k = 3;\na = rand(17, 1);\nb = rand(17, 1);\nc = ones(17, 1);\n\
         r = %s;\nchk = sum(r) + max(r) + r(3) + r(end);"
        e)
    (expr 4)

let differential_prop src =
  let c = compile src in
  let mm =
    Otter.verify_list
      (Otter.config ~tol:1e-9 ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:4
         ~capture:[ "r"; "chk" ] ())
      c
  in
  if mm <> [] then
    QCheck.Test.fail_reportf "mismatch on:\n%s\n%s" src
      (String.concat "; "
         (List.map (fun m -> m.Otter.variable ^ ": " ^ m.Otter.detail) mm));
  true

(* Statement-level fuzz: random structured programs mixing scalar and
   vector state, control flow and element updates, verified between the
   interpreter and a 3-CPU compiled run. *)
let gen_stmt_program : string QCheck.Gen.t =
  let open QCheck.Gen in
  let svar = oneofl [ "s"; "t" ] in
  let mvar = oneofl [ "u"; "w" ] in
  let sexpr =
    oneof
      [
        map string_of_int (int_range 1 9);
        svar;
        map2 (Printf.sprintf "(%s + %s)") svar svar;
        map (Printf.sprintf "sum(%s)") mvar;
        map2 (Printf.sprintf "%s(%d)") mvar (int_range 1 12);
      ]
  in
  let mexpr =
    oneof
      [
        mvar;
        map2 (Printf.sprintf "(%s + %s)") mvar mvar;
        map2 (Printf.sprintf "(%s .* %s)") sexpr mvar;
        map (Printf.sprintf "circshift(%s, 3)") mvar;
        map (Printf.sprintf "cumsum(%s)") mvar;
      ]
  in
  let stmt =
    oneof
      [
        map2 (Printf.sprintf "%s = %s;") svar sexpr;
        map2 (Printf.sprintf "%s = %s;") mvar mexpr;
        map3 (Printf.sprintf "%s(%d) = %s;") mvar (int_range 1 12) sexpr;
      ]
  in
  let rec block n =
    if n <= 0 then stmt
    else
      frequency
        [
          (4, stmt);
          (2, map2 (Printf.sprintf "%s\n%s") (block (n / 2)) (block (n / 2)));
          ( 1,
            map2
              (Printf.sprintf "if %s > 4\n%s\nend")
              sexpr (block (n - 1)) );
          (1, map (Printf.sprintf "for i = 1:4\n%s\nend") (block (n - 1)));
        ]
  in
  map
    (fun b ->
      Printf.sprintf
        "s = 1; t = 2;\nu = rand(12, 1);\nw = (1:12)';\n%s\n\
         chk = s + t + sum(u) + sum(w);"
        b)
    (block 3)

let stmt_differential_prop src =
  let c = Testutil.compile src in
  let mm =
    Otter.verify_list
      (Otter.config ~tol:1e-9 ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:3
         ~capture:[ "s"; "t"; "u"; "w"; "chk" ] ())
      c
  in
  if mm <> [] then
    QCheck.Test.fail_reportf "mismatch on:\n%s\n%s" src
      (String.concat "; "
         (List.map (fun m -> m.Otter.variable ^ ": " ^ m.Otter.detail) mm));
  true

let suite =
  [
    t "dynamic semantics beyond the compiler" test_dynamic_semantics;
    t "matlab quirks" test_matlab_quirks;
    t "strings" test_string_handling;
    t "display format" test_display_format;
    t "nonconformant operands are a run-time error"
      test_nonconformant_is_runtime_error;
    t "cost model ordering" test_cost_model_ordering;
    t "interpretive overhead on scalar loops"
      test_interpreter_dispatch_dominates_scalar_loops;
    t "baselines come back as a one-rank run" test_baselines_in_run_shape;
    Testutil.qtest ~count:120 "interpreter == compiled on random programs"
      (QCheck.make ~print:(fun s -> s) gen_script)
      differential_prop;
    Testutil.qtest ~count:80 "interpreter == compiled on random statements"
      (QCheck.make ~print:(fun s -> s) gen_stmt_program)
      stmt_differential_prop;
  ]
