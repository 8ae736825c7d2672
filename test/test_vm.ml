(* End-to-end compiled-execution tests: whole MATLAB scripts compiled
   and run on the simulated machine, with results checked against
   hand-computed values and across processor counts. *)

open Testutil

let t name f = Alcotest.test_case name `Quick f

let value ?(nprocs = 4) src name = parallel_value ~nprocs src name

let test_scalar_arithmetic () =
  check_close "arith" 14. (value "x = 2 + 3 * 4;" "x");
  check_close "precedence with paren" 20. (value "x = (2 + 3) * 4;" "x");
  check_close "power" 512. (value "x = 2 ^ 9;" "x");
  check_close "unary minus power" (-4.) (value "x = -2 ^ 2;" "x");
  check_close "division" 2.5 (value "x = 5 / 2;" "x");
  check_close "left divide" 2.5 (value "x = 2 \\ 5;" "x");
  check_close "mod" 2. (value "x = mod(12, 5);" "x");
  check_close "negative mod follows matlab" 3. (value "x = mod(-2, 5);" "x");
  check_close "comparison" 1. (value "x = 3 < 4;" "x");
  check_close "logic" 1. (value "x = (3 > 2) && (2 > 1);" "x");
  check_close "not" 0. (value "x = ~5;" "x")

let test_control_flow () =
  check_close "if then" 1. (value "c = 3;\nif c > 2\n x = 1;\nelse\n x = 2;\nend" "x");
  check_close "elseif chain" 20.
    (value "c = 2;\nif c == 1\n x = 10;\nelseif c == 2\n x = 20;\nelse\n x = 30;\nend" "x");
  check_close "for accumulation" 55. (value "s = 0;\nfor i = 1:10\n s = s + i;\nend" "s");
  check_close "for with step" 25. (value "s = 0;\nfor i = 1:2:9\n s = s + i;\nend" "s");
  check_close "for downward" 15. (value "s = 0;\nfor i = 5:-1:1\n s = s + i;\nend" "s");
  check_close "while" 7. (value "x = 100;\nn = 0;\nwhile x > 1\n x = x / 2;\n n = n + 1;\nend" "n");
  check_close "break" 4.
    (value "s = 0;\nfor i = 1:10\n if i > 4\n  break\n end\n s = i;\nend" "s");
  check_close "continue" 25.
    (value "s = 0;\nfor i = 1:10\n if mod(i, 2) == 0\n  continue\n end\n s = s + i;\nend" "s");
  check_close "zero-trip loop body never runs" 0.
    (value "s = 0;\nfor i = 1:0\n s = s + 1;\nend" "s");
  check_close "loop variable holds last iterated value" 9.
    (value "for i = 1:2:9\nend\nx = i;" "x")

let test_vector_ops () =
  check_close "sum of range" 5050. (value "v = 1:100;\ns = sum(v);" "s");
  check_close "dot via transpose" 385.
    (value "v = (1:10)';\ns = v' * v;" "s");
  check_close "norm" 5. (value "v = [3; 4];\ns = norm(v);" "s");
  check_close "elementwise chain" 30.
    (value "a = ones(10, 1);\nb = 2 .* a + a;\ns = sum(b);" "s");
  check_close "min reduction" 1. (value "v = 5:-1:1;\nm = min(v);" "m");
  check_close "max elementwise" 9.
    (value "a = 3; b = 9;\nm = max(a, b);" "m");
  check_close "mean" 3. (value "v = 1:5;\nm = mean(v);" "m");
  check_close "prod" 120. (value "v = 1:5;\np = prod(v);" "p");
  check_close "any" 1. (value "v = zeros(3, 1);\nv(2) = 7;\na = any(v);" "a");
  check_close "all" 0. (value "v = ones(3, 1);\nv(2) = 0;\na = all(v);" "a")

let test_matrix_ops () =
  check_close "matmul trace"
    4.
    (value "A = eye(4);\nB = A * A;\ns = sum(sum(B));" "s");
  check_close "transpose identity" 0.
    (value "A = rand(6, 4);\nD = A - (A')';\ns = sum(sum(abs(D)));" "s");
  check_close "outer sum" 225.
    (value "u = (1:5)';\nA = u * u';\ns = sum(sum(A));" "s");
  check_close "eye diag" 3. (value "A = eye(3);\ns = sum(sum(A));" "s");
  check_close "column sums" 32.
    (value "A = ones(4, 3);\nA(1, 1) = 11;\nc = sum(A);\ns = c(1) * 2 - c(2) + c(3) * 2;" "s")

let test_indexing () =
  check_close "element read" 42.
    (value "A = zeros(3, 3);\nA(2, 3) = 42;\nx = A(2, 3);" "x");
  check_close "linear read col-major" 4.
    (value "A = zeros(2, 2);\nA(2, 2) = 9;\nA(1, 2) = 4;\nx = A(3);" "x");
  check_close "end in index" 10. (value "v = (1:10)';\nx = v(end);" "x");
  check_close "end arithmetic" 9. (value "v = (1:10)';\nx = v(end - 1);" "x");
  check_close "range section sum" 9. (value "v = (1:10)';\nw = v(2:4);\ns = sum(w);" "s");
  check_close "colon row" 15.
    (value "A = ones(3, 5);\nr = A(2, :);\ns = sum(r) * 3;" "s");
  check_close "index vector section" 14.
    (value "v = (1:10)';\nidx = [2, 5, 7];\nw = v(idx);\ns = sum(w);" "s");
  check_close "guarded write visible everywhere" 7.
    (value ~nprocs:8 "v = zeros(16, 1);\nv(11) = 7;\nx = v(11);" "x")

let test_shifts_and_trapz () =
  check_close "circshift wraps" 10.
    (value "v = (1:10)';\nw = circshift(v, 3);\nx = w(3);" "x");
  check_close "negative shift" 2.
    (value "v = (1:10)';\nw = circshift(v, -1);\nx = w(1);" "x");
  check_close ~tol:1e-4 "trapz parabola" (1. /. 3.)
    (value "x = linspace(0, 1, 101);\ny = x .* x;\ns = trapz(x, y);" "s")

let test_user_functions () =
  check_close "simple function" 49.
    (value "y = sq(7);\nfunction r = sq(x)\n  r = x * x;\nend" "y");
  (* a store into a matrix or tensor argument does not reach the caller,
     in the compiled code or in the interpreter *)
  let by_value =
    "A = ones(4, 4);\nT = ones(2, 3, 3);\ns1 = sum(sum(A)) + sum(T);\n\
     B = clobber(A);\nU = clobber3(T);\ns2 = sum(sum(A)) + sum(T);\n\
     d = s2 - s1;\n\
     function M = clobber(M)\n  M(1, 1) = 999;\nend\n\
     function M = clobber3(M)\n  M(1, 1, 1) = 999;\nend"
  in
  check_close "matrix argument by value" 0. (value by_value "d");
  check_close "matrix argument by value (interpreter)" 0.
    (interp_value by_value "d");
  check_close "multiple returns" 5.
    (value
       "[a, b] = mm(2, 3);\nx = a + b;\nfunction [p, q] = mm(u, v)\n  p = u * v / 3;\n  q = u + 1;\nend"
       "x");
  check_close "early return" 1.
    (value
       "y = f(5);\nfunction r = f(x)\n  r = 1;\n  if x > 3\n    return\n  end\n  r = 2;\nend"
       "y");
  check_close "function calling function" 16.
    (value
       "y = quad(2);\nfunction r = quad(x)\n  r = sq(sq(x));\nend\nfunction r = sq(x)\n  r = x * x;\nend"
       "y")

let test_matrix_conditions_and_vector_for () =
  check_close "matrix condition all-true" 1.
    (value "A = ones(2, 2);\nif A\n x = 1;\nelse\n x = 0;\nend" "x");
  check_close "matrix condition with zero" 0.
    (value "A = ones(2, 2);\nA(1, 2) = 0;\nif A\n x = 1;\nelse\n x = 0;\nend" "x");
  check_close "for over column vector" 15.
    (value "v = (1:5)';\ns = 0;\nfor x = v\n s = s + x;\nend" "s");
  check_close "for over row literal" 6.
    (value "s = 0;\nfor x = [1, 2, 3]\n s = s + x;\nend" "s");
  check_close "for-over-vector across P" 120.
    (value ~nprocs:8 "v = (1:15)';\ns = 0;\nfor x = v\n s = s + x;\nend" "s")

let test_concatenation () =
  check_close "vertical concat" 10.
    (value "u = [1; 2];\nv = [3; 4];\nw = [u; v];\ns = sum(w);" "s");
  check_close "horizontal concat" 21.
    (value "a = [1, 2, 3];\nb = [4, 5, 6];\nM = [a; b];\ns = sum(sum(M));" "s");
  check_close "block matrix" 4.
    (value "A = eye(2);\nM = [A, A; A, A];\ns = sum(sum(M)) - numel(M) / 2 + 4;\n" "s");
  check_close "mixed scalar and vector" 6.
    (value "v = [2, 3];\nw = [1, v];\ns = sum(w);" "s");
  check_close "concat across P" 10.
    (value ~nprocs:8 "u = (1:8)';\nv = (9:12)';\nw = [u; v];\ns = w(10) + numel(w) - 12 + 0;" "s")

let test_section_assignment () =
  check_close "range fill" 100.
    (value "v = zeros(10, 1);\nv(1:5) = 20;\ns = sum(v);" "s");
  check_close "vector store" 6.
    (value "v = zeros(5, 1);\nv(2:4) = [1; 2; 3];\ns = sum(v);" "s");
  check_close "colon row store" 9.
    (value "A = zeros(3, 3);\nA(2, :) = 3;\ns = sum(sum(A));" "s");
  check_close "submatrix store" 8.
    (value "A = zeros(4, 4);\nA(1:2, 1:2) = 2;\ns = sum(sum(A));" "s");
  check_close "index-vector store" 5.
    (value "v = zeros(6, 1);\nidx = [2, 5];\nv(idx) = 2.5;\ns = sum(v);" "s");
  check_close "store visible on all ranks" 55.
    (value ~nprocs:8 "v = zeros(16, 1);\nv(4:13) = (1:10)';\ns = sum(v);" "s");
  (match run_parallel ~nprocs:2 "v = zeros(4, 1);\nv(1:3) = [1; 2];" with
  | exception Exec.State.Runtime_error _ -> ()
  | _ -> Alcotest.fail "size mismatch must error")

let test_scans_and_argreductions () =
  check_close "cumsum last is sum" 5050.
    (value "v = (1:100)';\nc = cumsum(v);\nx = c(end);" "x");
  check_close "cumsum interior" 6.
    (value "v = (1:5)';\nc = cumsum(v);\nx = c(3);" "x");
  check_close "cumprod" 24.
    (value "v = (1:4)';\nc = cumprod(v);\nx = c(end);" "x");
  check_close "cumsum across P" 20100.
    (value ~nprocs:16 "v = (1:200)';\nc = cumsum(v);\nx = c(end);" "x");
  check_close "argmin value" (-3.)
    (value "v = [5; -3; 8; -3];\n[m, i] = min(v);\nx = m;" "x");
  check_close "argmin index is first" 2.
    (value "v = [5; -3; 8; -3];\n[m, i] = min(v);\nx = i;" "x");
  check_close "argmax across P" 17.
    (value ~nprocs:8
       "v = zeros(32, 1);\nv(17) = 9;\n[m, i] = max(v);\nx = i;" "x")

let test_sort_and_repmat () =
  check_close "sorted first" 1.
    (value "v = [3; 1; 4; 1; 5];\ns = sort(v);\nx = s(1);" "x");
  check_close "sorted last" 5.
    (value "v = [3; 1; 4; 1; 5];\ns = sort(v);\nx = s(end);" "x");
  check_close "sort stable on ties" 2.
    (value "v = [3; 1; 4; 1; 5];\n[s, i] = sort(v);\nx = i(1);" "x");
  check_close "permutation applies" 0.
    (value
       "v = rand(20, 1);\n[s, i] = sort(v);\nw = v(i);\nd = sum(abs(w - s));"
       "d");
  check_close "sort across P" 0.
    (value ~nprocs:8
       "v = rand(33, 1);\ns = sort(v);\nbad = sum(s(2:end) < s(1:end-1));"
       "bad");
  check_close "repmat tiles" 24.
    (value "A = [1, 2; 3, 0];\nB = repmat(A, 2, 2);\nx = sum(sum(B));" "x");
  check_close "repmat scalar-ish row" 12.
    (value "v = [1, 2, 3];\nB = repmat(v, 2, 1);\nx = sum(sum(B));" "x")

let test_multi_assign_size () =
  check_close "rows and cols" 34.
    (value "A = ones(3, 4);\n[r, c] = size(A);\nx = r * 10 + c;" "x")

let test_output_formatting () =
  let out, _ = run_parallel ~nprocs:4 "fprintf('n=%d x=%.2f\\n', 5, 1.5);" in
  Alcotest.(check string) "fprintf" "n=5 x=1.50\n" out;
  let out, _ = run_parallel ~nprocs:4 "x = 3.5" in
  Alcotest.(check string) "display" "x = 3.5\n" out;
  let out, _ = run_parallel ~nprocs:2 "disp('hello')" in
  Alcotest.(check string) "disp string" "hello\n" out;
  let out, _ = run_parallel ~nprocs:2 "disp(42)" in
  Alcotest.(check string) "disp scalar" "42\n" out

let test_output_printed_once () =
  (* Only rank 0 prints: output must not repeat per rank. *)
  let out, _ = run_parallel ~nprocs:8 "fprintf('once\\n');" in
  Alcotest.(check string) "printed once" "once\n" out

let test_error_reporting () =
  let expect src =
    match run_parallel ~nprocs:2 src with
    | exception Exec.State.Runtime_error _ -> ()
    | _ -> Alcotest.failf "expected runtime error on %S" src
  in
  expect "error('boom')";
  expect "v = ones(4, 1);\nx = v(9);";
  expect "A = ones(2, 3);\nB = ones(3, 2);\nC = A + B;"

let test_results_identical_across_p () =
  let src =
    "n = 24;\nA = rand(n, n);\nA = A + A' + n * eye(n);\nv = rand(n, 1);\n\
     w = A * v;\ns = sum(w);\nd = v' * w;\nm = max(w);"
  in
  let reference = ref [] in
  List.iter
    (fun p ->
      let _, caps = run_parallel ~nprocs:p ~capture:[ "s"; "d"; "m" ] src in
      let vals = List.map (fun n -> vm_scalar caps n) [ "s"; "d"; "m" ] in
      if p = 1 then reference := vals
      else
        List.iter2
          (fun a b -> check_close ~tol:1e-9 (Printf.sprintf "P=%d" p) a b)
          !reference vals)
    [ 1; 2; 3; 4; 8; 16 ]

let test_rand_sequence_shared () =
  (* two rand calls give different data; sequence is deterministic *)
  let src = "a = rand(4, 1);\nb = rand(4, 1);\nd = sum(abs(a - b));\ns = sum(a);" in
  let _, caps1 = run_parallel ~nprocs:2 ~capture:[ "d"; "s" ] src in
  let _, caps2 = run_parallel ~nprocs:4 ~capture:[ "d"; "s" ] src in
  Alcotest.(check bool) "different draws" true (vm_scalar caps1 "d" > 1e-6);
  check_close "deterministic across P" (vm_scalar caps1 "s") (vm_scalar caps2 "s")

let suite =
  [
    t "scalar arithmetic" test_scalar_arithmetic;
    t "control flow" test_control_flow;
    t "vector operations" test_vector_ops;
    t "matrix operations" test_matrix_ops;
    t "indexing" test_indexing;
    t "shifts and trapz" test_shifts_and_trapz;
    t "user functions" test_user_functions;
    t "matrix conditions and vector for" test_matrix_conditions_and_vector_for;
    t "concatenation" test_concatenation;
    t "section assignment" test_section_assignment;
    t "scans and arg-reductions" test_scans_and_argreductions;
    t "sort and repmat" test_sort_and_repmat;
    t "multi-assign size" test_multi_assign_size;
    t "output formatting" test_output_formatting;
    t "output printed once" test_output_printed_once;
    t "runtime errors" test_error_reporting;
    t "identical results across P" test_results_identical_across_p;
    t "rand sequencing" test_rand_sequence_shared;
  ]
