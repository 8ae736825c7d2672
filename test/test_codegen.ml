(* C back-end tests: structural properties of the emitted code (the
   paper's pass-7 style), and -- when a C compiler is available --
   integration tests that build generated programs against the run-time
   library and the one-machine MPI shim, run them as 1, 2 and 4
   processes, and compare stdout with the reference interpreter. *)

let t name f = Alcotest.test_case name `Quick f

let emit src = Codegen.emit_c (Otter.compile src).Otter.prog

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let check_contains msg c affix =
  if not (contains ~affix c) then
    Alcotest.failf "%s: generated C should contain %S\n%s" msg affix c

let check_not_contains msg c affix =
  if contains ~affix c then
    Alcotest.failf "%s: generated C should NOT contain %S" msg affix

let test_paper_style_calls () =
  (* the paper's pass-4 example: a = b * c + d(i, j) *)
  let c =
    emit
      "n = 4;\nb = ones(n, n); c = ones(n, n); d = ones(n, n);\ni = 2; j = 3;\n\
       a = b * c + d(i, j);"
  in
  check_contains "matmul" c "ML_matrix_multiply(";
  check_contains "broadcast" c "ML_broadcast(";
  check_contains "0-based adjustment" c "- 1";
  check_contains "local loop" c "ML_local_els(";
  check_contains "countdown loop" c "ML_i >= 0; ML_i--"

let test_owner_guard_style () =
  (* the paper's pass-5 example: a(i,j) = a(i,j) / b(j,i) *)
  let c =
    emit "a = ones(3, 3); b = ones(3, 3); i = 1; j = 2;\na(i, j) = a(i, j) / b(j, i);"
  in
  check_contains "guard" c "if (ML_owner(";
  check_contains "store" c "*ML_realaddr2("

let test_declarations () =
  let c = emit "x = 1.5;\nA = ones(3, 3);" in
  check_contains "scalar decl" c "double x = 0;";
  check_contains "matrix decl" c "MATRIX *A = NULL;";
  check_contains "init" c "ML_init(&argc, &argv);";
  check_contains "finalize" c "ML_finalize();"

let test_control_flow_c () =
  let c =
    emit "s = 0;\nfor i = 1:2:9\n  if s > 5\n    s = s - 1;\n  else\n    s = s + i;\n  end\nend\nwhile s > 0\n  s = s - 3;\nend"
  in
  (* the loop iterates on a hidden induction variable and assigns the
     MATLAB loop variable at the top of each pass (post-loop value and
     body reassignment semantics) *)
  check_contains "for" c "for (ML_it";
  check_contains "loop var assign" c "i = ML_it";
  check_contains "if" c "if ((";
  check_contains "else" c "} else {";
  check_contains "while" c "while (("

let test_function_emission () =
  let c =
    emit "y = f(2);\nfunction r = f(x)\n  r = x * x;\nend"
  in
  check_contains "prototype" c "static void u_f(double x, double *ML_ret_r);";
  check_contains "call" c "u_f(";
  check_contains "return store" c "*ML_ret_r = r;"

let test_keyword_mangling () =
  let c = emit "int = 3;\nregister = int + 1;" in
  check_contains "mangled int" c "int_ = ";
  check_contains "mangled register" c "register_ = ";
  check_not_contains "no bare keyword decl" c "double int = "

let test_string_escaping () =
  let c = emit "fprintf('a \"quoted\" %d\\n', 3);" in
  check_contains "escaped quotes" c "\\\"quoted\\\""

let test_balanced_braces () =
  List.iter
    (fun (app : Apps.Scripts.app) ->
      let c = emit (app.source 10) in
      let opens = String.fold_left (fun n ch -> if ch = '{' then n + 1 else n) 0 c in
      let closes = String.fold_left (fun n ch -> if ch = '}' then n + 1 else n) 0 c in
      Alcotest.(check int) (app.key ^ " balanced braces") opens closes)
    Apps.Scripts.apps

let test_support_files_present () =
  let names = List.map fst Codegen.support_files in
  Alcotest.(check (list string)) "files"
    [ "otter_rt.h"; "otter_rt.c"; "mpi.h"; "otter_mpi_shim.c" ]
    names;
  List.iter
    (fun (name, content) ->
      Alcotest.(check bool) (name ^ " nonempty") true (String.length content > 500))
    Codegen.support_files

(* --- integration: compile with cc and compare with the interpreter ------ *)

let check_c_matches_interpreter src =
  if Lazy.force Fuzz.cc_available then
    Testutil.with_temp_dir (fun dir ->
        Testutil.build_c dir (emit src);
        Testutil.check_c_runs dir (fst (Testutil.run_interp src)))

let test_c_execution_basics () =
  check_c_matches_interpreter
    "x = 2 + 3 * 4;\nfprintf('x=%d\\n', x);\nv = (1:10)';\n\
     fprintf('s=%g d=%g\\n', sum(v), v' * v);"

let test_c_execution_control_flow () =
  check_c_matches_interpreter
    "s = 0;\nfor i = 1:10\n  if mod(i, 3) == 0\n    continue\n  end\n\
     \  s = s + i;\n  if s > 30\n    break\n  end\nend\nfprintf('s=%d\\n', s);"

let test_c_execution_matrix_ops () =
  check_c_matches_interpreter
    "n = 12;\nA = rand(n, n);\nA = A + A' + n * eye(n);\nv = rand(n, 1);\n\
     w = A * v;\nfprintf('%.10f %.10f %.10f\\n', sum(w), norm(w), max(w));\n\
     B = A(2:5, :);\nfprintf('%.10f\\n', sum(sum(B)));\n\
     u = circshift(v, 4);\nfprintf('%.10f\\n', u(1) + u(end));"

let test_c_execution_functions () =
  check_c_matches_interpreter
    "y = hyp(3, 4);\nfprintf('%g\\n', y);\n\
     [a, b] = div2(17);\nfprintf('%d %d\\n', a, b);\n\
     function r = hyp(p, q)\n  r = sqrt(p^2 + q^2);\nend\n\
     function [d, m] = div2(x)\n  d = floor(x / 2);\n  m = mod(x, 2);\nend"

let test_mpi_runtime_syntax_checks () =
  if Lazy.force Fuzz.cc_available then
    (* the fuzz oracle's scratch directory holds the library sources *)
    let src = Lazy.force Fuzz.rt_objects in
    Testutil.with_temp_dir (fun dir ->
        let cmd =
          Printf.sprintf
            "cd %s && cc -O1 -Wall -Wextra -Werror -I %s -c %s %s 2>cc.log"
            (Filename.quote dir) (Filename.quote src)
            (Filename.quote (Filename.concat src "otter_rt.c"))
            (Filename.quote (Filename.concat src "otter_mpi_shim.c"))
        in
        if Sys.command cmd <> 0 then
          Alcotest.failf "the run-time library does not build cleanly:\n%s"
            (Testutil.read_file (Filename.concat dir "cc.log")))

(* The shim's own failure paths: a bad process count is a usage error,
   and a failing rank ends the whole run with one diagnostic; [run_c]
   checks that no message directory is left behind either way. *)
let test_shim_bad_np () =
  if Lazy.force Fuzz.cc_available then
    Testutil.with_temp_dir (fun dir ->
        Testutil.build_c dir (emit "x = 1;\nfprintf('%g\\n', x);");
        List.iter
          (fun np ->
            let code, out = Testutil.run_c dir np in
            Alcotest.(check int) ("exit code, OTTER_NP=" ^ np) 2 code;
            if not (Testutil.contains out "OTTER_NP") then
              Alcotest.failf "OTTER_NP=%s: diagnostic does not name it: %s" np out)
          [ "0"; "65"; "4x"; "" ])

let test_shim_failing_rank () =
  if Lazy.force Fuzz.cc_available then
    Testutil.with_temp_dir (fun dir ->
        Testutil.build_c dir
          (emit "x = zeros(1, 4);\ny = x(7);\nfprintf('%g\\n', y);");
        let code, out = Testutil.run_c dir "2" in
        Alcotest.(check int) "exit code" 1 code;
        let errors =
          String.split_on_char '\n' out
          |> List.filter (String.starts_with ~prefix:"error:")
        in
        Alcotest.(check (list string)) "one diagnostic"
          [ "error: index out of bounds" ] errors;
        (* a rank that leaves mid-collective: its peers fail rather than
           hang, and a failing status becomes the run's *)
        List.iter
          (fun (leave, status) ->
            Testutil.build_c dir
              (Printf.sprintf
                 "#include <mpi.h>\n#include <stdlib.h>\n\
                  int main(int argc, char **argv) {\n\
                 \  int r; double x = 1, y;\n\
                 \  MPI_Init(&argc, &argv);\n\
                 \  MPI_Comm_rank(MPI_COMM_WORLD, &r);\n%s\n\
                 \  MPI_Allreduce(&x, &y, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);\n\
                 \  MPI_Finalize();\n  return 0;\n}\n" leave);
            Alcotest.(check int) leave status (fst (Testutil.run_c dir "4")))
          [
            ("  if (r == 2) exit(3);", 3);
            ("  if (r == 0) { MPI_Finalize(); return 0; }", 1);
          ])

let test_c_execution_concat_sections () =
  check_c_matches_interpreter
    "u = (1:4)';\nv = (5:8)';\nw = [u; v];\nfprintf('%g %g\\n', sum(w), w(6));\n     A = [u, v];\nfprintf('%g\\n', sum(sum(A)));\n     z = zeros(8, 1);\nz(2:5) = u;\nfprintf('%g\\n', sum(z));\n     B = zeros(3, 3);\nB(2, :) = 7;\nB(1:2, 1:2) = eye(2);\n     fprintf('%g\\n', sum(sum(B)));"

let test_c_execution_scans () =
  check_c_matches_interpreter
    "v = (1:10)';\nc = cumsum(v);\nfprintf('%g %g\\n', c(4), c(end));\n\
     p = cumprod((1:6)');\nfprintf('%g\\n', p(end));\n\
     w = [4; -1; 7; -1];\n[m, i] = min(w);\nfprintf('%g %d\\n', m, i);\n\
     [m2, i2] = max(w);\nfprintf('%g %d\\n', m2, i2);"

(* No element strictly beats the starting bound: all NaN gives (NaN, 1),
   all +Inf under min (-Inf under max) the first index, and an empty
   vector is an error at every P. *)
let test_c_execution_arg_reduction_edges () =
  check_c_matches_interpreter
    "v = zeros(1, 4) ./ zeros(1, 4);\n[m, i] = min(v);\n\
     fprintf('%d %d\\n', m ~= m, i);\n[m, i] = max(v);\n\
     fprintf('%d %d\\n', m ~= m, i);\nw = ones(1, 5) / 0;\n\
     [m, i] = min(w);\nfprintf('%g %d\\n', m, i);\n\
     [m, i] = max(-w);\nfprintf('%g %d\\n', m, i);";
  if Lazy.force Fuzz.cc_available then
    Testutil.with_temp_dir (fun dir ->
        Testutil.build_c dir (emit "[m, i] = min(zeros(1, 0));\ndisp(m);");
        List.iter
          (fun np ->
            let code, out = Testutil.run_c dir np in
            Alcotest.(check (pair int bool)) ("exit and error, P=" ^ np)
              (1, true)
              (code, Testutil.contains out "error: min/max of an empty vector"))
          [ "1"; "2"; "4" ])

let test_c_execution_sort_repmat () =
  check_c_matches_interpreter
    "v = [3; 1; 4; 1; 5];\n[s, i] = sort(v);\n\
     fprintf('%g %g %d %d\\n', s(1), s(end), i(1), i(end));\n\
     B = repmat([1, 2; 3, 4], 2, 3);\n\
     fprintf('%g %g\\n', sum(sum(B)), B(4, 6));"

let test_c_execution_apps () =
  (* every paper benchmark, small scale, exact output agreement *)
  List.iter
    (fun (app : Apps.Scripts.app) ->
      check_c_matches_interpreter (app.source 8))
    Apps.Scripts.apps

let suite =
  [
    t "paper-style library calls" test_paper_style_calls;
    t "owner guard emission" test_owner_guard_style;
    t "declarations" test_declarations;
    t "control flow" test_control_flow_c;
    t "function emission" test_function_emission;
    t "keyword mangling" test_keyword_mangling;
    t "string escaping" test_string_escaping;
    t "balanced braces on all apps" test_balanced_braces;
    t "support files" test_support_files_present;
    t "C execution: basics" test_c_execution_basics;
    t "C execution: control flow" test_c_execution_control_flow;
    t "C execution: matrix ops" test_c_execution_matrix_ops;
    t "C execution: functions" test_c_execution_functions;
    t "C execution: concat and sections" test_c_execution_concat_sections;
    t "C execution: scans and arg-reductions" test_c_execution_scans;
    t "C execution: sort and repmat" test_c_execution_sort_repmat;
    t "C execution: all four benchmarks" test_c_execution_apps;
    t "MPI run-time library compiles" test_mpi_runtime_syntax_checks;
    t "MPI shim: bad OTTER_NP" test_shim_bad_np;
    t "MPI shim: a failing rank" test_shim_failing_rank;
    t "C execution: arg-reductions with no finite winner"
      test_c_execution_arg_reduction_edges;
  ]
