(* Quickstart: compile a MATLAB script, look at what the compiler did,
   run it on a simulated parallel machine, and cross-check the answer
   against the reference interpreter.

     dune exec examples/quickstart.exe *)

let script =
  {|% power iteration on a random SPD matrix
n = 64;
A = rand(n, n);
A = A + A' + n * eye(n);
v = ones(n, 1);
v = v ./ norm(v);
lambda = 0;
for it = 1:30
  w = A * v;
  lambda = v' * w;
  v = w ./ norm(w);
end
fprintf('dominant eigenvalue ~ %.6f\n', lambda);
|}

let () =
  (* 1. Compile (scan/parse, resolve, SSA + type inference, expression
        rewriting, owner guards, peephole). *)
  let c = Otter.compile script in
  Fmt.pr "=== inferred types ===@.";
  let vars =
    Hashtbl.fold (fun v t acc -> (v, t) :: acc) c.Otter.info.Analysis.Infer.var_ty []
  in
  List.iter
    (fun (v, t) -> Fmt.pr "  %-8s : %a@." v Analysis.Ty.pp t)
    (List.sort compare vars);

  (* 2. The SPMD IR: communication lifted to run-time calls, the rest
        fused into local loops. *)
  Fmt.pr "@.=== SPMD IR (first lines) ===@.";
  String.split_on_char '\n' (Otter.dump_ir c)
  |> List.filteri (fun i _ -> i < 18)
  |> List.iter print_endline;

  (* 3. Generated C, as the paper's pass 7 emits it. *)
  Fmt.pr "@.=== generated C (excerpt) ===@.";
  String.split_on_char '\n' (Codegen.emit_c c.Otter.prog)
  |> List.filteri (fun i _ -> i > 4 && i < 26)
  |> List.iter print_endline;

  (* 4. Run on 8 CPUs of the simulated Meiko CS-2. *)
  Fmt.pr "@.=== execution on 8 simulated CPUs ===@.";
  let cfg = Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:8 () in
  let o = Otter.outcome_exn (Otter.run cfg c) in
  print_string o.Exec.State.output;
  Fmt.pr "modeled time: %.4f ms, %d messages@."
    (o.Exec.State.report.Mpisim.Sim.makespan *. 1e3)
    o.Exec.State.report.Mpisim.Sim.messages;

  (* 5. The interpreter must agree. *)
  let mm =
    Otter.verify_list { cfg with Otter.Config.capture = [ "lambda"; "v" ] } c
  in
  Fmt.pr "verification against the interpreter: %s@."
    (if mm = [] then "OK" else "MISMATCH")
