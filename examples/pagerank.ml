(* PageRank by power iteration, written as a MATLAB script plus a
   user-defined M-file function -- exercising the identifier-resolution
   pass that pulls reachable M-files into the program (paper pass 2,
   with no inlining).

     dune exec examples/pagerank.exe *)

(* The "M-file on the path": column-normalize a nonnegative matrix. *)
let normalize_m =
  {|function B = colnorm(A)
  s = sum(A);
  s = s + (s == 0);
  n = size(A, 1);
  B = A ./ (ones(n, 1) * s);
end
|}

let script ~n ~iters =
  Printf.sprintf
    {|n = %d;
d = 0.85;
L = double(rand(n, n) < 0.05);
P = colnorm(L);
r = ones(n, 1) ./ n;
for it = 1:%d
  r = (1 - d) / n + d .* (P * r);
end
rsum = sum(r);
rmax = max(r);
fprintf('pagerank: n=%%d sum=%%.6f max=%%.6f\n', n, rsum, rmax);
|}
    n iters

let path name =
  if name = "colnorm" then
    match (Mlang.Parser.parse_program normalize_m).Mlang.Ast.funcs with
    | f :: _ -> Some f
    | [] -> None
  else None

let () =
  let c = Otter.compile ~path (script ~n:256 ~iters:40) in

  (* The resolved program now contains the pulled-in function. *)
  Fmt.pr "functions in the program after resolution: %s@."
    (String.concat ", "
       (List.map (fun f -> f.Mlang.Ast.fname) c.Otter.ast.Mlang.Ast.funcs));

  let o =
    Otter.outcome_exn
      (Otter.run
         (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:8
            ~capture:[ "r"; "rsum" ] ())
         c)
  in
  print_string o.Exec.State.output;

  let mm =
    Otter.verify_list
      (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:8
         ~capture:[ "r"; "rsum"; "rmax" ] ())
      c
  in
  Fmt.pr "verification: %s@." (if mm = [] then "OK" else "MISMATCH");

  (* Speedup on the three machines. *)
  Fmt.pr "@.modeled speedup over 1 CPU at 8 CPUs:@.";
  let makespan ~machine ~nprocs =
    (Otter.outcome_exn (Otter.run (Otter.config ~machine ~nprocs ()) c))
      .Exec.State.report.Mpisim.Sim.makespan
  in
  List.iter
    (fun (m : Mpisim.Machine.t) ->
      let t1 = makespan ~machine:m ~nprocs:1 in
      let t8 = makespan ~machine:m ~nprocs:8 in
      Fmt.pr "  %-22s %5.2fx@." m.name (t1 /. t8))
    Mpisim.Machine.all
