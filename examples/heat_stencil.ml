(* A workload the paper's introduction motivates: a scientist's
   vectorized numerical model, here an explicit finite-difference
   solution of the 1-D heat equation.  The stencil is expressed with
   vector shifts, which the compiler turns into nearest-neighbour
   communication -- the classic data-parallel pattern.

     dune exec examples/heat_stencil.exe *)

let script ~n ~steps =
  Printf.sprintf
    {|%% explicit heat equation: u_t = alpha u_xx on a ring
n = %d;
steps = %d;
alpha = 0.4;
x = linspace(0, 2 * pi, n)';
u = sin(x) + 0.5 .* sin(3 .* x);
for s = 1:steps
  left = circshift(u, 1);
  right = circshift(u, -1);
  u = u + alpha .* (left - 2 .* u + right);
end
peak = max(abs(u));
energy = sum(u .* u);
fprintf('after %%d steps: peak=%%.6f energy=%%.6f\n', steps, peak, energy);
|}
    n steps

let () =
  let n = 40000 and steps = 60 in
  let c = Otter.compile (script ~n ~steps) in

  (* Physics sanity: heat diffuses, the peak amplitude decays. *)
  let o =
    Otter.outcome_exn
      (Otter.run
         (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:8
            ~capture:[ "peak"; "energy" ] ())
         c)
  in
  print_string o.Exec.State.output;

  (* The interpreter agrees with the 8-CPU run. *)
  let mm =
    Otter.verify_list
      (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:8
         ~capture:[ "u"; "peak"; "energy" ] ())
      c
  in
  Fmt.pr "verification: %s@." (if mm = [] then "OK" else "MISMATCH");

  (* Scaling study: neighbour exchange is O(1) per rank per step, so
     this scales much better than the ocean script on a low-latency
     network -- and still collapses on the Ethernet cluster. *)
  Fmt.pr "@.speedup over 1 CPU (modeled):@.";
  Fmt.pr "%6s %14s %20s %20s@." "CPUs" "Meiko CS-2" "Enterprise SMP"
    "SPARC-20 cluster";
  let times m =
    List.map
      (fun p ->
        if p <= m.Mpisim.Machine.max_procs then
          Some
            (Otter.outcome_exn
               (Otter.run (Otter.config ~machine:m ~nprocs:p ()) c))
              .Exec.State.report.Mpisim.Sim.makespan
        else None)
      [ 1; 2; 4; 8; 16 ]
  in
  let all_times = List.map times Mpisim.Machine.all in
  List.iteri
    (fun i p ->
      Fmt.pr "%6d" p;
      List.iter
        (fun ts ->
          match (List.nth ts i, List.nth ts 0) with
          | Some tp, Some t1 -> Fmt.pr " %19.1fx" (t1 /. tp)
          | _ -> Fmt.pr " %20s" "-")
        all_times;
      Fmt.pr "@.")
    [ 1; 2; 4; 8; 16 ]
