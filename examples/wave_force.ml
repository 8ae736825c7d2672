(* Ocean engineering scenario (the paper's second benchmark, used as a
   domain example): sweep sea-state intensities, computing the
   Morrison-equation wave force on a submerged sphere for each, and
   compare how the three parallel machines of the paper handle this
   small-grain O(n) workload.

     dune exec examples/wave_force.exe *)

let script ~n ~amp0 =
  Printf.sprintf
    {|n = %d;
g = 9.81;
rho = 1025;
D = 2.0;
Cm = 2.0;
Cd = 1.0;
Asec = pi * (D / 2)^2;
V = (4 / 3) * pi * (D / 2)^3;
t = linspace(0, 600, n);
dt = t(2) - t(1);
omega = (0.2:0.2:1.0)';
amp = %g .* (1.2:-0.2:0.4)';
phase = omega * t;
eta = amp' * cos(phase);
u = (g / 20) .* eta;
up = circshift(u, -1);
um = circshift(u, 1);
dudt = (up - um) ./ (2 * dt);
F = rho * Cm * V .* dudt + 0.5 * rho * Cd * Asec .* u .* abs(u);
impulse = trapz(t, F);
Fmax = max(abs(F));
|}
    n amp0

let () =
  let n = 8000 in
  Fmt.pr "Morrison-equation wave force on a submerged sphere (n = %d samples)@."
    n;
  Fmt.pr "%8s %14s %14s@." "seastate" "impulse" "max force";
  List.iter
    (fun amp0 ->
      let c = Otter.compile (script ~n ~amp0) in
      let o =
        Otter.outcome_exn
          (Otter.run
             (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:8
                ~capture:[ "impulse"; "Fmax" ] ())
             c)
      in
      let get name =
        match List.assoc name o.Exec.State.captures with
        | Exec.State.Cscalar f -> f
        | Exec.State.Cmat _ | Exec.State.Cnd _ -> nan
      in
      Fmt.pr "%8.2f %14.4e %14.4e@." amp0 (get "impulse") (get "Fmax"))
    [ 0.25; 0.5; 1.0; 1.5; 2.0 ];

  (* Why this workload resists parallel speedup (paper, Figure 4): the
     operations are O(n) with small grain, so communication dominates. *)
  Fmt.pr "@.machine comparison at sea state 1.0 (speedup over 1 CPU):@.";
  let c = Otter.compile (script ~n ~amp0:1.0) in
  let makespan ~machine ~nprocs =
    (Otter.outcome_exn (Otter.run (Otter.config ~machine ~nprocs ()) c))
      .Exec.State.report.Mpisim.Sim.makespan
  in
  List.iter
    (fun (m : Mpisim.Machine.t) ->
      let t1 = makespan ~machine:m ~nprocs:1 in
      Fmt.pr "  %-22s" m.name;
      List.iter
        (fun p ->
          if p <= m.max_procs then
            let tp = makespan ~machine:m ~nprocs:p in
            Fmt.pr "  P=%-2d %5.2fx" p (t1 /. tp))
        [ 2; 4; 8; 16 ];
      Fmt.pr "@.")
    Mpisim.Machine.all
