(* External file input, the paper's section-3 feature: "If the user's
   program initializes a variable through external file input, a sample
   data file must be present, so that the compiler can determine the
   type of the variable as well as its rank."

   This example writes a field-measurement file (wave-buoy heave
   samples), compiles a MATLAB script that loads and analyzes it --
   the sample file drives shape inference at compile time -- and runs
   the compiled program on the simulated cluster.

     dune exec examples/field_data.exe *)

let script =
  {|% analyze buoy heave records: one column per sensor
H = load('buoy.txt');
[nsamp, nsensors] = size(H);
means = mean(H);
peaks = max(abs(H));
% significant wave height proxy from the first sensor
h1 = H(:, 1);
s = sort(h1);
p90 = s(ceil(0.9 * nsamp));
rms1 = sqrt(mean(h1 .* h1));
fprintf('%d samples x %d sensors\n', nsamp, nsensors);
fprintf('sensor-1: rms=%.4f p90=%.4f peak=%.4f\n', rms1, p90, peaks(1));
fprintf('fleet mean of means: %.6f\n', mean(means));
|}

let () =
  (* synthesize the measurement file: 3 sensors, wave-like signals *)
  let dir = Filename.temp_file "buoy" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "buoy.txt") in
  let nsamp = 2000 in
  for i = 0 to nsamp - 1 do
    let t = float_of_int i /. 10. in
    Printf.fprintf oc "%.6f %.6f %.6f\n"
      (1.3 *. sin (0.5 *. t) +. 0.4 *. sin (1.7 *. t))
      (1.1 *. sin (0.48 *. t +. 0.6))
      (0.9 *. cos (0.53 *. t) +. 0.2 *. sin (2.9 *. t));
  done;
  close_out oc;

  (* the sample file doubles as the real input here; a production run
     would compile against a small sample and load the full data *)
  let c = Otter.compile ~datadir:dir script in
  Fmt.pr "inferred from the sample file:@.";
  List.iter
    (fun v ->
      Fmt.pr "  %-8s : %a@." v Analysis.Ty.pp
        (Analysis.Infer.var_type c.Otter.info v))
    [ "H"; "h1"; "means" ];

  Fmt.pr "@.=== 8 CPUs of the simulated SPARC-20 cluster ===@.";
  let o =
    Otter.outcome_exn
      (Otter.run
         (Otter.config ~datadir:dir ~machine:Mpisim.Machine.sparc20_cluster
            ~nprocs:8 ())
         c)
  in
  print_string o.Exec.State.output;

  let oi =
    Otter.outcome_exn
      (Otter.run
         (Otter.config ~datadir:dir ~engine:Otter.Config.Einterp
            ~machine:Mpisim.Machine.workstation ())
         c)
  in
  Fmt.pr "@.interpreter agrees: %b@."
    (String.equal oi.Exec.State.output o.Exec.State.output);

  Sys.remove (Filename.concat dir "buoy.txt");
  Sys.rmdir dir
