(* Benchmark harness: regenerates every table and figure of the paper.

   Usage:
     main.exe [table1|fig2|fig3|fig4|fig5|fig6|all|ablation|extrapolate|
               sensitivity|micro|bandwidth|speedup|chaos|throughput|scale]...
              [--scale PCT] [--full] [--out FILE] [--baseline FILE]

   --scale chooses the problem size as a percentage of the paper's
   (default 25%% so `dune exec bench/main.exe` finishes quickly);
   --full is --scale 100.  Shapes -- who wins, by what factor, where
   speedup flattens -- are preserved across scales; absolute times are
   modeled 1997 hardware, not this machine.  `micro` runs Bechamel
   wall-clock microbenchmarks of the compiler passes and run-time
   kernels on the host.  The gated modes (speedup, chaos, throughput,
   scale) write --out (default BENCH_<mode>.json); --baseline FILE runs
   at FILE's scale and exits 1 on a regression against it. *)

let machines = Mpisim.Machine.all
let proc_counts = [ 1; 2; 4; 8; 16 ]

type seq_baselines = { t_interp : float; t_matcom : float; t_otter1 : float }

let compile_app (app : Apps.Scripts.app) scale = Otter.compile (app.source scale)

(* Execute under one run configuration; raises on a failed run. *)
let run_outcome cfg c = Otter.outcome_exn (Otter.run cfg c)

let time_of cfg c =
  (run_outcome cfg c).Exec.State.report.Mpisim.Sim.makespan

let interp_time ~machine compiled =
  time_of (Otter.config ~engine:Otter.Config.Einterp ~machine ~nprocs:1 ()) compiled

let matcom_time ~machine compiled =
  time_of (Otter.config ~engine:Otter.Config.Ematcom ~machine ~nprocs:1 ()) compiled

let otter_time ~machine ~nprocs compiled =
  time_of (Otter.config ~machine ~nprocs ()) compiled

(* --- Figure 2: single-CPU relative performance ------------------------- *)

let fig2 scale =
  Printf.printf
    "Figure 2: relative performance on one UltraSPARC CPU (interpreter = \
     1.0)\n";
  Printf.printf "  problem scale: %d%% of paper sizes\n" scale;
  print_endline (String.make 72 '-');
  Printf.printf "%-22s %12s %12s %12s\n" "Application" "Interpreter" "MATCOM"
    "Otter";
  print_endline (String.make 72 '-');
  let machine = Mpisim.Machine.workstation in
  let wins = ref 0 in
  List.iter
    (fun (app : Apps.Scripts.app) ->
      let c = compile_app app scale in
      let b =
        {
          t_interp = interp_time ~machine c;
          t_matcom = matcom_time ~machine c;
          t_otter1 = otter_time ~machine ~nprocs:1 c;
        }
      in
      let rel t = b.t_interp /. t in
      if b.t_otter1 < b.t_matcom then incr wins;
      Printf.printf "%-22s %12.2f %12.2f %12.2f\n" app.name 1.0
        (rel b.t_matcom) (rel b.t_otter1))
    Apps.Scripts.apps;
  print_endline (String.make 72 '-');
  Printf.printf
    "Otter beats the interpreter on all 4 scripts and MATCOM on %d of 4\n\
     (paper: always faster than the interpreter; 2-2 split against MATCOM).\n\n"
    !wins

(* --- Figures 3-6: speedup on the three parallel architectures ---------- *)

let speedup_figure ~fig ~(app : Apps.Scripts.app) scale =
  Printf.printf
    "Figure %d: %s -- speedup over the MATLAB interpreter on 1 CPU\n" fig
    app.name;
  Printf.printf "  workload: %s; problem scale: %d%% of paper sizes\n"
    app.grain scale;
  print_endline (String.make 72 '-');
  Printf.printf "%6s" "CPUs";
  List.iter
    (fun (m : Mpisim.Machine.t) -> Printf.printf " %20s" m.name)
    machines;
  print_newline ();
  print_endline (String.make 72 '-');
  let c = compile_app app scale in
  let interp =
    List.map (fun m -> (m.Mpisim.Machine.name, interp_time ~machine:m c)) machines
  in
  List.iter
    (fun p ->
      Printf.printf "%6d" p;
      List.iter
        (fun (m : Mpisim.Machine.t) ->
          if p > m.max_procs then Printf.printf " %20s" "-"
          else begin
            let t = otter_time ~machine:m ~nprocs:p c in
            let ti = List.assoc m.name interp in
            Printf.printf " %20.1f" (ti /. t)
          end)
        machines;
      print_newline ())
    proc_counts;
  print_endline (String.make 72 '-');
  print_newline ()

let figure_of_app = [ ("cg", 3); ("ocean", 4); ("nbody", 5); ("tc", 6) ]

let fig_for key scale =
  match Apps.Scripts.find key with
  | Some app -> speedup_figure ~fig:(List.assoc key figure_of_app) ~app scale
  | None -> prerr_endline ("unknown app " ^ key)

(* --- ablations of design choices (DESIGN.md section 3) ------------------ *)

let ablation () =
  print_endline "Ablation 1: broadcast algorithm (binomial tree vs linear)";
  print_endline "  modeled time for a 16-CPU broadcast, microseconds";
  print_endline (String.make 72 '-');
  Printf.printf "%12s %22s %22s\n" "bytes" "Meiko CS-2" "SPARC-20 cluster";
  Printf.printf "%12s %11s %10s %11s %10s\n" "" "binomial" "linear" "binomial"
    "linear";
  print_endline (String.make 72 '-');
  let time_bcast machine algo words =
    let _, r =
      Mpisim.Sim.run ~machine ~nprocs:16 (fun _ ->
          let data = Array.make words 0. in
          ignore
            (match algo with
            | `Tree -> Mpisim.Coll.bcast ~root:0 data
            | `Linear -> Mpisim.Coll.bcast_linear ~root:0 data))
    in
    r.Mpisim.Sim.makespan *. 1e6
  in
  List.iter
    (fun words ->
      Printf.printf "%12d %11.1f %10.1f %11.1f %10.1f\n" (words * 8)
        (time_bcast Mpisim.Machine.meiko_cs2 `Tree words)
        (time_bcast Mpisim.Machine.meiko_cs2 `Linear words)
        (time_bcast Mpisim.Machine.sparc20_cluster `Tree words)
        (time_bcast Mpisim.Machine.sparc20_cluster `Linear words))
    [ 1; 64; 1024; 16384 ];
  print_endline (String.make 72 '-');
  print_newline ();

  print_endline
    "Ablation 2: transpose algorithm (pairwise exchange vs full gather)";
  print_endline "  modeled time for a 256x256 transpose, milliseconds";
  print_endline (String.make 72 '-');
  Printf.printf "%6s %15s %15s %12s\n" "CPUs" "pairwise" "full gather"
    "bytes ratio";
  print_endline (String.make 72 '-');
  List.iter
    (fun p ->
      let run algo =
        Mpisim.Sim.run ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:p (fun _ ->
            let m =
              Runtime.Dmat.init ~rows:256 ~cols:256 (fun g ->
                  float_of_int (g mod 91))
            in
            ignore
              (match algo with
              | `Pairwise -> Runtime.Ops.transpose m
              | `Gather -> Runtime.Ops.transpose_gather m))
      in
      let _, rp = run `Pairwise and _, rg = run `Gather in
      Printf.printf "%6d %15.3f %15.3f %11.1fx\n" p
        (rp.Mpisim.Sim.makespan *. 1e3)
        (rg.Mpisim.Sim.makespan *. 1e3)
        (float_of_int rg.Mpisim.Sim.bytes
        /. float_of_int (max 1 rp.Mpisim.Sim.bytes)))
    [ 2; 4; 8; 16 ];
  print_endline (String.make 72 '-');
  print_newline ();

  print_endline "Ablation 3: peephole optimization (paper pass 6) on CG";
  print_endline (String.make 72 '-');
  let src = Apps.Scripts.cg ~n:256 ~iters:30 () in
  let c_raw = Otter.compile ~opt:Spmd.Pass.O0 src in
  let c_opt = Otter.compile ~opt:Spmd.Pass.O1 src in
  let count (prog : Spmd.Ir.prog) =
    let n = ref 0 in
    Spmd.Ir.iter_insts (fun _ -> incr n) prog.Spmd.Ir.p_body;
    !n
  in
  let run (c : Otter.compiled) =
    let cfg = Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:8 () in
    (run_outcome cfg c).Exec.State.report
  in
  let r_raw = run c_raw and r_opt = run c_opt in
  Printf.printf "  instructions        : %4d -> %4d\n"
    (count c_raw.Otter.prog) (count c_opt.Otter.prog);
  print_endline (Otter.pass_table c_opt.Otter.passes);
  Printf.printf "  8-CPU modeled time  : %.4f s -> %.4f s (%.1f%% faster)\n"
    r_raw.Mpisim.Sim.makespan r_opt.Mpisim.Sim.makespan
    ((r_raw.Mpisim.Sim.makespan /. r_opt.Mpisim.Sim.makespan -. 1.) *. 100.);
  Printf.printf "  messages            : %d -> %d\n" r_raw.Mpisim.Sim.messages
    r_opt.Mpisim.Sim.messages;
  print_endline (String.make 72 '-');
  print_newline ();

  print_endline
    "Ablation 4: pricing each middle-end pass (cumulative pipelines)";
  print_endline "  executed run-time library calls on rank 0, meiko CS-2, P=8";
  print_endline (String.make 72 '-');
  let pipelines =
    [
      ("O0 (no passes)", []);
      ("+peephole", [ "peephole" ]);
      ("+licm", [ "peephole"; "licm" ]);
      ("+gre", [ "peephole"; "licm"; "gre" ]);
      ("+copyprop", [ "peephole"; "licm"; "gre"; "copyprop" ]);
      ( "+fold-construct",
        [ "peephole"; "licm"; "gre"; "copyprop"; "fold-construct" ] );
    ]
  in
  List.iter
    (fun (app, src) ->
      Printf.printf "  %s\n" app;
      Printf.printf "  %-18s %10s %14s %10s\n" "pipeline" "lib calls"
        "modeled time" "messages";
      List.iter
        (fun (pname, passes) ->
          let c = Otter.compile ~passes src in
          let o =
            run_outcome
              (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:8 ())
              c
          in
          Printf.printf "  %-18s %10d %12.4f s %10d\n" pname
            o.Exec.State.lib_calls o.Exec.State.report.Mpisim.Sim.makespan
            o.Exec.State.report.Mpisim.Sim.messages)
        pipelines)
    [
      ("Conjugate Gradient (n=64, 5 iters)", Apps.Scripts.cg ~n:64 ~iters:5 ());
      ( "Transitive Closure (n=32)",
        Apps.Scripts.transitive_closure ~n:32 () );
    ];
  print_endline (String.make 72 '-');
  print_newline ()

(* --- extrapolation: what would the results look like on a 1999 Beowulf? -- *)

let extrapolate scale =
  print_endline
    "Extrapolation: 16-node commodity Beowulf (1999) vs the paper's CS-2";
  Printf.printf "  speedup over the same machine's interpreter; scale %d%%\n"
    scale;
  print_endline (String.make 72 '-');
  Printf.printf "%-22s %10s %22s %22s\n" "Application" "CPUs" "Meiko CS-2"
    "Beowulf (1999)";
  print_endline (String.make 72 '-');
  List.iter
    (fun (app : Apps.Scripts.app) ->
      let c = compile_app app scale in
      List.iter
        (fun p ->
          Printf.printf "%-22s %10d" (if p = 4 then app.name else "") p;
          List.iter
            (fun m ->
              let ti = interp_time ~machine:m c in
              let t = otter_time ~machine:m ~nprocs:p c in
              Printf.printf " %22.1f" (ti /. t))
            [ Mpisim.Machine.meiko_cs2; Mpisim.Machine.beowulf ];
          print_newline ())
        [ 4; 16 ])
    Apps.Scripts.apps;
  print_endline (String.make 72 '-');
  print_endline
    "Five-times-faster CPUs raise the communication bar: the O(n) scripts\n\
     lose even more ground on the Beowulf, while O(n^3) work still scales.\n"

(* --- sensitivity: the paper's two determinants quantified ---------------- *)

(* The paper's summary names two determinants of speedup: the sizes of
   the matrices and the complexity of the operations performed on
   them.  This study varies each in isolation on the CS-2 model. *)
let sensitivity () =
  print_endline
    "Sensitivity 1: problem size (CG, 16 CPUs, speedup over 1 CPU)";
  print_endline (String.make 60 '-');
  Printf.printf "%10s %18s %18s\n" "n" "CG (O(n^2) grain)"
    "ocean (O(n) grain)";
  print_endline (String.make 60 '-');
  List.iter
    (fun pct ->
      let row key =
        match Apps.Scripts.find key with
        | Some app ->
            let c = compile_app app pct in
            let t1 = otter_time ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:1 c in
            let t16 =
              otter_time ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:16 c
            in
            t1 /. t16
        | None -> nan
      in
      Printf.printf "%9d%% %18.1f %18.1f\n" pct (row "cg") (row "ocean"))
    [ 5; 10; 25; 50; 100 ];
  print_endline (String.make 60 '-');
  print_newline ();

  print_endline
    "Sensitivity 2: network latency (16 CPUs, parallel speedup over 1 CPU,\n\
     CS-2 model with the latency overridden; scale 25%)";
  print_endline (String.make 60 '-');
  Printf.printf "%12s %12s %12s %12s\n" "latency" "cg" "nbody" "tc";
  print_endline (String.make 60 '-');
  List.iter
    (fun lat ->
      let machine =
        {
          Mpisim.Machine.meiko_cs2 with
          Mpisim.Machine.name = "CS-2 variant";
          link =
            (fun _ _ ->
              { Mpisim.Machine.latency = lat; bandwidth = 40e6; channel = None });
        }
      in
      Printf.printf "%9.0f us" (lat *. 1e6);
      List.iter
        (fun key ->
          match Apps.Scripts.find key with
          | Some app ->
              let c = compile_app app 25 in
              let t1 = otter_time ~machine ~nprocs:1 c in
              let t16 = otter_time ~machine ~nprocs:16 c in
              Printf.printf " %12.1f" (t1 /. t16)
          | None -> ())
        [ "cg"; "nbody"; "tc" ];
      print_newline ())
    [ 5e-6; 20e-6; 45e-6; 100e-6; 400e-6; 1600e-6 ];
  print_endline (String.make 60 '-');
  print_endline
    "Large matrices and O(n^2)/O(n^3) operations tolerate latency; the\n\
     O(n) script's speedup evaporates as latency grows -- the paper's\n\
     two determinants, isolated.\n"

(* --- Bechamel microbenchmarks ------------------------------------------ *)

let micro () =
  let open Bechamel in
  let cg_src = Apps.Scripts.cg ~n:64 ~iters:10 () in
  let parse = Test.make ~name:"pass1: scan+parse cg.m" (Staged.stage (fun () ->
      ignore (Mlang.Parser.parse_program cg_src)))
  in
  let front = Test.make ~name:"pass2-3: resolve+ssa+infer" (Staged.stage (fun () ->
      let ast = Analysis.Resolve.run (Mlang.Parser.parse_program cg_src) in
      ignore (Analysis.Infer.program ast)))
  in
  let full = Test.make ~name:"pass1-6: full compile" (Staged.stage (fun () ->
      ignore (Otter.compile cg_src)))
  in
  let emit =
    let c = Otter.compile cg_src in
    Test.make ~name:"pass7: emit C" (Staged.stage (fun () ->
        ignore (Codegen.emit_c c.Otter.prog)))
  in
  let sim_matmul = Test.make ~name:"runtime: 64x64 matmul on 4 simulated CPUs"
      (Staged.stage (fun () ->
        ignore
          (Mpisim.Sim.run ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:4 (fun _ ->
               let a = Runtime.Dmat.init ~rows:64 ~cols:64
                   (fun g -> float_of_int (g mod 17)) in
               ignore (Runtime.Ops.matmul a a)))))
  in
  let vm_cg = Test.make ~name:"vm: cg n=64 on 4 simulated CPUs"
      (let c = Otter.compile cg_src in
       let cfg = Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:4 () in
       Staged.stage (fun () -> ignore (Otter.run cfg c)))
  in
  let tests =
    Test.make_grouped ~name:"otter"
      [ parse; front; full; emit; sim_matmul; vm_cg ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances test
  in
  let results = benchmark tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock results in
  print_endline "Microbenchmarks (host wall clock, ns per run):";
  Hashtbl.iter
    (fun name result ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-44s %12.0f ns\n" name est
      | _ -> Printf.printf "  %-44s (no estimate)\n" name)
    results;
  print_newline ()

(* --- speedup benchmark: BENCH_speedup.json ------------------------------ *)

(* One row per (app, machine, CPUs, opt level): simulated wall clock,
   message count and bytes on the wire, plus the speedup over the same
   configuration at one CPU.  Everything is modeled, so the numbers are
   deterministic and fit for a committed regression baseline: modeled
   time may grow at most 10%, the message count not at all (one extra
   message means a comm-pass regression). *)
let speedup_rules =
  Baseline.[ ("app", Key); ("machine", Key); ("procs", Key); ("opt", Key);
             ("time", Time); ("messages", Count) ]

let speedup_machines =
  [
    ("meiko", Mpisim.Machine.meiko_cs2);
    ("smp", Mpisim.Machine.enterprise_smp);
    ("cluster", Mpisim.Machine.sparc20_cluster);
  ]

let speedup_rows scale : Baseline.row list =
  let acc = ref [] in
  List.iter
    (fun (app : Apps.Scripts.app) ->
      List.iter
        (fun (oname, opt) ->
          let c = Otter.compile ~opt (app.source scale) in
          List.iter
            (fun (mname, (m : Mpisim.Machine.t)) ->
              let t1 = ref nan in
              List.iter
                (fun p ->
                  if p <= m.max_procs then begin
                    let r =
                      (run_outcome (Otter.config ~machine:m ~nprocs:p ()) c)
                        .Exec.State.report
                    in
                    if p = 1 then t1 := r.Mpisim.Sim.makespan;
                    acc :=
                      Baseline.
                        [
                          ("app", Str app.key);
                          ("machine", Str mname);
                          ("procs", Int p);
                          ("opt", Str oname);
                          ("time", Float (r.Mpisim.Sim.makespan, 9));
                          ("messages", Int r.Mpisim.Sim.messages);
                          ("bytes", Int r.Mpisim.Sim.bytes);
                          ("speedup", Float (!t1 /. r.Mpisim.Sim.makespan, 6));
                        ]
                      :: !acc
                  end)
                proc_counts)
            speedup_machines)
        [ ("O1", Spmd.Pass.O1); ("O2", Spmd.Pass.O2) ])
    Apps.Scripts.all;
  List.rev !acc

let speedup_bench scale =
  Printf.printf
    "Speedup benchmark: %d apps x {O1, O2} x 3 machines x P in {1,2,4,8,16}\n"
    (List.length Apps.Scripts.all);
  Printf.printf "  problem scale: %d%% of paper sizes\n\n" scale;
  let rows = speedup_rows scale in
  let find app machine procs opt =
    Baseline.find rows
      Baseline.
        [
          ("app", Str app); ("machine", Str machine); ("procs", Int procs);
          ("opt", Str opt);
        ]
  in
  (* communication summary at P = 4 (message counts are machine
     independent; meiko is the reporting machine) *)
  Printf.printf "Communication at P = 4 (meiko): -O1 vs -O2\n";
  print_endline (String.make 72 '-');
  Printf.printf "%-10s %12s %12s %10s %12s\n" "App" "msgs O1" "msgs O2"
    "reduction" "time O2/O1";
  print_endline (String.make 72 '-');
  let improved = ref 0 in
  List.iter
    (fun (app : Apps.Scripts.app) ->
      match (find app.key "meiko" 4 "O1", find app.key "meiko" 4 "O2") with
      | Some e1, Some e2 ->
          let m1 = Baseline.int e1 "messages" in
          let m2 = Baseline.int e2 "messages" in
          if m2 < m1 then incr improved;
          Printf.printf "%-10s %12d %12d %9.1f%% %12.3f\n" app.key m1 m2
            (100. *. float_of_int (m1 - m2) /. float_of_int (max 1 m1))
            (Baseline.num e2 "time" /. Baseline.num e1 "time")
      | _ -> ())
    Apps.Scripts.all;
  print_endline (String.make 72 '-');
  Printf.printf "message count reduced on %d of %d apps at P=4 with -O2\n\n"
    !improved (List.length Apps.Scripts.all);
  (* speedup table at O2 *)
  (* the header names the engine and pass level so a table pasted into a
     report is self-describing *)
  Printf.printf
    "Simulated speedup, %s engine at -O2 (relative to 1 CPU, same machine)\n"
    (Otter.Config.engine_name (Otter.config ()).Otter.Config.engine);
  print_endline (String.make 72 '-');
  Printf.printf "%-10s %-9s" "App" "Machine";
  List.iter (fun p -> Printf.printf " %7d" p) proc_counts;
  print_newline ();
  print_endline (String.make 72 '-');
  List.iter
    (fun (app : Apps.Scripts.app) ->
      List.iter
        (fun (mname, (m : Mpisim.Machine.t)) ->
          Printf.printf "%-10s %-9s" app.key mname;
          List.iter
            (fun p ->
              if p > m.max_procs then Printf.printf " %7s" "-"
              else
                match find app.key mname p "O2" with
                | Some e -> Printf.printf " %7.2f" (Baseline.num e "speedup")
                | None -> Printf.printf " %7s" "?")
            proc_counts;
          print_newline ())
        speedup_machines)
    Apps.Scripts.all;
  print_endline (String.make 72 '-');
  print_newline ();
  ([ ("entries", rows) ], [])

(* --- chaos benchmark: BENCH_chaos.json ---------------------------------- *)

(* Sweep fault intensity — message loss, duplication, delay spikes,
   rank stalls, and permanent rank kills — over every app and machine
   at P = 4 with the reliable layer and checkpoint/restart enabled, and
   record how each configuration ends (its status), with the rollback,
   kill and retry counts and the simulated time of the final attempt:

     ok         completed bit-identically with no rollbacks
     recovered  completed bit-identically after N rollbacks
     aborted    typed abort (budget exhausted or unrecoverable class)
     mismatch   completed with a wrong answer — always a bug

   Everything is modeled and seeded, so the sweep is deterministic and
   the committed baseline is a regression gate: a point may keep or
   improve its class, never move later in ok < recovered < aborted <
   mismatch, and a mismatch fails the run even without a baseline. *)
let chaos_rules =
  Baseline.[ ("app", Key); ("machine", Key); ("intensity", Key);
             ("status", Class [ "ok"; "recovered"; "aborted"; "mismatch" ]) ]

(* Fault-spec templates; [span] is the fault-free makespan of the same
   configuration, so kill times and the detector deadline land mid-run
   on fast and slow machines alike. *)
let chaos_intensities =
  [
    ("none", fun _span -> "");
    ("low", fun span ->
      Printf.sprintf "drop=0.02,dup=0.01,delay=0.02,detect=%g,seed=101" span);
    ( "medium",
      fun span ->
        Printf.sprintf
          "drop=0.08,dup=0.04,delay=0.08,stall=0.03,detect=%g,seed=102" span );
    ( "high",
      fun span ->
        Printf.sprintf
          "drop=0.2,dup=0.12,delay=0.2,stall=0.08,detect=%g,seed=103" span );
    ( "kill",
      fun span ->
        Printf.sprintf "kill_rank=1,kill_time=%g,detect=%g,seed=104"
          (span *. 0.3)
          (Float.max 0.01 (span *. 0.05)) );
    ( "kill+loss",
      fun span ->
        Printf.sprintf
          "drop=0.05,dup=0.02,delay=0.05,kill_rank=2,kill_time=%g,detect=%g,\
           seed=105"
          (span *. 0.4)
          (Float.max 0.01 (span *. 0.05)) );
  ]

let chaos_nprocs = 4

let chaos_rows scale : Baseline.row list =
  let acc = ref [] in
  List.iter
    (fun (app : Apps.Scripts.app) ->
      let c = compile_app app scale in
      List.iter
        (fun (mname, (m : Mpisim.Machine.t)) ->
          let clean =
            run_outcome
              (Otter.config ~capture:app.capture ~machine:m
                 ~nprocs:chaos_nprocs ())
              c
          in
          let span = clean.Exec.State.report.Mpisim.Sim.makespan in
          List.iter
            (fun (iname, spec_of_span) ->
              let spec = spec_of_span span in
              let fm =
                if spec = "" then m
                else
                  match Mpisim.Machine.faults_of_spec spec with
                  | Ok f -> Mpisim.Machine.with_faults ~reliable:true ~faults:f m
                  | Error e -> failwith e
              in
              let rc =
                Otter.run
                  (Otter.config ~capture:app.capture
                     ~ckpt_interval:(Float.max 1e-6 (span *. 0.08))
                     ~max_recoveries:3 ~machine:fm ~nprocs:chaos_nprocs ())
                  c
              in
              let rollbacks = rc.Exec.State.r_attempts - 1 in
              let final_report =
                match List.rev rc.Exec.State.r_reports with
                | r :: _ -> r
                | [] -> clean.Exec.State.report
              in
              let total f =
                List.fold_left (fun n r -> n + f r) 0 rc.Exec.State.r_reports
              in
              let status =
                match rc.Exec.State.r_result with
                | Exec.State.Partial _ -> "aborted"
                | Exec.State.Complete out ->
                    let identical =
                      out.Exec.State.output = clean.Exec.State.output
                      && List.for_all
                           (fun (name, v) ->
                             match
                               List.assoc_opt name out.Exec.State.captures
                             with
                             | Some w -> Exec.State.captured_equal v w
                             | None -> false)
                           clean.Exec.State.captures
                    in
                    if not identical then "mismatch"
                    else if rollbacks > 0 then "recovered"
                    else "ok"
              in
              acc :=
                Baseline.
                  [
                    ("app", Str app.key);
                    ("machine", Str mname);
                    ("intensity", Str iname);
                    ("status", Str status);
                    ("rollbacks", Int rollbacks);
                    ("kills", Int (total (fun r -> r.Mpisim.Sim.kills)));
                    ("retries", Int (total (fun r -> r.Mpisim.Sim.retries)));
                    ("time", Float (final_report.Mpisim.Sim.makespan, 9));
                  ]
                :: !acc)
            chaos_intensities)
        speedup_machines)
    Apps.Scripts.apps;
  List.rev !acc

let chaos_bench scale =
  Printf.printf
    "Chaos sweep: 4 apps x 3 machines x %d fault intensities, P = %d,\n"
    (List.length chaos_intensities)
    chaos_nprocs;
  Printf.printf
    "  reliable layer + checkpoint/restart on (3 recoveries); scale %d%%\n\n"
    scale;
  let rows = chaos_rows scale in
  let width = 14 in
  Printf.printf "%-10s %-9s" "App" "Machine";
  List.iter
    (fun (iname, _) -> Printf.printf " %*s" width iname)
    chaos_intensities;
  print_newline ();
  print_endline (String.make (20 + ((width + 1) * List.length chaos_intensities)) '-');
  List.iter
    (fun (app : Apps.Scripts.app) ->
      List.iter
        (fun (mname, _) ->
          Printf.printf "%-10s %-9s" app.key mname;
          List.iter
            (fun (iname, _) ->
              match
                Baseline.find rows
                  Baseline.
                    [
                      ("app", Str app.key); ("machine", Str mname);
                      ("intensity", Str iname);
                    ]
              with
              | Some e ->
                  let cell =
                    match Baseline.str e "status" with
                    | "recovered" ->
                        Printf.sprintf "recovered:%d"
                          (Baseline.int e "rollbacks")
                    | s -> s
                  in
                  Printf.printf " %*s" width cell
              | None -> Printf.printf " %*s" width "?")
            chaos_intensities;
          print_newline ())
        speedup_machines)
    Apps.Scripts.apps;
  print_newline ();
  let count s =
    List.length (List.filter (fun e -> Baseline.str e "status" = s) rows)
  in
  Printf.printf
    "summary: %d ok, %d recovered, %d aborted, %d mismatched of %d points\n\n"
    (count "ok") (count "recovered") (count "aborted") (count "mismatch")
    (List.length rows);
  let mismatches = count "mismatch" in
  ( [ ("entries", rows) ],
    if mismatches = 0 then []
    else
      [
        Printf.sprintf
          "MISMATCH: %d configuration(s) computed a wrong answer under chaos"
          mismatches;
      ] )

(* --- throughput benchmark: BENCH_throughput.json ------------------------ *)

(* Multi-tenant throughput of the job scheduler: a fixed mix of jobs
   (two instances of every paper app, four ranks each) is space-shared
   across P ranks of the CS-2 model at P = 16 and, scaled out, P = 64.
   Reported per P (the "entries" section): jobs per simulated second;
   reported per job (the "jobs" section): its message count.
   Everything is modeled and seeded, so the committed baseline is a
   regression gate — throughput may not drop more than 10%, and no
   job's message count may rise at all. *)
let throughput_rules =
  Baseline.
    [ ("procs", Key); ("job", Key); ("throughput", Rate); ("messages", Count) ]

let throughput_procs = [ 16; 64 ]
let throughput_job_ranks = 4

let throughput_schedule scale procs =
  let machine =
    let m = Mpisim.Machine.meiko_cs2 in
    if procs > m.Mpisim.Machine.max_procs then
      Mpisim.Machine.with_procs procs m
    else m
  in
  let jobs =
    List.concat_map
      (fun (app : Apps.Scripts.app) ->
        let c = compile_app app scale in
        List.map
          (fun i ->
            {
              Otter.Sched.j_name = Printf.sprintf "%s[%d]" app.key i;
              j_procs = throughput_job_ranks;
              j_run =
                (fun ~nprocs ->
                  (run_outcome (Otter.config ~machine ~nprocs ()) c)
                    .Exec.State.report);
            })
          [ 0; 1 ])
      Apps.Scripts.apps
  in
  Otter.Sched.run ~machine ~procs jobs

let throughput_bench scale =
  Printf.printf
    "Throughput benchmark: 8-job mix (2 x each app, %d ranks each) on the \
     CS-2 model at P in {16, 64}\n"
    throughput_job_ranks;
  Printf.printf "  problem scale: %d%% of paper sizes\n\n" scale;
  let scheds =
    List.map
      (fun procs ->
        let s = throughput_schedule scale procs in
        Printf.printf "P = %d:\n%s\n" procs (Otter.Sched.table s);
        (procs, s))
      throughput_procs
  in
  let entries =
    List.map
      (fun (procs, (s : Otter.Sched.schedule)) ->
        Baseline.
          [
            ("procs", Int procs);
            ("jobs", Int (List.length s.s_placements));
            ("makespan", Float (s.s_makespan, 9));
            ("throughput", Float (s.s_throughput, 6));
          ])
      scheds
  in
  let jobs =
    List.concat_map
      (fun (procs, (s : Otter.Sched.schedule)) ->
        List.map
          (fun (p : Otter.Sched.placement) ->
            Baseline.
              [
                ("procs", Int procs);
                ("job", Str p.p_name);
                ("messages", Int p.p_report.Mpisim.Sim.messages);
              ])
          s.s_placements)
      scheds
  in
  ([ ("entries", entries); ("jobs", jobs) ], [])

(* --- scale benchmark: BENCH_scale.json ---------------------------------- *)

(* Large-P scaling of the simulator itself: every paper app on the
   parametric fat-tree at P = 32 .. 1024 virtual ranks, the 1998 trio
   oversubscribed (P virtual ranks block-mapped onto their real CPU
   counts; "cpus" is 0 when every rank has its own CPU), and the
   non-block distributions on a representative pair.  Modeled results
   (makespan, messages, bytes, scheduler picks) are deterministic, so
   the committed baseline is a regression gate: >10% modeled-time
   growth, or any increase in messages, bytes or scheduler picks, fails.
   Host wall clock and picks/second are recorded for the scaling story
   but never gated (they depend on the machine running the bench). *)
let scale_rules =
  Baseline.[ ("app", Key); ("machine", Key); ("procs", Key); ("cpus", Key);
             ("dist", Key); ("time", Time); ("messages", Count);
             ("bytes", Count); ("picks", Count) ]

let scale_fattree_procs = [ 32; 64; 128; 256; 512; 1024 ]
let scale_oversub_procs = [ 32; 64 ]

let scale_rows scale : Baseline.row list =
  let acc = ref [] in
  let record ~app ~mname ~procs ~cpus ~dist cfg c =
    let t0 = Unix.gettimeofday () in
    let r = (run_outcome cfg c).Exec.State.report in
    let wall = Unix.gettimeofday () -. t0 in
    acc :=
      Baseline.
        [
          ("app", Str app);
          ("machine", Str mname);
          ("procs", Int procs);
          ("cpus", Int cpus);
          ("dist", Str dist);
          ("time", Float (r.Mpisim.Sim.makespan, 9));
          ("messages", Int r.Mpisim.Sim.messages);
          ("bytes", Int r.Mpisim.Sim.bytes);
          ("picks", Int r.Mpisim.Sim.sched_picks);
          ("wall", Float (wall, 4));
        ]
      :: !acc
  in
  let fattree = Mpisim.Machine.fattree_default in
  (* every app across the fat-tree P sweep *)
  List.iter
    (fun (app : Apps.Scripts.app) ->
      let c = compile_app app scale in
      List.iter
        (fun procs ->
          record ~app:app.key ~mname:"fattree" ~procs ~cpus:0 ~dist:"block"
            (Otter.config ~machine:fattree ~nprocs:procs ())
            c)
        scale_fattree_procs)
    Apps.Scripts.apps;
  (* the 1998 trio, oversubscribed: P virtual ranks block-mapped onto
     each machine's real CPU count *)
  List.iter
    (fun (app : Apps.Scripts.app) ->
      let c = compile_app app scale in
      List.iter
        (fun (mname, (m : Mpisim.Machine.t)) ->
          let cpus = m.Mpisim.Machine.max_procs in
          let pm =
            Mpisim.Machine.with_placement ~cpus ~map:Mpisim.Machine.Map_block m
          in
          List.iter
            (fun procs ->
              record ~app:app.key ~mname ~procs ~cpus ~dist:"block"
                (Otter.config ~machine:pm ~nprocs:procs ())
                c)
            scale_oversub_procs)
        speedup_machines)
    Apps.Scripts.apps;
  (* non-block distributions on a representative pair (the 2-D grid leg
     rides on tc only: its dense matmul fallback on cg's n is too slow
     for a CI gate) *)
  List.iter
    (fun (key, dist, layout) ->
      match Apps.Scripts.find key with
      | None -> ()
      | Some app ->
          let c = compile_app app scale in
          record ~app:app.key ~mname:"fattree" ~procs:64 ~cpus:0 ~dist
            (Otter.config ~machine:fattree ~nprocs:64 ~layout ())
            c)
    [
      ("cg", "cyclic:4", Runtime.Dmat.Lcyclic 4);
      ("tc", "cyclic:4", Runtime.Dmat.Lcyclic 4);
      ("tc", "grid:8x8", Runtime.Dmat.Lgrid (8, 8));
    ];
  List.rev !acc

let scale_bench scale =
  Printf.printf
    "Scale benchmark: %d apps on the fat-tree at P in {%s},\n\
    \  the 1998 trio oversubscribed at P in {%s}, cyclic/grid layouts at \
     P=64\n"
    (List.length Apps.Scripts.apps)
    (String.concat "," (List.map string_of_int scale_fattree_procs))
    (String.concat "," (List.map string_of_int scale_oversub_procs));
  Printf.printf "  problem scale: %d%% of paper sizes\n\n" scale;
  let rows = scale_rows scale in
  Printf.printf "%-8s %-9s %6s %5s %-9s %12s %10s %9s %10s\n" "App" "Machine"
    "P" "CPUs" "dist" "modeled s" "messages" "wall s" "picks/s";
  print_endline (String.make 88 '-');
  List.iter
    (fun e ->
      let str = Baseline.str e and int = Baseline.int e in
      let wall = Baseline.num e "wall" in
      Printf.printf "%-8s %-9s %6d %5d %-9s %12.6f %10d %9.3f %10.0f\n"
        (str "app") (str "machine") (int "procs") (int "cpus") (str "dist")
        (Baseline.num e "time") (int "messages") wall
        (float_of_int (int "picks") /. Float.max 1e-9 wall))
    rows;
  print_endline (String.make 88 '-');
  print_newline ();
  ([ ("entries", rows) ], [])

(* --- bandwidth benchmark ------------------------------------------------- *)

(* MatlabMPI's first experiment: point-to-point bandwidth against
   message size.  One rank 0 <-> rank 1 pingpong per payload size; the
   round-trip cost is isolated by differencing against a zero-trip run
   of the same script, so matrix construction and the replicating
   broadcast are priced out.  Effective bandwidth must rise
   monotonically with message size on every machine model (fixed
   per-message latency amortizes away) — the bench exits nonzero if it
   does not. *)

let bandwidth_sizes = [ 4; 16; 64; 256 ]
let bandwidth_trips = 4

let bandwidth_src ~n ~trips =
  Printf.sprintf
    {|r = MPI_Comm_rank();
a = rand(%d, %d);
a = MPI_Bcast(0, a);
for k = 1:%d
  if r == 0
    MPI_Send(1, 1, a);
    a = MPI_Recv(1, 2);
  end
  if r == 1
    b = MPI_Recv(0, 1);
    MPI_Send(0, 2, b);
  end
end
|}
    n n trips

let bandwidth_point ~machine ~n =
  let report src =
    (run_outcome
       (Otter.config ~machine ~nprocs:2 ())
       (Otter.compile src))
      .Exec.State.report
  in
  let loaded = report (bandwidth_src ~n ~trips:bandwidth_trips) in
  let empty = report (bandwidth_src ~n ~trips:0) in
  let msgs = loaded.Mpisim.Sim.messages - empty.Mpisim.Sim.messages in
  let bytes = loaded.Mpisim.Sim.bytes - empty.Mpisim.Sim.bytes in
  let time = loaded.Mpisim.Sim.makespan -. empty.Mpisim.Sim.makespan in
  let msg_bytes = float_of_int bytes /. float_of_int (max 1 msgs) in
  (* one-way latency per message: total differenced time over the
     number of payload messages on the wire *)
  let one_way = time /. float_of_int (max 1 msgs) in
  (msg_bytes, msg_bytes /. one_way)

let bandwidth_bench () =
  Printf.printf
    "Bandwidth vs message size: rank 0 <-> rank 1 pingpong (differenced), \
     %d round trips per size\n\n"
    bandwidth_trips;
  Printf.printf "%-10s %14s" "machine" "payload bytes";
  List.iter (fun n -> Printf.printf " %10dx%-3d" n n) bandwidth_sizes;
  print_newline ();
  print_endline (String.make 76 '-');
  let ok = ref true in
  List.iter
    (fun (mname, machine) ->
      let points =
        List.map (fun n -> bandwidth_point ~machine ~n) bandwidth_sizes
      in
      Printf.printf "%-10s %14s" mname "MB/s";
      List.iter (fun (_, bw) -> Printf.printf " %14.2f" (bw /. 1e6)) points;
      print_newline ();
      let rec monotone = function
        | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && monotone rest
        | _ -> true
      in
      if not (monotone points) then begin
        ok := false;
        Printf.printf "  NOT MONOTONE on %s\n" mname
      end)
    speedup_machines;
  print_newline ();
  if !ok then
    print_endline
      "bandwidth rises monotonically with message size on every machine"
  else begin
    print_endline "bandwidth curve is not monotone; latency model regressed";
    exit 1
  end

(* --- driver -------------------------------------------------------------- *)

(* The gated modes.  Each sweeps its slice of the paper's grid, prints
   its table, and returns the sections of its document plus any failure
   it finds without a baseline; its rules say which fields identify a
   row and which are gated (see Baseline.gate). *)
let gated_modes =
  [
    ("speedup", (speedup_rules, speedup_bench));
    ("chaos", (chaos_rules, chaos_bench));
    ("throughput", (throughput_rules, throughput_bench));
    ("scale", (scale_rules, scale_bench));
  ]

let commands =
  [
    ("table1", fun _ -> Tables.print ());
    ("fig2", fig2);
    ("fig3", fig_for "cg");
    ("fig4", fig_for "ocean");
    ("fig5", fig_for "nbody");
    ("fig6", fig_for "tc");
    ( "all",
      fun scale ->
        Tables.print ();
        fig2 scale;
        List.iter (fun k -> fig_for k scale) [ "cg"; "ocean"; "nbody"; "tc" ]
    );
    ("ablation", fun _ -> ablation ());
    ("extrapolate", extrapolate);
    ("sensitivity", fun _ -> sensitivity ());
    ("micro", fun _ -> micro ());
    ("bandwidth", fun _ -> bandwidth_bench ());
  ]

let usage =
  Printf.sprintf
    "usage: main.exe [%s]...\n\
    \                [--scale PCT | --full] [--out FILE] [--baseline FILE]"
    (String.concat "|" (List.map fst commands @ List.map fst gated_modes))

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

(* Run gated mode [name]: write its document to [out] (default
   BENCH_<name>.json), gate it against [baseline] if given, and exit 1
   on any failure. *)
let run_gated ~scale ~out ~baseline name =
  let rules, sweep = List.assoc name gated_modes in
  let sections, failures = sweep scale in
  let doc = { Baseline.benchmark = name; scale; sections } in
  let out = Option.value out ~default:(Printf.sprintf "BENCH_%s.json" name) in
  Baseline.write out doc;
  Printf.printf "wrote %s (%d rows)\n" out (List.length (Baseline.rows doc));
  let failures =
    match baseline with
    | Some (_, b) -> failures @ Baseline.gate rules ~baseline:b doc
    | None -> failures
  in
  List.iter print_endline failures;
  if failures <> [] then exit 1;
  Option.iter
    (fun (file, _) ->
      Printf.printf "baseline check: no regression vs %s\n" file)
    baseline

let () =
  let scale = ref None and out = ref None and baseline = ref None in
  let cmds = ref [] in
  let is_value v = not (String.starts_with ~prefix:"--" v) in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
        scale := Some 100;
        parse rest
    | "--scale" :: v :: rest when is_value v ->
        (match int_of_string_opt v with
        | Some s when s > 0 -> scale := Some s
        | _ -> die "--scale wants a positive percentage, not '%s'\n%s" v usage);
        parse rest
    | "--out" :: v :: rest when is_value v ->
        out := Some v;
        parse rest
    | "--baseline" :: v :: rest when is_value v ->
        baseline := Some v;
        parse rest
    | (("--scale" | "--out" | "--baseline") as flag) :: _ ->
        die "%s needs a value\n%s" flag usage
    | cmd :: rest ->
        if not (List.mem_assoc cmd commands || List.mem_assoc cmd gated_modes)
        then die "unknown command '%s'\n%s" cmd usage;
        cmds := cmd :: !cmds;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cmds = match List.rev !cmds with [] -> [ "all" ] | l -> l in
  (* A baseline names its mode and fixes the scale: both are checked
     before anything runs. *)
  let baseline =
    Option.map
      (fun file ->
        match Baseline.read file with
        | Error msg -> die "cannot read baseline %s: %s" file msg
        | Ok b ->
            if Baseline.rows b = [] then die "baseline %s has no entries" file;
            List.iter
              (fun c ->
                if List.mem_assoc c gated_modes && c <> b.Baseline.benchmark
                then
                  die "baseline %s is a %s baseline; it cannot gate %s" file
                    b.benchmark c)
              cmds;
            (file, b))
      !baseline
  in
  let scale =
    match (!scale, baseline) with
    | Some s, Some (file, b) when s <> b.Baseline.scale ->
        die "baseline %s was recorded at scale %d%%, this run asks for %d%%"
          file b.scale s
    | Some s, _ -> s
    | None, Some (_, b) -> b.scale
    | None, None -> 25
  in
  List.iter
    (fun cmd ->
      match List.assoc_opt cmd commands with
      | Some run -> run scale
      | None -> run_gated ~scale ~out:!out ~baseline cmd)
    cmds
