(* Benchmark harness: regenerates every table and figure of the paper.

   Usage:
     main.exe [table1|ablation|sensitivity|bandwidth|paper|chaos|
               throughput|scale]...
              [--scale PCT] [--full] [--out FILE] [--baseline FILE]

   With no command it runs `table1 paper`.  --scale chooses the problem
   size as a percentage of the paper's (default 25%% so `dune exec
   bench/main.exe` finishes quickly); --full is --scale 100.  Shapes --
   who wins, by what factor, where speedup flattens -- are preserved
   across scales; absolute times are modeled 1997 hardware, not this
   machine.  The gated modes (paper, chaos, throughput, scale) write
   --out (default BENCH_<mode>.json); --baseline FILE runs at FILE's
   scale and exits 1 on a regression against it. *)

let proc_counts = [ 1; 2; 4; 8; 16 ]

(* The paper's three parallel machines, under the names the baselines
   use. *)
let machines =
  [
    ("meiko", Mpisim.Machine.meiko_cs2);
    ("smp", Mpisim.Machine.enterprise_smp);
    ("cluster", Mpisim.Machine.sparc20_cluster);
  ]

let compile_app (app : Apps.Scripts.app) scale = Otter.compile (app.source scale)

(* Execute under one run configuration; raises on a failed run. *)
let run_outcome cfg c = Otter.outcome_exn (Otter.run cfg c)

let time_of cfg c =
  (run_outcome cfg c).Exec.State.report.Mpisim.Sim.makespan

let otter_time ~machine ~nprocs compiled =
  time_of (Otter.config ~machine ~nprocs ()) compiled

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

(* --- the paper's evaluation: BENCH_paper.json ----------------------------- *)

(* Figures 2-6 and the Beowulf extrapolation are views of one sweep.
   The "entries" section holds one row per (app, machine, CPUs, opt
   level): simulated wall clock, message count, bytes on the wire and
   the speedup over the same configuration at one CPU.  The
   "sequential" section holds one row per (paper app, machine,
   engine): the interpreter's modeled time on every machine, and
   MATCOM's on the workstation, which only Figure 2 uses.  Everything
   is modeled, so the numbers are deterministic and fit for a committed
   regression baseline: modeled time may grow at most 10%, the message
   count not at all (one extra message means a comm-pass regression). *)
let paper_rules =
  Baseline.[ ("app", Key); ("machine", Key); ("procs", Key); ("opt", Key);
             ("engine", Key); ("time", Time); ("messages", Count) ]

(* The parallel machines plus Figure 2's one-CPU workstation and the
   extrapolation's 1999 Beowulf. *)
let paper_machines =
  ("workstation", Mpisim.Machine.workstation)
  :: ("beowulf", Mpisim.Machine.beowulf)
  :: machines

let opts = [ ("O1", Spmd.Pass.O1); ("O2", Spmd.Pass.O2) ]

let entry_rows scale : Baseline.row list =
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
            paper_machines)
        opts)
    Apps.Scripts.all;
  List.rev !acc

let sequential_rows scale : Baseline.row list =
  List.concat_map
    (fun (app : Apps.Scripts.app) ->
      let c = compile_app app scale in
      List.concat_map
        (fun (mname, machine) ->
          List.map
            (fun engine ->
              let cfg = Otter.config ~engine ~machine ~nprocs:1 () in
              Baseline.
                [
                  ("app", Str app.key);
                  ("machine", Str mname);
                  ("engine", Str (Otter.Config.engine_name engine));
                  ("time", Float (time_of cfg c, 9));
                ])
            (if mname = "workstation" then Otter.Config.[ Einterp; Ematcom ]
             else [ Otter.Config.Einterp ]))
        paper_machines)
    Apps.Scripts.apps

let entry_key app machine procs opt =
  Baseline.
    [
      ("app", Str app); ("machine", Str machine); ("procs", Int procs);
      ("opt", Str opt);
    ]

(* Modeled times read from the paper's rows (both sections in one
   list): a missing row reads nan, which prints as "-". *)
let time_at rows key =
  match Baseline.find rows key with
  | Some e -> Baseline.num e "time"
  | None -> nan

let otter rows app machine procs opt =
  time_at rows (entry_key app machine procs opt)

let sequential rows app machine engine =
  time_at rows
    Baseline.[ ("app", Str app); ("machine", Str machine); ("engine", Str engine) ]

(* Speedup over the same machine's interpreter on one CPU. *)
let over rows app machine procs opt =
  sequential rows app machine "interp" /. otter rows app machine procs opt

let rule () = print_endline (String.make 72 '-')

let cell width decimals v =
  if Float.is_nan v then Printf.printf " %*s" width "-"
  else Printf.printf " %*.*f" width decimals v

(* A header of machine names over one O1 and one O2 column each. *)
let opt_header left names =
  rule ();
  print_string (String.make (String.length left) ' ');
  List.iter (Printf.printf " %21s") names;
  Printf.printf "\n%s" left;
  List.iter (fun _ -> Printf.printf " %10s %10s" "O1" "O2") names;
  print_newline ();
  rule ()

(* One table line's cells: [key]'s speedup on P CPUs of each machine
   at O1 and at O2. *)
let speedup_cells rows key mnames p =
  List.iter
    (fun m -> List.iter (fun (o, _) -> cell 10 1 (over rows key m p o)) opts)
    mnames;
  print_newline ()

(* Figure 2, Figures 3-6 and the Beowulf extrapolation. *)
let print_figures rows =
  print_endline
    "Figure 2: relative performance on one UltraSPARC CPU (interpreter = 1.0)";
  rule ();
  Printf.printf "%-22s %11s %11s %11s %11s\n" "Application" "Interpreter"
    "MATCOM" "Otter O1" "Otter O2";
  rule ();
  List.iter
    (fun (app : Apps.Scripts.app) ->
      let ti = sequential rows app.key "workstation" "interp" in
      Printf.printf "%-22s %11.2f %11.2f" app.name 1.0
        (ti /. sequential rows app.key "workstation" "matcom");
      List.iter (fun (o, _) -> cell 11 2 (over rows app.key "workstation" 1 o)) opts;
      print_newline ())
    Apps.Scripts.apps;
  rule ();
  print_newline ();
  List.iteri
    (fun i (app : Apps.Scripts.app) ->
      Printf.printf
        "Figure %d: %s -- speedup over the MATLAB interpreter on 1 CPU\n"
        (i + 3) app.name;
      Printf.printf "  workload: %s\n" app.grain;
      opt_header "  CPUs"
        (List.map (fun (_, (m : Mpisim.Machine.t)) -> m.name) machines);
      List.iter
        (fun p ->
          Printf.printf "%6d" p;
          speedup_cells rows app.key (List.map fst machines) p)
        proc_counts;
      rule ();
      print_newline ())
    Apps.Scripts.apps;
  print_endline
    "Extrapolation: 16-node commodity Beowulf (1999) vs the paper's CS-2";
  print_endline "  speedup over the same machine's interpreter on 1 CPU";
  opt_header (Printf.sprintf "%-22s %5s" "Application" "CPUs")
    [ "Meiko CS-2"; "Beowulf (1999)" ];
  List.iter
    (fun (app : Apps.Scripts.app) ->
      List.iter
        (fun p ->
          Printf.printf "%-22s %5d" (if p = 4 then app.name else "") p;
          speedup_cells rows app.key [ "meiko"; "beowulf" ] p)
        [ 4; 16 ])
    Apps.Scripts.apps;
  rule ();
  print_newline ()

(* EXPERIMENTS.md's shape claims, on the paper's own pipeline (-O1).
   They are reported, not gated: a claim that fails is a deviation to
   record, not a number to tune. *)
let print_shape_claims rows =
  let o1 app machine procs = over rows app machine procs "O1" in
  let keys = List.map (fun (a : Apps.Scripts.app) -> a.key) Apps.Scripts.apps in
  let one_cpu = List.map (fun k -> o1 k "workstation" 1) keys in
  let beats_matcom =
    List.filter
      (fun k ->
        otter rows k "workstation" 1 "O1" < sequential rows k "workstation" "matcom")
      keys
  in
  let ocean_peak =
    List.fold_left
      (fun best p ->
        if o1 "ocean" "meiko" p > o1 "ocean" "meiko" best then p else best)
      1 proc_counts
  in
  let cluster_gains =
    List.filter
      (fun k ->
        Float.max (o1 k "cluster" 8) (o1 k "cluster" 16) >= o1 k "cluster" 4)
      keys
  in
  let claims =
    [
      ( "Otter beats the interpreter on all four apps",
        List.for_all (fun s -> s > 1.) one_cpu,
        Printf.sprintf "%.2f-%.2fx on one CPU"
          (List.fold_left Float.min infinity one_cpu)
          (List.fold_left Float.max 0. one_cpu) );
      ( "the MATCOM split is 2-2",
        List.length beats_matcom = 2,
        "Otter faster on " ^ String.concat ", " beats_matcom );
      ( "TC on 16 CS-2 CPUs is within 15% of 78x",
        Float.abs ((o1 "tc" "meiko" 16 /. 78.) -. 1.) <= 0.15,
        Printf.sprintf "%.1fx" (o1 "tc" "meiko" 16) );
      ( "CG on 16 CS-2 CPUs is within 15% of 50x",
        Float.abs ((o1 "cg" "meiko" 16 /. 50.) -. 1.) <= 0.15,
        Printf.sprintf "%.1fx" (o1 "cg" "meiko" 16) );
      ( "ocean peaks at 4 or fewer CS-2 CPUs",
        ocean_peak <= 4,
        Printf.sprintf "peak at %d" ocean_peak );
      ( "n-body's 16-CPU CS-2 speedup is below CG's",
        o1 "nbody" "meiko" 16 < o1 "cg" "meiko" 16,
        Printf.sprintf "%.1fx vs %.1fx" (o1 "nbody" "meiko" 16)
          (o1 "cg" "meiko" 16) );
      ( "the cluster loses speedup past 4 CPUs",
        cluster_gains = [],
        if cluster_gains = [] then "on all four apps"
        else "gains past 4 on " ^ String.concat ", " cluster_gains );
    ]
  in
  print_endline "Shape claims (EXPERIMENTS.md) at -O1, the paper's pipeline:";
  List.iter
    (fun (claim, holds, detail) ->
      Printf.printf "  %-9s  %s (%s)\n"
        (if holds then "holds" else "DEVIATION")
        claim detail)
    claims;
  print_newline ()

let paper_bench scale =
  Printf.printf
    "The paper's evaluation: %d apps x {O1, O2} x %d machines x P in \
     {1,2,4,8,16}\n"
    (List.length Apps.Scripts.all)
    (List.length paper_machines);
  Printf.printf "  problem scale: %d%% of paper sizes\n\n" scale;
  let entries = entry_rows scale and seq_rows = sequential_rows scale in
  let rows = entries @ seq_rows in
  print_figures rows;
  (* communication summary at P = 4 (message counts are machine
     independent; meiko is the reporting machine) *)
  Printf.printf "Communication at P = 4 (meiko): -O1 vs -O2\n";
  rule ();
  Printf.printf "%-10s %12s %12s %10s %12s\n" "App" "msgs O1" "msgs O2"
    "reduction" "time O2/O1";
  rule ();
  let improved = ref 0 in
  List.iter
    (fun (app : Apps.Scripts.app) ->
      let entry opt = Baseline.find entries (entry_key app.key "meiko" 4 opt) in
      match (entry "O1", entry "O2") with
      | Some e1, Some e2 ->
          let m1 = Baseline.int e1 "messages" in
          let m2 = Baseline.int e2 "messages" in
          if m2 < m1 then incr improved;
          Printf.printf "%-10s %12d %12d %9.1f%% %12.3f\n" app.key m1 m2
            (100. *. float_of_int (m1 - m2) /. float_of_int (max 1 m1))
            (Baseline.num e2 "time" /. Baseline.num e1 "time")
      | _ -> ())
    Apps.Scripts.all;
  rule ();
  Printf.printf "message count reduced on %d of %d apps at P=4 with -O2\n\n"
    !improved (List.length Apps.Scripts.all);
  print_shape_claims rows;
  ([ ("entries", entries); ("sequential", seq_rows) ], [])

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
        machines)
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
        machines)
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
        machines)
    Apps.Scripts.apps;
  (* the block-cyclic distribution on a representative pair *)
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
    ];
  List.rev !acc

let scale_bench scale =
  Printf.printf
    "Scale benchmark: %d apps on the fat-tree at P in {%s},\n\
    \  the 1998 trio oversubscribed at P in {%s}, cyclic layouts at P=64\n"
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
    machines;
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
    ("paper", (paper_rules, paper_bench));
    ("chaos", (chaos_rules, chaos_bench));
    ("throughput", (throughput_rules, throughput_bench));
    ("scale", (scale_rules, scale_bench));
  ]

let commands =
  [
    ("table1", fun _ -> Tables.print ());
    ("ablation", fun _ -> ablation ());
    ("sensitivity", fun _ -> sensitivity ());
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
  let cmds = match List.rev !cmds with [] -> [ "table1"; "paper" ] | l -> l in
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
