(* Benchmark-application tests: each of the paper's four applications
   verifies across back ends and processor counts, and the performance
   model reproduces the paper's qualitative results. *)

let t name f = Alcotest.test_case name `Quick f

(* Run on 4 CPUs of the default machine and return the outcome. *)
let run4 ~capture c =
  Otter.outcome_exn
    (Otter.run
       (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:4 ~capture ())
       c)

(* Modeled time of [c] on [machine] under [engine] with [nprocs] ranks. *)
let engine_time ~engine ~machine ~nprocs c =
  (Otter.outcome_exn (Otter.run (Otter.config ~engine ~machine ~nprocs ()) c))
    .Exec.State.report
    .Mpisim.Sim.makespan

let verify_app ?(machine = Mpisim.Machine.meiko_cs2) key ~scale ~nprocs =
  let app = Option.get (Apps.Scripts.find key) in
  let c = Otter.compile (app.source scale) in
  let mm =
    Otter.verify_list
      (Otter.config ~tol:1e-6 ~machine ~nprocs ~capture:app.capture ())
      c
  in
  if mm <> [] then
    Alcotest.failf "%s %s P=%d: %s" key machine.Mpisim.Machine.name nprocs
      (String.concat "; "
         (List.map (fun m -> m.Otter.variable ^ ": " ^ m.Otter.detail) mm))

let test_verify key () = List.iter (fun p -> verify_app key ~scale:8 ~nprocs:p) [ 1; 3; 8; 16 ]

(* The rank-N applications verify against the interpreter at
   P in {1,2,4,8} on all three machine models. *)
let test_verify_tensor key () =
  List.iter
    (fun machine ->
      List.iter
        (fun p -> verify_app ~machine key ~scale:8 ~nprocs:p)
        [ 1; 2; 4; 8 ])
    [
      Mpisim.Machine.meiko_cs2;
      Mpisim.Machine.enterprise_smp;
      Mpisim.Machine.sparc20_cluster;
    ]

let times key ~scale ~machine =
  let app = Option.get (Apps.Scripts.find key) in
  let c = Otter.compile (app.source scale) in
  let ti = engine_time ~engine:Otter.Config.Einterp ~machine ~nprocs:1 c in
  let tp p = engine_time ~engine:Otter.Config.Etcode ~machine ~nprocs:p c in
  (ti, tp)

let test_cg_converges () =
  let src = Apps.Scripts.cg ~n:32 ~iters:40 () in
  let c = Otter.compile src in
  let o = run4 ~capture:[ "resid" ] c in
  match List.assoc "resid" o.Exec.State.captures with
  | Exec.State.Cscalar r ->
      Alcotest.(check bool) "residual small" true (r < 1e-8)
  | _ -> Alcotest.fail "resid not scalar"

let test_tc_closure_properties () =
  (* The closure matrix must be reflexive and monotone wrt the input. *)
  let src = Apps.Scripts.transitive_closure ~n:24 ~density:0.05 () in
  let c = Otter.compile src in
  let o = run4 ~capture:[ "B"; "reach" ] c in
  let _, _, b =
    match List.assoc "B" o.Exec.State.captures with
    | Exec.State.Cmat (r, cc, d) -> (r, cc, d)
    | _ -> Alcotest.fail "B not matrix"
  in
  let n = 24 in
  for i = 0 to n - 1 do
    Testutil.check_close "reflexive" 1. b.((i * n) + i)
  done;
  Array.iter
    (fun x ->
      Alcotest.(check bool) "boolean" true (x = 0. || x = 1.))
    b;
  match List.assoc "reach" o.Exec.State.captures with
  | Exec.State.Cscalar r ->
      Alcotest.(check bool) "at least the diagonal" true (r >= float_of_int n)
  | _ -> Alcotest.fail "reach not scalar"

let test_nbody_physics () =
  (* momentum-free start: center of mass barely drifts; energy finite *)
  let src = Apps.Scripts.nbody ~n:200 ~steps:10 () in
  let c = Otter.compile src in
  let o = run4 ~capture:[ "mx"; "ke" ] c in
  let get n =
    match List.assoc n o.Exec.State.captures with
    | Exec.State.Cscalar f -> f
    | _ -> nan
  in
  Alcotest.(check bool) "mean position sane" true
    (get "mx" > 0.3 && get "mx" < 0.7);
  Alcotest.(check bool) "kinetic energy positive and finite" true
    (get "ke" > 0. && Float.is_finite (get "ke"))

let test_ocean_signal () =
  let src = Apps.Scripts.ocean ~n:4000 () in
  let c = Otter.compile src in
  let o = run4 ~capture:[ "Fmax"; "Frms" ] c in
  let get n =
    match List.assoc n o.Exec.State.captures with
    | Exec.State.Cscalar f -> f
    | _ -> nan
  in
  Alcotest.(check bool) "rms below max" true (get "Frms" < get "Fmax");
  Alcotest.(check bool) "nonzero force" true (get "Frms" > 0.)

let test_heat3d_physics () =
  (* a hot face diffusing into a cold grid: the peak stays at the
     boundary value, interior temperatures lie strictly between the
     boundary extremes, and total heat is positive *)
  let src = Apps.Scripts.heat3d ~n:10 ~m:8 ~iters:12 () in
  let c = Otter.compile src in
  let o = run4 ~capture:[ "heat"; "peak"; "core" ] c in
  let get n =
    match List.assoc n o.Exec.State.captures with
    | Exec.State.Cscalar f -> f
    | _ -> nan
  in
  Testutil.check_close "peak is the hot face" 1. (get "peak");
  Alcotest.(check bool) "core warmed" true (get "core" > 0.);
  Alcotest.(check bool) "core below the hot face" true (get "core" < 1.);
  Alcotest.(check bool) "total heat positive" true (get "heat" > 0.)

let test_logistic_range () =
  (* every trajectory of the logistic map stays inside (0, 1) *)
  let src = Apps.Scripts.logistic ~pages:8 ~m:8 ~iters:40 () in
  let c = Otter.compile src in
  let o = run4 ~capture:[ "xlo"; "xhi"; "xm" ] c in
  let get n =
    match List.assoc n o.Exec.State.captures with
    | Exec.State.Cscalar f -> f
    | _ -> nan
  in
  Alcotest.(check bool) "bounded below" true (get "xlo" > 0.);
  Alcotest.(check bool) "bounded above" true (get "xhi" < 1.);
  Alcotest.(check bool) "mean inside the bounds" true
    (get "xlo" <= get "xm" && get "xm" <= get "xhi")

(* --- paper-shape assertions (the headline claims) ----------------------- *)

let test_fig2_shape () =
  (* Otter beats the interpreter on all four applications. *)
  let machine = Mpisim.Machine.workstation in
  let results =
    List.map
      (fun (app : Apps.Scripts.app) ->
        let c = Otter.compile (app.source 15) in
        let ti = engine_time ~engine:Otter.Config.Einterp ~machine ~nprocs:1 c in
        let tm = engine_time ~engine:Otter.Config.Ematcom ~machine ~nprocs:1 c in
        let to1 =
          engine_time ~engine:Otter.Config.Etcode ~machine ~nprocs:1 c
        in
        (app.key, ti, tm, to1))
      Apps.Scripts.apps
  in
  List.iter
    (fun (key, ti, _, to1) ->
      Alcotest.(check bool) (key ^ ": otter beats interpreter") true (to1 < ti))
    results;
  (* and the MATCOM comparison splits 2-2 *)
  let otter_wins =
    List.length (List.filter (fun (_, _, tm, to1) -> to1 < tm) results)
  in
  Alcotest.(check int) "2-2 split against MATCOM" 2 otter_wins

let test_fig3_shape () =
  (* CG on the CS-2: large speedup, monotone in P. *)
  let ti, tp = times "cg" ~scale:25 ~machine:Mpisim.Machine.meiko_cs2 in
  let s p = ti /. tp p in
  Alcotest.(check bool) "monotone 1->16" true
    (s 1 < s 2 && s 2 < s 4 && s 4 < s 8 && s 8 < s 16);
  Alcotest.(check bool) "large speedup at 16" true (s 16 > 30.)

let test_fig6_beats_fig3 () =
  (* Transitive closure (O(n^3)) parallelizes at least as well as CG. *)
  let ti_cg, tp_cg = times "cg" ~scale:20 ~machine:Mpisim.Machine.meiko_cs2 in
  let ti_tc, tp_tc = times "tc" ~scale:20 ~machine:Mpisim.Machine.meiko_cs2 in
  let eff t1 tp = t1 /. tp in
  Alcotest.(check bool) "tc >= cg at 16 CPUs" true
    (eff ti_tc (tp_tc 16) >= eff ti_cg (tp_cg 16) *. 0.95)

let test_fig4_small_grain () =
  (* Ocean: speedup stays modest on every machine (paper: small data
     set, O(n) complexity). *)
  let ti, tp = times "ocean" ~scale:20 ~machine:Mpisim.Machine.meiko_cs2 in
  Alcotest.(check bool) "modest speedup" true (ti /. tp 16 < 15.);
  Alcotest.(check bool) "still beats the interpreter" true (ti /. tp 1 > 1.)

let test_cluster_damping () =
  (* On the Ethernet cluster every application slows beyond one SMP
     (4 CPUs) relative to the CS-2 (paper section 6). *)
  List.iter
    (fun key ->
      let _, tp_cluster =
        times key ~scale:15 ~machine:Mpisim.Machine.sparc20_cluster
      in
      let _, tp_meiko = times key ~scale:15 ~machine:Mpisim.Machine.meiko_cs2 in
      (* compare the 16-CPU gain over the 4-CPU point on each machine *)
      let gain tp = tp 4 /. tp 16 in
      Alcotest.(check bool)
        (key ^ ": cluster damped vs CS-2")
        true
        (gain tp_cluster < gain tp_meiko))
    [ "cg"; "tc"; "nbody" ]

let test_meiko_best_balance () =
  (* The CS-2 achieves the highest 16-CPU speedup on the compute-heavy
     benchmarks (paper: best balance of CPU speed, latency and
     bandwidth among the three). *)
  let at16 machine =
    let ti, tp = times "tc" ~scale:15 ~machine in
    ti /. tp (min 16 machine.Mpisim.Machine.max_procs)
  in
  let meiko = at16 Mpisim.Machine.meiko_cs2 in
  let cluster = at16 Mpisim.Machine.sparc20_cluster in
  Alcotest.(check bool) "meiko beats cluster" true (meiko > cluster)

(* Verification covers printed output too: every application prints
   a summary line, and its output agrees with the interpreter's at
   P = 1 and 4. *)
let test_verify_output () =
  List.iter
    (fun (app : Apps.Scripts.app) ->
      let c = Otter.compile (app.source 8) in
      if (run4 ~capture:[] c).Exec.State.output = "" then
        Alcotest.failf "%s prints nothing" app.key;
      List.iter (fun p -> verify_app app.key ~scale:8 ~nprocs:p) [ 1; 4 ])
    Apps.Scripts.all

let suite =
  [
    t "cg verifies across P" (test_verify "cg");
    t "ocean verifies across P" (test_verify "ocean");
    t "nbody verifies across P" (test_verify "nbody");
    t "tc verifies across P" (test_verify "tc");
    t "heat3d verifies across P and machines" (test_verify_tensor "heat3d");
    t "logistic verifies across P and machines" (test_verify_tensor "logistic");
    t "cg converges" test_cg_converges;
    t "heat3d physics" test_heat3d_physics;
    t "logistic range" test_logistic_range;
    t "tc closure properties" test_tc_closure_properties;
    t "nbody physics" test_nbody_physics;
    t "ocean signal" test_ocean_signal;
    t "figure 2 shape" test_fig2_shape;
    t "figure 3 shape" test_fig3_shape;
    t "figure 6 vs figure 3" test_fig6_beats_fig3;
    t "figure 4 small grain" test_fig4_small_grain;
    t "cluster damping (section 6)" test_cluster_damping;
    t "CS-2 best balance (section 6)" test_meiko_best_balance;
    t "every app's output verifies at P = 1, 4" test_verify_output;
  ]
