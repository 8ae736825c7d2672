(* The threaded-code execution engine (the default fast path):

   - golden decode listings: one exact-text check per IR opcode family,
     so a decode change is a conscious golden update, not an accident;
   - frame-slot aliasing hazards: interned array slots must preserve
     value semantics (copies are copies) and zero-trip loops must not
     leak or clobber slots that copy propagation style rewrites alias;
   - the modeled-time pin: every benchmark app at P in {2,4,8} on all
     three paper machines, at O1 and O2, reproduces the simulated time,
     message count and bytes recorded in
     bench/BENCH_speedup_baseline.json, and verifies against the
     reference interpreter;
   - the schedule pin: cg and tc on the fat-tree at P in {128, 256}
     reproduce the modeled time, messages, bytes and scheduler picks
     recorded in bench/BENCH_scale_baseline.json;
   - the dispatch-count pin: [Exec.State.dispatched] for the four
     otterbench dispatch kernels and for cg, at P=4 on the Meiko;
   - chaos recovery: a seeded mid-run rank kill recovers to the exact
     fault-free answer, for every app. *)

open Testutil
module Machine = Mpisim.Machine
module Sim = Mpisim.Sim

let t name f = Alcotest.test_case name `Quick f

(* --- golden decode listings --------------------------------------------- *)

let check_listing name src expected =
  let got = Exec.Tcode.listing (Otter.compile src).Otter.prog in
  Alcotest.(check string) name expected got

let test_decode_scalar_flow () =
  check_listing "scalars, if/else, printf"
    "x = 2;\ny = x * 3 + 1;\nif y > 5\n z = 1;\nelse\n z = 0;\nend\n\
     fprintf('%g\\n', z);"
    "main:\n\
    \   0  scalar x\n\
    \   1  scalar y\n\
    \   2  if cond\n\
    \   3  scalar z\n\
    \   4  jump endif\n\
    \   5  scalar z\n\
    \   6  printf\n"

let test_decode_loops () =
  check_listing "for (entry/iter/next), while, disp"
    "s = 0;\nfor i = 1:2:9\n s = s + i;\nend\nwhile s > 10\n s = s - 7;\nend\n\
     disp(s);"
    "main:\n\
    \   0  scalar s\n\
    \   1  for i entry\n\
    \   2  for i iter\n\
    \   3  scalar s\n\
    \   4  for i next\n\
    \   5  while entry\n\
    \   6  while cond\n\
    \   7  scalar s\n\
    \   8  jump while\n\
    \   9  print s\n"

let test_decode_matrix_ops () =
  check_listing
    "construct, transpose, matmul(_t), copy, diag, outer, reductions, sort, \
     reduce_loc, trapz, shift"
    "A = rand(6, 6);\nB = A' * A;\nC = A * B;\nt = A';\nd = diag(A);\n\
     u = rand(6, 1);\nw = u * u';\nx = dot(u, u);\ny = sum(u);\ncs = sum(A);\n\
     v = sort(u);\n[mn, ix] = min(u);\nq = trapz(u);\nr = circshift(u, 2);\n\
     fprintf('%g\\n', x + y + mn + ix + q + sum(sum(C)) + sum(sum(w)) + \
     sum(cs) + sum(v) + sum(r) + sum(sum(B)) + sum(sum(t)) + sum(d));"
    "main:\n\
    \   0  construct A\n\
    \   1  transpose ML_tmp2\n\
    \   2  matmul_t B\n\
    \   3  matmul C\n\
    \   4  copy t <- ML_tmp2\n\
    \   5  diag d\n\
    \   6  construct u\n\
    \   7  outer w\n\
    \   8  reduce_fused x2\n\
    \   9  scalar x <- ML_tmp9\n\
    \  10  scalar y <- ML_tmp10\n\
    \  11  reduce_cols cs\n\
    \  12  sort v\n\
    \  13  reduce_loc mn\n\
    \  14  trapz ML_tmp13\n\
    \  15  scalar q <- ML_tmp13\n\
    \  16  shift r\n\
    \  17  reduce_all ML_tmp15\n\
    \  18  reduce_cols ML_tmp16\n\
    \  19  reduce_all ML_tmp17\n\
    \  20  reduce_cols ML_tmp18\n\
    \  21  reduce_fused x4\n\
    \  22  reduce_cols ML_tmp23\n\
    \  23  reduce_all ML_tmp24\n\
    \  24  reduce_cols ML_tmp25\n\
    \  25  reduce_all ML_tmp26\n\
    \  26  printf\n"

let test_decode_elements () =
  check_listing "setelem, elementwise loop, batched broadcast"
    "A = zeros(4, 4);\nA(2, 3) = 5;\np = A(2, 3);\nq = A(1, 1);\nb = A(3, 3);\n\
     E = A + A;\nfprintf('%g\\n', p + q + b + sum(sum(E)));"
    "main:\n\
    \   0  construct A\n\
    \   1  setelem A\n\
    \   2  elem E\n\
    \   3  bcast_batch x3\n\
    \   4  scalar p <- ML_tmp2\n\
    \   5  scalar q <- ML_tmp3\n\
    \   6  scalar b <- ML_tmp4\n\
    \   7  reduce_cols ML_tmp6\n\
    \   8  reduce_all ML_tmp7\n\
    \   9  printf\n"

let test_decode_single_bcast () =
  check_listing "unbatched element broadcast"
    "v = rand(8, 1);\nx = v(3);\nfprintf('%g\\n', x);"
    "main:\n\
    \   0  construct v\n\
    \   1  bcast ML_tmp2\n\
    \   2  scalar x <- ML_tmp2\n\
    \   3  printf\n"

let test_decode_fused_reductions () =
  check_listing "four reductions fuse into one allreduce"
    "v = rand(16, 1);\ns = sum(v);\nm = mean(v);\nn = norm(v);\n\
     d = dot(v, v);\nfprintf('%g\\n', s + m + n + d);"
    "main:\n\
    \   0  construct v\n\
    \   1  reduce_fused x4\n\
    \   2  scalar s <- ML_tmp2\n\
    \   3  scalar m <- ML_tmp3\n\
    \   4  scalar n <- ML_tmp4\n\
    \   5  scalar d <- ML_tmp5\n\
    \   6  printf\n"

let test_decode_functions () =
  check_listing "user function gets its own code section"
    "y = sq(3);\nfprintf('%g\\n', y);\nfunction r = sq(x)\n  r = x * x;\nend"
    "main:\n\
    \   0  call sq/1\n\
    \   1  scalar y <- ML_tmp1\n\
    \   2  printf\n\
     function sq:\n\
    \   0  scalar r\n"

(* --- frame-slot aliasing ------------------------------------------------ *)

(* Interned slots must keep MATLAB's value semantics: a copy is a deep
   copy, a zero-trip loop leaves its targets untouched, and rewrites
   that alias one variable to another (copy propagation style) must
   not let a later store through one name show through the other. *)

let test_aliasing () =
  check_close "scalar copy does not alias" 1.
    (parallel_value "a = 1;\nb = a;\na = 2;\nx = b;" "x");
  check_close "matrix copy is deep" 0.
    (parallel_value "A = zeros(2, 2);\nB = A;\nA(1, 1) = 5;\nx = B(1, 1);" "x");
  check_close "copy then source clobbered in loop" 3.
    (parallel_value
       "a = 3;\nb = a;\nfor i = 1:4\n a = a + 1;\nend\nx = b;" "x");
  check_close "self-referencing update" 6.
    (parallel_value "v = (1:3)';\nv = v + v;\nx = v(2) + v(1);" "x")

let test_zero_trip_slots () =
  check_close "zero-trip loop leaves prior value" 7.
    (parallel_value "s = 7;\nfor i = 1:0\n s = 99;\nend\nx = s;" "x");
  check_close "zero-trip loop with copy inside" 5.
    (parallel_value
       "a = 5;\nb = 0;\nfor i = 2:1\n b = a;\n a = 0;\nend\nx = a + b;" "x");
  check_close "downward zero-trip" 4.
    (parallel_value "s = 4;\nfor i = 1:-1:2\n s = s * 10;\nend\nx = s;" "x");
  check_close "zero-trip keeps loop slot out of scope" 11.
    (parallel_value
       "k = 11;\nfor q = 3:2\n k = q;\nend\nx = k;" "x");
  (* An undefined read after a zero-trip loop must still be the same
     typed error on the decoded engine. *)
  match run_parallel ~nprocs:2 "for i = 1:0\n y = 1;\nend\nx = y;" with
  | exception Exec.State.Runtime_error _ -> ()
  | _ -> Alcotest.fail "undefined read after zero-trip loop must error"

(* --- the modeled-time pin ---------------------------------------------- *)

(* The paper machines under the names the speedup baseline uses. *)
let machines =
  [
    ("meiko", Machine.meiko_cs2);
    ("smp", Machine.enterprise_smp);
    ("cluster", Machine.sparc20_cluster);
  ]

(* A committed bench baseline: its problem scale and its rows. *)
let read_baseline rel =
  match find_up rel with
  | None -> Alcotest.failf "%s not found" rel
  | Some file -> (
      match Baseline.read file with
      | Ok b -> (b.Baseline.scale, Baseline.rows b)
      | Error e -> Alcotest.failf "%s: %s" file e)

(* One row per (app, machine, CPUs, opt level). *)
let speedup_baseline =
  lazy (read_baseline "bench/BENCH_speedup_baseline.json")

(* One app's P in {2,4,8} rows: each run must reproduce the baseline's
   modeled time (to its printed nine decimals), message count and
   bytes; the O2 runs also verify against the reference interpreter. *)
let speedup_pinned key () =
  let app =
    match Apps.Scripts.find key with Some a -> a | None -> assert false
  in
  let scale, rows = Lazy.force speedup_baseline in
  let pins =
    List.filter
      (fun e ->
        Baseline.str e "app" = key
        && List.mem (Baseline.int e "procs") [ 2; 4; 8 ])
      rows
  in
  Alcotest.(check int) (key ^ ": baseline entries") 18 (List.length pins);
  let compiled =
    List.map
      (fun (name, opt) -> (name, Otter.compile ~opt (app.source scale)))
      [ ("O1", Spmd.Pass.O1); ("O2", Spmd.Pass.O2) ]
  in
  List.iter
    (fun e ->
      let machine = Baseline.str e "machine" and opt = Baseline.str e "opt" in
      let procs = Baseline.int e "procs" in
      let c = List.assoc opt compiled in
      let where = Printf.sprintf "%s %s P=%d on %s" key opt procs machine in
      let cfg =
        Otter.config ~machine:(List.assoc machine machines) ~nprocs:procs ()
      in
      let r = (Otter.outcome_exn (Otter.run cfg c)).Exec.State.report in
      Alcotest.(check string)
        (where ^ ": modeled time")
        (Printf.sprintf "%.9f" (Baseline.num e "time"))
        (Printf.sprintf "%.9f" r.Sim.makespan);
      Alcotest.(check int) (where ^ ": messages")
        (Baseline.int e "messages") r.Sim.messages;
      Alcotest.(check int) (where ^ ": bytes") (Baseline.int e "bytes")
        r.Sim.bytes;
      if opt = "O2" then
        match
          Otter.verify_list
            { cfg with Otter.Config.capture = app.capture; tol = 1e-6 }
            c
        with
        | [] -> ()
        | ms ->
            Alcotest.failf "%s: %d interpreter mismatches" where
              (List.length ms))
    pins

(* --- the schedule pin ------------------------------------------------------ *)

(* One app's fat-tree P in {128, 256} rows of the scale baseline: each
   run must reproduce its modeled time (to nine decimals), messages,
   bytes and scheduler picks.  Picks count the event core's steps, so
   this pins the schedule itself, not just its outcome. *)
let scale_pinned key () =
  let app =
    match Apps.Scripts.find key with Some a -> a | None -> assert false
  in
  let scale, rows = read_baseline "bench/BENCH_scale_baseline.json" in
  let pins =
    List.filter
      (fun e ->
        Baseline.str e "app" = key
        && Baseline.str e "machine" = "fattree"
        && Baseline.str e "dist" = "block"
        && List.mem (Baseline.int e "procs") [ 128; 256 ])
      rows
  in
  Alcotest.(check int) (key ^ ": baseline entries") 2 (List.length pins);
  let c = Otter.compile (app.source scale) in
  List.iter
    (fun e ->
      let procs = Baseline.int e "procs" in
      let where = Printf.sprintf "%s P=%d on fattree" key procs in
      let cfg = Otter.config ~machine:Machine.fattree_default ~nprocs:procs () in
      let r = (Otter.outcome_exn (Otter.run cfg c)).Exec.State.report in
      Alcotest.(check string)
        (where ^ ": modeled time")
        (Printf.sprintf "%.9f" (Baseline.num e "time"))
        (Printf.sprintf "%.9f" r.Sim.makespan);
      List.iter
        (fun (field, got) ->
          Alcotest.(check int) (where ^ ": " ^ field) (Baseline.int e field) got)
        [
          ("messages", r.Sim.messages);
          ("bytes", r.Sim.bytes);
          ("picks", r.Sim.sched_picks);
        ])
    pins

(* --- the dispatch-count pin ------------------------------------------------ *)

(* [Exec.State.dispatched] after one O2 run on the Meiko at P=4, summed
   over ranks: decoded ops dispatched plus compiled scalar-expression
   nodes.  otterbench's exec.mops_per_s divides by this count, so any
   change to what one dispatched unit means shows up here first. *)
let dispatched_on_meiko source =
  let c = Otter.compile source in
  Exec.State.dispatched := 0;
  ignore
    (Otter.outcome_exn
       (Otter.run (Otter.config ~machine:Machine.meiko_cs2 ~nprocs:4 ()) c));
  !Exec.State.dispatched

let test_dispatch_count_pinned () =
  List.iter
    (fun (name, expected) ->
      let rel = "bench/suite/kernels/" ^ name ^ ".m" in
      match find_up rel with
      | None -> Alcotest.failf "%s not found" rel
      | Some file ->
          Alcotest.(check int) name expected (dispatched_on_meiko (read_file file)))
    [
      ("cg-core", 8400048);
      ("ocean-core", 10266720);
      ("nbody-core", 6810032);
      ("tc-core", 6800032);
    ];
  let cg = match Apps.Scripts.find "cg" with Some a -> a | None -> assert false in
  Alcotest.(check int) "cg at scale 5" 3144 (dispatched_on_meiko (cg.source 5))

(* --- chaos recovery ------------------------------------------------------ *)

let killer ~at ~detect m =
  Machine.with_faults ~reliable:true
    ~faults:
      (faults
         (Printf.sprintf "kill_rank=1,kill_time=%g,detect=%g,seed=7" at detect))
    m

(* A seeded mid-run rank kill on the default machine at P=4 must
   recover to the exact fault-free answer. *)
let chaos_recovers key () =
  let app =
    match Apps.Scripts.find key with Some a -> a | None -> assert false
  in
  let c = Otter.compile (app.source 4) in
  let m = Machine.meiko_cs2 in
  let where = Printf.sprintf "%s under --chaos" key in
  let clean =
    Otter.outcome_exn
      (Otter.run (Otter.config ~capture:app.capture ~machine:m ~nprocs:4 ()) c)
  in
  let span = clean.Exec.State.report.Sim.makespan in
  let rc =
    Otter.run
      (Otter.config ~capture:app.capture
         ~ckpt_interval:(Float.max 1e-6 (span *. 0.08))
         ~max_recoveries:3
         ~machine:
           (killer ~at:(span *. 0.3) ~detect:(Float.max 0.01 (span *. 0.05)) m)
         ~nprocs:4 ())
      c
  in
  (match rc.Exec.State.r_reports with
  | first :: _ -> Alcotest.(check int) (where ^ ": kill fired") 1 first.Sim.kills
  | [] -> Alcotest.failf "%s: no attempt reports" where);
  Alcotest.(check bool)
    (where ^ ": rolled back")
    true
    (rc.Exec.State.r_attempts >= 2);
  match rc.Exec.State.r_result with
  | Exec.State.Complete out ->
      Alcotest.(check string) (where ^ ": output") clean.output out.output;
      List.iter
        (fun (name, v) ->
          match List.assoc_opt name out.Exec.State.captures with
          | Some w when Exec.State.captured_equal v w -> ()
          | Some _ ->
              Alcotest.failf "%s: capture %s differs after recovery" where name
          | None -> Alcotest.failf "%s: capture %s lost after recovery" where name)
        clean.Exec.State.captures
  | Exec.State.Partial { detail; _ } ->
      Alcotest.failf "%s: did not recover: %s" where detail

(* --- captured-value equality and engine names ----------------------------- *)

let test_captured_equal () =
  let eq = Exec.State.captured_equal in
  let nd dims d = Exec.State.Cnd (dims, d) in
  Alcotest.(check bool) "equal tensors" true
    (eq (nd [| 2; 1; 2 |] [| 1.; 2.; 3.; 4. |]) (nd [| 2; 1; 2 |] [| 1.; 2.; 3.; 4. |]));
  Alcotest.(check bool) "tensor shape differs" false
    (eq (nd [| 2; 1; 2 |] [| 1.; 2.; 3.; 4. |]) (nd [| 1; 2; 2 |] [| 1.; 2.; 3.; 4. |]));
  Alcotest.(check bool) "tensor element differs" false
    (eq (nd [| 2; 2 |] [| 1.; 2.; 3.; 4. |]) (nd [| 2; 2 |] [| 1.; 2.; 3.; 5. |]));
  Alcotest.(check bool) "NaN cells equal" true
    (eq (nd [| 1; 2 |] [| nan; 1. |]) (nd [| 1; 2 |] [| nan; 1. |]));
  Alcotest.(check bool) "NaN scalars equal" true
    (eq (Exec.State.Cscalar nan) (Exec.State.Cscalar nan));
  Alcotest.(check bool) "NaN matrix cells equal" true
    (eq (Exec.State.Cmat (1, 2, [| 0.; nan |])) (Exec.State.Cmat (1, 2, [| 0.; nan |])));
  Alcotest.(check bool) "signed zeros equal" true
    (eq (Exec.State.Cscalar 0.) (Exec.State.Cscalar (-0.)));
  Alcotest.(check bool) "NaN differs from a number" false
    (eq (Exec.State.Cscalar nan) (Exec.State.Cscalar 0.));
  Alcotest.(check bool) "matrix shape differs" false
    (eq (Exec.State.Cmat (1, 2, [| 1.; 2. |])) (Exec.State.Cmat (2, 1, [| 1.; 2. |])));
  Alcotest.(check bool) "kinds differ" false
    (eq (Exec.State.Cscalar 1.) (Exec.State.Cmat (1, 1, [| 1. |])))

let test_engine_names () =
  List.iter
    (fun e ->
      let name = Otter.Config.engine_name e in
      Alcotest.(check bool) (name ^ " round-trips") true
        (Otter.Config.engine_of_string name = Some e))
    [ Otter.Config.Etcode; Otter.Config.Einterp; Otter.Config.Ematcom ];
  Alcotest.(check bool) "ir is not an engine" true
    (Otter.Config.engine_of_string "ir" = None)

(* Bad numeric run settings are rejected up front, naming the flag. *)
let config_rejects (what, flag, make) =
  t ("config rejects " ^ what) (fun () ->
      match make () with
      | exception Invalid_argument msg ->
          Alcotest.(check bool) (msg ^ " names " ^ flag) true
            (contains msg flag)
      | (_ : Otter.Config.t) -> Alcotest.failf "%s must be rejected" what)

let bad_configs =
  [
    ("tol -1", "--tol", fun () -> Otter.config ~tol:(-1.) ());
    ("tol nan", "--tol", fun () -> Otter.config ~tol:nan ());
    ("ckpt -1", "--ckpt", fun () -> Otter.config ~ckpt_interval:(-1.) ());
    ("ckpt nan", "--ckpt", fun () -> Otter.config ~ckpt_interval:nan ());
    ( "max-recoveries -2",
      "--max-recoveries",
      fun () -> Otter.config ~max_recoveries:(-2) () );
    ( "kill_rank 9 at P=4",
      "kill_rank=9",
      fun () ->
        let faults = faults "kill_rank=9" in
        Otter.config ~machine:(Machine.with_faults ~faults Machine.meiko_cs2)
          ~nprocs:4 () );
  ]

(* --- element loops at block edges ----------------------------------------- *)

(* An element loop runs [Exec.Tcode.block] local elements at a time; the
   apps' matrices rarely end at a block edge, so these scripts put one
   at every position.  Each compares tcode with the interpreter bit for
   bit at P = 1 and 3. *)
let block = Exec.Tcode.block
let edge_lengths = [ 0; 1; block - 1; block; block + 1; (2 * block) + 3 ]

(* Every element opcode over a 1 x n row vector: scalar and operand
   loads, negation, not, one- and two-argument builtins and all
   fourteen binary operators, on values that include NaN, +-Inf and
   +-0 (a = x/0 where mod(k, 5) = 2; b = (negative) .* 0).  The raise
   opcode (an unknown builtin) cannot be written in a script that
   compiles, and [eye] has its own test below. *)
let opcode_script n =
  Printf.sprintf
    "k = 1:%d;\n\
     a = (mod(k, 3) - 1) ./ (mod(k, 5) - 2);\n\
     b = (mod(k, 4) - 2) .* 0;\n\
     c = k ./ 7 - 3;\n\
     s = 0.5;\n\
     e1 = -a + b .* c - c ./ s;\n\
     e2 = s .\\ c + c .^ 3 + a .\\ b;\n\
     e3 = (a < c) + (a <= b) + (a > c) + (a >= b) + (a == b) + (a ~= c);\n\
     e4 = (a & c) + (b | c) + ~a;\n\
     e5 = sqrt(abs(c)) + atan2(a, c) + max(a, b) + min(b, c) + mod(c, 3) \
     + hypot(a, b);\n"
    n

let opcode_vars = [ "a"; "b"; "c"; "e1"; "e2"; "e3"; "e4"; "e5" ]

(* At P = 3 a 1 x 3n row vector gives every rank n local elements.  At
   one element the interpreter's 1 x 1 result may come back from tcode
   as a scalar, so those two forms match here. *)
let test_block_edges_opcodes () =
  List.iter
    (fun len ->
      List.iter
        (fun p ->
          check_bits_vs_interp ~scalar_1x1:true ~capture:opcode_vars
            ~procs:[ p ]
            (Printf.sprintf "opcodes, %d local elements" len)
            (opcode_script (p * len)))
        [ 1; 3 ])
    edge_lengths

(* Frame broadcasts: a 3 x 7 (or 4 x 4) matrix and a scalar against a
   tensor whose cell does not divide the block, so blocks start
   mid-cell.  y holds +Inf, NaN and 0, g holds +-Inf, w holds +-0. *)
let test_block_edges_frame () =
  List.iter
    (fun (d0, r, c) ->
      List.iter
        (fun p ->
          check_bits_vs_interp ~capture:[ "y"; "g"; "w"; "z1"; "z2"; "z3" ]
            ~procs:[ p ]
            (Printf.sprintf "frame broadcast, %dx%dx%d" (p * d0) r c)
            (Printf.sprintf
               "x = rand(%d, %d, %d);\n\
                M = (rand(%d, %d) - 0.5) ./ (rand(%d, %d) > 0.2);\n\
                s = -0;\n\
                y = (x > 0.5) ./ (x < 0.3);\n\
                g = (x - 0.4) ./ (x > 0.9);\n\
                w = (x - 0.5) .* 0;\n\
                z1 = M .* x + s;\n\
                z2 = max(M, g) - atan2(x, M) + (M < g) + ~x + w .* s;\n\
                z3 = M .* y - s + (-y) ./ M;\n"
               (p * d0) r c r c r c))
        [ 1; 3 ])
    [ (12, 3, 7); (13, 3, 7); (25, 3, 7); (16, 4, 4); (17, 4, 4) ]

(* [eye] inside an element plan, under the block layout (where the
   loop steps (row, col) through the block) and under cyclic:2 and a
   1 x P grid; n = 17, 23, 37 put block edges mid-row. *)
let test_block_edges_eye () =
  List.iter
    (fun p ->
      List.iter
        (fun layout ->
          List.iter
            (fun n ->
              check_bits_vs_interp ~layout ~capture:[ "E" ] ~procs:[ p ]
                (Printf.sprintf "eye(%d) under %s" n
                   (Otter.Config.layout_name layout))
                (Printf.sprintf
                   "n = %d;\nA = rand(n, n);\nE = A - n * eye(n) .* A;\n" n))
            [ 16; 17; 23; 37 ])
        Runtime.Dmat.[ Lblock; Lcyclic 2; Lgrid (1, p) ])
    [ 1; 3 ]

let suite =
  [
    t "golden decode: scalar flow" test_decode_scalar_flow;
    t "golden decode: loops" test_decode_loops;
    t "golden decode: matrix ops" test_decode_matrix_ops;
    t "golden decode: elements" test_decode_elements;
    t "golden decode: single bcast" test_decode_single_bcast;
    t "golden decode: fused reductions" test_decode_fused_reductions;
    t "golden decode: functions" test_decode_functions;
    t "frame-slot aliasing" test_aliasing;
    t "zero-trip loop slots" test_zero_trip_slots;
    t "matches speedup baseline: cg" (speedup_pinned "cg");
    t "matches speedup baseline: ocean" (speedup_pinned "ocean");
    t "matches speedup baseline: nbody" (speedup_pinned "nbody");
    t "matches speedup baseline: tc" (speedup_pinned "tc");
    t "matches scale baseline: cg" (scale_pinned "cg");
    t "matches scale baseline: tc" (scale_pinned "tc");
    t "dispatch count pinned" test_dispatch_count_pinned;
    t "chaos recovery: cg" (chaos_recovers "cg");
    t "chaos recovery: ocean" (chaos_recovers "ocean");
    t "chaos recovery: nbody" (chaos_recovers "nbody");
    t "chaos recovery: tc" (chaos_recovers "tc");
    t "captured values compare bitwise" test_captured_equal;
    t "engine names round-trip; ir is rejected" test_engine_names;
  ]
  @ List.map config_rejects bad_configs
  (* Appended after the older cases so their indices stay as they were. *)
  @ [
      t "block edges: every opcode" test_block_edges_opcodes;
      t "block edges: frame broadcasts" test_block_edges_frame;
      t "block edges: eye under every layout" test_block_edges_eye;
      t "matches speedup baseline: heat3d" (speedup_pinned "heat3d");
      t "matches speedup baseline: logistic" (speedup_pinned "logistic");
    ]
