(* Rank-failure tolerance end to end: the heartbeat failure detector,
   coordinated checkpoint/restart, and the typed abort paths.

   The headline guarantee (ISSUE 6 acceptance): every benchmark app at
   P in {2,4,8} on all three paper machines completes *bit-identically*
   to its fault-free run under a seeded single-rank kill with recovery
   enabled; with recovery disabled, or with the retry budget exhausted,
   the run ends in a typed failure — never a hang, never a wrong
   answer. *)

module Machine = Mpisim.Machine
module Sim = Mpisim.Sim
module Reliable = Mpisim.Reliable

let t name f = Alcotest.test_case name `Quick f

let machines =
  [ Machine.meiko_cs2; Machine.enterprise_smp; Machine.sparc20_cluster ]

let faults = Testutil.faults

(* A machine where one chosen rank is permanently killed early in the
   run, with the failure detector armed. *)
let killer ?(reliable = true) ?(victim = 1) ?(at = 0.002) ?(detect = 0.05)
    ?(seed = 7) m =
  Machine.with_faults ~reliable
    ~faults:
      (faults
         (Printf.sprintf "kill_rank=%d,kill_time=%g,detect=%g,seed=%d" victim
            at detect seed))
    m

(* Recovery replays must not perturb a single ULP: captures compare
   bitwise (exact equality, not tolerance). *)
let check_identical ~where (clean : Exec.State.outcome) (rec_ : Exec.State.outcome) =
  Alcotest.(check string) (where ^ ": output bit-identical") clean.output
    rec_.output;
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name rec_.Exec.State.captures with
      | Some w when Exec.State.captured_equal v w -> ()
      | Some _ -> Alcotest.failf "%s: capture %s differs after recovery" where name
      | None -> Alcotest.failf "%s: capture %s lost after recovery" where name)
    clean.Exec.State.captures

(* --- the acceptance matrix ---------------------------------------------- *)

(* One app across P in {2,4,8} on all three machines: kill rank 1 early,
   recover, and demand the exact fault-free answer. *)
let recover_app key () =
  let app =
    match Apps.Scripts.find key with Some a -> a | None -> assert false
  in
  let c = Otter.compile (app.source 4) in
  List.iter
    (fun m ->
      List.iter
        (fun p ->
          let where = Printf.sprintf "%s P=%d on %s" key p m.Machine.name in
          let clean =
            Otter.outcome_exn
              (Otter.run
                 (Otter.config ~capture:app.capture ~machine:m ~nprocs:p ())
                 c)
          in
          (* Kill a third of the way through the fault-free makespan so
             the death lands mid-run on every machine, with a few
             checkpoint commits before it. *)
          let span = clean.Exec.State.report.Sim.makespan in
          let at = span *. 0.3 in
          let ck = Float.max 1e-6 (span *. 0.08) in
          let rc =
            Otter.run
              (Otter.config ~capture:app.capture ~ckpt_interval:ck
                 ~max_recoveries:3
                 ~machine:(killer ~at ~detect:(Float.max 0.01 (span *. 0.05)) m)
                 ~nprocs:p ())
              c
          in
          (match rc.Exec.State.r_reports with
          | first :: _ ->
              Alcotest.(check int)
                (where ^ ": the seeded kill fired")
                1 first.Sim.kills
          | [] -> Alcotest.failf "%s: no attempt reports" where);
          Alcotest.(check bool)
            (where ^ ": recovery actually rolled back")
            true
            (rc.Exec.State.r_attempts >= 2);
          match rc.Exec.State.r_result with
          | Exec.State.Complete out -> check_identical ~where clean out
          | Exec.State.Partial { detail; _ } ->
              Alcotest.failf "%s: did not recover: %s" where detail)
        [ 2; 4; 8 ])
    machines

(* --- typed aborts: no hang, no wrong answer ----------------------------- *)

(* Recovery disabled: the kill surfaces as a structured [Partial] with
   a rank-failure class and the kill counted in the report, after
   exactly one attempt that did not "give up" (nothing asked it to
   recover).  Checkpoints alone, with no retry budget, do ask: the
   same kill then gives up. *)
let test_kill_without_recovery_is_typed () =
  let app =
    match Apps.Scripts.find "cg" with Some a -> a | None -> assert false
  in
  let c = Otter.compile (app.source 4) in
  let run ckpt_interval =
    Otter.run
      (Otter.config ~capture:app.capture ~ckpt_interval
         ~machine:(killer Machine.meiko_cs2) ~nprocs:4 ())
      c
  in
  let rc = run 0. in
  Alcotest.(check int) "one attempt" 1 rc.Exec.State.r_attempts;
  Alcotest.(check bool) "did not give up" false rc.Exec.State.r_gave_up;
  Alcotest.(check int) "one report" 1 (List.length rc.Exec.State.r_reports);
  (match rc.Exec.State.r_result with
  | Exec.State.Partial { kind; report; failed_rank; _ } ->
      Alcotest.(check bool)
        "rank-failure class" true
        (match kind with
        | Exec.State.Fkilled | Exec.State.Fpeer | Exec.State.Fexhausted -> true
        | _ -> false);
      Alcotest.(check int) "one kill counted" 1 report.Sim.kills;
      Alcotest.(check bool) "rank in range" true
        (failed_rank >= 0 && failed_rank < 4)
  | Exec.State.Complete _ ->
      Alcotest.fail "a killed rank cannot complete without recovery");
  let rc = run 0.05 in
  Alcotest.(check int) "checkpoints only: one attempt" 1
    rc.Exec.State.r_attempts;
  Alcotest.(check bool) "checkpoints only: gave up" true
    rc.Exec.State.r_gave_up

(* Every rank doomed on every attempt: the budget runs out and the
   driver gives up cleanly — [r_gave_up], still a recoverable class,
   and exactly budget+1 attempts. *)
let test_budget_exhaustion_gives_up () =
  let app =
    match Apps.Scripts.find "nbody" with Some a -> a | None -> assert false
  in
  let c = Otter.compile (app.source 4) in
  let m =
    Machine.with_faults ~reliable:true
      ~faults:(faults "kill=1.0,kill_window=0.01,detect=0.05,seed=13")
      Machine.sparc20_cluster
  in
  let rc =
    Otter.run
      (Otter.config ~capture:app.capture ~ckpt_interval:0.05 ~max_recoveries:2
         ~machine:m ~nprocs:4 ())
      c
  in
  Alcotest.(check bool) "gave up" true rc.Exec.State.r_gave_up;
  Alcotest.(check int) "budget+1 attempts" 3 rc.Exec.State.r_attempts;
  Alcotest.(check int) "one report per attempt" 3
    (List.length rc.Exec.State.r_reports);
  match rc.Exec.State.r_result with
  | Exec.State.Partial { kind; _ } ->
      Alcotest.(check bool) "recoverable class" true (Exec.State.recoverable kind)
  | Exec.State.Complete _ -> Alcotest.fail "kill=1.0 cannot complete"

(* A bug in the program itself must not be retried: the driver returns
   after the first attempt with a non-recoverable class. *)
let test_program_bugs_are_not_retried () =
  let c = Otter.compile "x = rand(8, 8);\nif sum(sum(x)) > 0\n  error('intentional');\nend\n" in
  let rc =
    Otter.run
      (Otter.config ~ckpt_interval:0.05 ~max_recoveries:3
         ~machine:(killer ~at:1e9 Machine.meiko_cs2) ~nprocs:4 ())
      c
  in
  Alcotest.(check int) "one attempt only" 1 rc.Exec.State.r_attempts;
  Alcotest.(check bool) "did not give up (not recoverable)" false
    rc.Exec.State.r_gave_up;
  match rc.Exec.State.r_result with
  | Exec.State.Partial { kind; _ } ->
      Alcotest.(check bool) "runtime class" true (kind = Exec.State.Fruntime)
  | Exec.State.Complete _ -> Alcotest.fail "error() cannot complete"

(* --- replay determinism ------------------------------------------------- *)

(* The sharp edge of checkpoint/restart: a restored rank must resume
   its RNG stream at the exact sequence number it snapshotted, so a
   recovered run draws the same randoms as an undisturbed one.  A
   rand-heavy loop makes any off-by-one in the replay visible. *)
let test_rng_stream_survives_replay () =
  let src =
    "acc = 0;\n\
     for i = 1:30\n\
    \  r = rand(16, 16);\n\
    \  acc = acc + sum(sum(r)) + max(max(r));\n\
     end\n\
     fprintf('acc=%.17g\\n', acc);\n"
  in
  let c = Otter.compile src in
  let clean =
    Otter.outcome_exn
      (Otter.run
         (Otter.config ~capture:[ "acc" ] ~machine:Machine.meiko_cs2 ~nprocs:4
            ())
         c)
  in
  let rc =
    Otter.run
      (Otter.config ~capture:[ "acc" ] ~ckpt_interval:0.01 ~max_recoveries:3
         ~machine:(killer ~victim:2 ~at:0.02 Machine.meiko_cs2)
         ~nprocs:4 ())
      c
  in
  Alcotest.(check bool) "rolled back at least once" true
    (rc.Exec.State.r_attempts >= 2);
  match rc.Exec.State.r_result with
  | Exec.State.Complete out ->
      check_identical ~where:"rng replay" clean out
  | Exec.State.Partial { detail; _ } ->
      Alcotest.failf "rng replay did not recover: %s" detail

(* Two different fault seeds kill different ranks at different times;
   both recoveries land on the same bit-exact answer. *)
let test_recovery_is_seed_independent () =
  let src =
    "a = rand(24, 24);\nb = a * a';\ns = sum(sum(b));\nfprintf('s=%.17g\\n', s);\n"
  in
  let c = Otter.compile src in
  let clean =
    Otter.outcome_exn
      (Otter.run
         (Otter.config ~machine:Machine.sparc20_cluster ~nprocs:4 ())
         c)
  in
  List.iter
    (fun (victim, seed) ->
      let rc =
        Otter.run
          (Otter.config ~ckpt_interval:0.02 ~max_recoveries:3
             ~machine:(killer ~victim ~seed Machine.sparc20_cluster) ~nprocs:4
             ())
          c
      in
      match rc.Exec.State.r_result with
      | Exec.State.Complete out ->
          Alcotest.(check string)
            (Printf.sprintf "victim=%d seed=%d" victim seed)
            clean.Exec.State.output out.Exec.State.output
      | Exec.State.Partial { detail; _ } ->
          Alcotest.failf "victim=%d seed=%d did not recover: %s" victim seed
            detail)
    [ (0, 5); (3, 11) ]

(* --- the reliable layer under extreme reordering (property) ------------- *)

(* Exactly-once, in-order delivery per (src, dst) stream: two senders
   push numbered sequences through a link with extreme duplication and
   delay reordering (plus some loss); each stream must arrive exactly
   once, in order, under every sampled fault configuration. *)
let reliable_exactly_once_prop =
  QCheck.Test.make ~count:25 ~name:"reliable: exactly-once, in-order streams"
    QCheck.(
      triple (int_range 1 20)
        (pair (float_range 0. 0.6) (float_range 0. 0.5))
        (int_range 0 1000))
    (fun (n, (dup, delay), seed) ->
      let spec =
        Printf.sprintf "dup=%g,delay=%g,drop=0.1,seed=%d" dup delay seed
      in
      let m =
        Machine.with_faults ~reliable:true ~faults:(faults spec)
          Machine.sparc20_cluster
      in
      let results, _ =
        Sim.run ~machine:m ~nprocs:3 (fun rank ->
            if rank < 2 then begin
              for i = 1 to n do
                Reliable.send ~dst:2 ~tag:4 (Sim.Ints [| (rank * 1000) + i |])
              done;
              []
            end
            else begin
              (* Drain the two streams in an interleaved order. *)
              let got = Array.make 2 [] in
              for i = 1 to n do
                List.iter
                  (fun src ->
                    match Reliable.recv_ints ~src ~tag:4 with
                    | [| x |] -> got.(src) <- x :: got.(src)
                    | _ -> Alcotest.fail "bad payload")
                  (if i mod 2 = 0 then [ 0; 1 ] else [ 1; 0 ])
              done;
              List.concat_map (fun s -> List.rev got.(s)) [ 0; 1 ]
            end)
      in
      let expect =
        List.concat_map
          (fun src -> List.init n (fun i -> (src * 1000) + i + 1))
          [ 0; 1 ]
      in
      results.(2) = expect)

(* --- minimized chaos counterexamples ------------------------------------ *)

(* Scripts in test/corpus/chaos were minimized from chaos-sweep
   failures; replay each under the standard single-kill chaos spec and
   demand the fault-free answer. *)
let chaos_corpus_dir = lazy (Testutil.find_up "test/corpus/chaos")

let test_chaos_corpus () =
  match Lazy.force chaos_corpus_dir with
  | None -> () (* sandboxed without sources: nothing to check *)
  | Some dir ->
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".m")
        |> List.sort compare
      in
      Alcotest.(check bool) "chaos corpus nonempty" true (files <> []);
      List.iter
        (fun f ->
          let c = Otter.compile (Testutil.read_file (Filename.concat dir f)) in
          let clean =
            Otter.outcome_exn
              (Otter.run
                 (Otter.config ~machine:Machine.meiko_cs2 ~nprocs:4 ())
                 c)
          in
          let rc =
            Otter.run
              (Otter.config ~ckpt_interval:0.02 ~max_recoveries:3
                 ~machine:(killer Machine.meiko_cs2) ~nprocs:4 ())
              c
          in
          match rc.Exec.State.r_result with
          | Exec.State.Complete out ->
              Alcotest.(check string)
                (f ^ ": bit-identical after recovery")
                clean.Exec.State.output out.Exec.State.output
          | Exec.State.Partial { detail; _ } ->
              Alcotest.failf "%s: did not recover: %s" f detail)
        files

(* --- recovered runs resume mid-loop: modeled numbers pinned ------------- *)

(* A checkpoint every 0.5 ms and a kill late in the run put the restore
   point after several boundaries: iteration 3 of the top-level loop in
   loop_rand_reduce.m and while_boundary.m, iteration 16 in CG, and
   program start in shift_after_kill.m (no loop, one early commit).
   Comparing outputs alone cannot catch a replay that does a little
   too much or too little work, so the final attempt's modeled numbers
   and the backoff penalty are pinned to goldens: a resume that skipped
   a while loop's condition test, or re-derived a for loop's bounds,
   would move compute time or the makespan.  Each entry: (script,
   kill time, (makespan, compute time, messages, scheduler picks)). *)
let mid_loop_goldens =
  [
    ( "loop_rand_reduce.m",
      0.0058,
      (0.013226359999999956, 0.0013942399999999952, 880, 1324) );
    ( "shift_after_kill.m",
      0.0008,
      (0.0021834799999999981, 0.00048271999999999947, 144, 220) );
    ( "while_boundary.m",
      0.0023,
      (0.0048181199999999874, 1.9679999999999873e-05, 336, 508) );
    ("cg", 0.021, (0.038472960000000278, 0.0050710399999999434, 2584, 3880));
  ]

let test_mid_loop_resume_pinned () =
  List.iter
    (fun (name, at, (makespan, compute, messages, picks)) ->
      let src =
        if name = "cg" then
          Some ((Option.get (Apps.Scripts.find "cg")).source 2)
        else
          Option.map
            (fun dir -> Testutil.read_file (Filename.concat dir name))
            (Lazy.force chaos_corpus_dir)
      in
      match src with
      | None -> () (* sandboxed without sources *)
      | Some src ->
          let c = Otter.compile src in
          let clean =
            Otter.outcome_exn
              (Otter.run
                 (Otter.config ~machine:Machine.meiko_cs2 ~nprocs:4 ())
                 c)
          in
          let rc =
            Otter.run
              (Otter.config ~ckpt_interval:0.0005 ~max_recoveries:3
                 ~machine:(killer ~at ~detect:0.001 Machine.meiko_cs2)
                 ~nprocs:4 ())
              c
          in
          Alcotest.(check bool)
            (name ^ ": rolled back") true
            (rc.Exec.State.r_attempts >= 2);
          (match rc.Exec.State.r_result with
          | Exec.State.Complete out ->
              Alcotest.(check string)
                (name ^ ": bit-identical after recovery")
                clean.Exec.State.output out.Exec.State.output
          | Exec.State.Partial { detail; _ } ->
              Alcotest.failf "%s: did not recover: %s" name detail);
          let last = List.nth rc.r_reports (List.length rc.r_reports - 1) in
          let exact what = Alcotest.(check (float 0.)) (name ^ ": " ^ what) in
          exact "makespan" makespan last.Sim.makespan;
          exact "compute time" compute last.Sim.compute_time;
          Alcotest.(check int) (name ^ ": messages") messages last.Sim.messages;
          Alcotest.(check int) (name ^ ": picks") picks last.Sim.sched_picks;
          exact "penalty" Exec.State.backoff_base rc.Exec.State.r_penalty)
    mid_loop_goldens

(* A top-level [return] jumps past the script's last checkpoint op and
   ends the run on every rank.  (Without checkpointing the fuzz corpus
   replays the same script, test/corpus/fuzz/top_return.m.) *)
let test_top_level_return () =
  let c =
    Otter.compile "x = 1;\ndisp(x);\nif x > 0, return; end\ndisp(2)\n"
  in
  match
    (Otter.run (Otter.config ~ckpt_interval:0.0005 ~nprocs:4 ()) c)
      .Exec.State.r_result
  with
  | Exec.State.Complete out ->
      Alcotest.(check string) "output" "1\n" out.Exec.State.output
  | Exec.State.Partial { detail; _ } -> Alcotest.failf "aborted: %s" detail

(* --- incremental snapshots -------------------------------------------- *)

(* A snapshot shares the previous snapshot's copy of a matrix only while
   the slot holds the same array, unwritten since.  This loop writes
   [v] by element and by linear section assignment and [M] by a row
   section, in place, and replaces [w] every iteration with a copy of
   it written inside [bump].  The kill lands after several boundaries:
   a snapshot that kept a stale copy of any of them would restore it,
   and the replay would end with different sums. *)
let inplace_src =
  {|n = 12;
v = zeros(n, 1);
M = zeros(6, n);
w = ones(1, n);
for k = 1:40
  i = mod(k, n) + 1;
  v(i) = v(i) + k;
  v(1:3) = v(1:3) + 1;
  M(mod(k, 6) + 1, :) = M(mod(k, 6) + 1, :) + k;
  w = bump(w, i);
end
fprintf('%.17g %.17g %.17g\n', sum(v), sum(sum(M)), sum(w));
function y = bump(x, k)
  x(k) = x(k) + k;
  y = x;
end
|}

let test_inplace_writes_recover () =
  let c = Otter.compile inplace_src in
  let capture = [ "v"; "M"; "w" ] in
  List.iter
    (fun p ->
      let where = Printf.sprintf "in-place writes P=%d" p in
      let clean =
        Otter.outcome_exn
          (Otter.run
             (Otter.config ~capture ~machine:Machine.meiko_cs2 ~nprocs:p ())
             c)
      in
      let span = clean.Exec.State.report.Sim.makespan in
      let rc =
        Otter.run
          (Otter.config ~capture ~ckpt_interval:(span *. 0.05)
             ~max_recoveries:3
             ~machine:
               (killer ~at:(span *. 0.6) ~detect:(span *. 0.05)
                  Machine.meiko_cs2)
             ~nprocs:p ())
          c
      in
      Alcotest.(check bool) (where ^ ": rolled back") true
        (rc.Exec.State.r_attempts >= 2);
      match rc.Exec.State.r_result with
      | Exec.State.Complete out -> check_identical ~where clean out
      | Exec.State.Partial { detail; _ } ->
          Alcotest.failf "%s: did not recover: %s" where detail)
    [ 3; 4 ]

(* chaos-cg's configuration (otterbench's fault spec and checkpoint
   interval) at scale 5: CG's matrix [A] never changes after setup, so
   each rank's two kept snapshots hold one copy of it, and no snapshot
   holds a live frame value.  A restore hands the frame its own copy,
   which the replay may change without touching the snapshot. *)
let test_chaos_cg_snapshots_share () =
  let app = Option.get (Apps.Scripts.find "cg") in
  let c = Otter.compile (app.source 5) in
  let nprocs = 16 in
  let cfg =
    Otter.config ~capture:app.capture ~machine:Machine.meiko_cs2 ~nprocs ()
  in
  let clean = Otter.outcome_exn (Otter.run cfg c) in
  let cfg =
    Workloads.chaos_config ~seed:cfg.Otter.Config.seed
      ~span:clean.Exec.State.report.Sim.makespan cfg
  in
  let { Otter.Config.ckpt_interval; max_recoveries; machine; seed; datadir; _ }
      =
    cfg
  in
  let kept = ref [||] in
  let rc =
    Exec.State.run_recovering_with ~nprocs ~ckpt_interval ~max_recoveries
      (fun ~attempt ~slots ~restore ->
        kept := slots;
        Exec.Tcode.attempt ~capture:app.capture ~seed ~datadir ~machine
          ~nprocs ~ckpt_interval c.Otter.prog ~attempt ~slots ~restore)
  in
  Alcotest.(check bool) "rolled back" true (rc.Exec.State.r_attempts >= 2);
  (match rc.Exec.State.r_result with
  | Exec.State.Complete out -> check_identical ~where:"chaos cg" clean out
  | Exec.State.Partial { detail; _ } ->
      Alcotest.failf "chaos cg did not recover: %s" detail);
  (* [A] and the transpose that built it are the square slots (b, x,
     r, p and q are columns); neither changes after setup *)
  let square_slots (s : Exec.State.snapshot) =
    List.filter
      (fun i ->
        match s.sn_vals.(i) with
        | Exec.State.Vmat m -> m.Runtime.Dmat.rows = m.Runtime.Dmat.cols
        | _ -> false)
      (List.init (Array.length s.sn_vals) Fun.id)
  in
  Array.iteri
    (fun rk (snaps : Exec.State.snapshot list) ->
      (match snaps with
      | [ s1; s0 ] ->
          let squares = square_slots s1 in
          Alcotest.(check bool)
            (Printf.sprintf "rank %d: A is held" rk)
            true (squares <> []);
          List.iter
            (fun a ->
              Alcotest.(check bool)
                (Printf.sprintf "rank %d: one copy of slot %d" rk a)
                true
                (s1.sn_vals.(a) == s0.sn_vals.(a)))
            squares
      | l -> Alcotest.failf "rank %d keeps %d snapshots" rk (List.length l));
      List.iter
        (fun (s : Exec.State.snapshot) ->
          Array.iteri
            (fun i v ->
              match (v, s.sn_src.(i)) with
              | Exec.State.Vmat m, Exec.State.Vmat live when m == live ->
                  Alcotest.failf "rank %d: slot %d holds the live value" rk i
              | _ -> ())
            s.sn_vals)
        snaps)
    !kept;
  let s = List.hd !kept.(0) in
  let a = List.hd (square_slots s) in
  let k = Array.length s.sn_tags in
  let vals = Array.make k (Exec.State.Vscalar 0.) in
  Exec.State.restore s ~tags:(Array.make k 0) ~sc:(Array.make k 0.) ~vals;
  match (vals.(a), s.sn_vals.(a)) with
  | Exec.State.Vmat live, Exec.State.Vmat snap ->
      let before = Array.copy snap.Runtime.Dmat.data in
      Runtime.Dmat.set_local live ~i:live.Runtime.Dmat.low ~j:0 Float.nan;
      Alcotest.(check bool) "restore copies" true (live != snap);
      Alcotest.(check bool) "snapshot unchanged by a write after restore" true
        (snap.Runtime.Dmat.data = before)
  | _ -> Alcotest.fail "A is not a matrix after restore"

let suite =
  [
    t "cg recovers bit-identically (3 machines, P=2/4/8)" (recover_app "cg");
    t "ocean recovers bit-identically (3 machines, P=2/4/8)"
      (recover_app "ocean");
    t "nbody recovers bit-identically (3 machines, P=2/4/8)"
      (recover_app "nbody");
    t "tc recovers bit-identically (3 machines, P=2/4/8)" (recover_app "tc");
    t "kill without recovery is a typed Partial"
      test_kill_without_recovery_is_typed;
    t "budget exhaustion gives up cleanly" test_budget_exhaustion_gives_up;
    t "program bugs are not retried" test_program_bugs_are_not_retried;
    t "RNG streams survive replay bit-identically"
      test_rng_stream_survives_replay;
    t "recovery is independent of the fault seed"
      test_recovery_is_seed_independent;
    QCheck_alcotest.to_alcotest reliable_exactly_once_prop;
    t "chaos corpus replays" test_chaos_corpus;
    t "mid-loop resume: modeled numbers pinned" test_mid_loop_resume_pinned;
    t "top-level return under checkpointing" test_top_level_return;
    t "in-place writes recover (P=3/4)" test_inplace_writes_recover;
    t "chaos cg: snapshots share A" test_chaos_cg_snapshots_share;
  ]
